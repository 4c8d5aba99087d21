import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from lhcds import (PATTERN_NAMES, CliqueSet, enumerate_cliques,
                   enumerate_patterns, init_weights, objective,
                   oracle_compact_numbers, run_iterations,
                   tentative_decomposition)
from lhcds.cliques import _index_cliques
from helpers import (gnp, k_n, planted, run_iterations_eager, share_rows,
                     share_sums, triangle)


def _loads(ws):
    return [Fraction(x, ws.den) for x in ws.load]


def test_init_triangle():
    ws = init_weights(enumerate_cliques(triangle(), 3))
    assert ws.den == 6  # h * lcm(1, 2)
    assert [Fraction(x, ws.den) for x in ws.share] == [Fraction(1, 3)] * 3
    assert _loads(ws) == [Fraction(1, 3)] * 3


@pytest.mark.parametrize("h, rounds, den", [
    (2, 0, 2), (2, 5, 12), (3, 20, 126), (4, 20, 504), (5, 3, 240)])
def test_den_is_h_rounds_and_lcm(h, rounds, den):
    # den = h * (T+1) * lcm(1..h-1)
    cs = enumerate_cliques(k_n(6), h)
    assert run_iterations(cs, rounds).den == den


def test_init_k4():
    ws = init_weights(enumerate_cliques(k_n(4), 3))
    assert _loads(ws) == [1] * 4


def test_init_empty():
    empty = CliqueSet(h=3, cliques=[], degree=[0, 0], incidence=[[], []])
    ws = init_weights(empty)
    assert _loads(ws) == [0, 0]
    assert objective(ws) == 0.0


def test_one_round_hand_trace():
    # scale by 1/2, then the single clique tops up its minimum (vertex 0 by
    # the id tie-break): loads (2/3, 1/6, 1/6)
    ws = run_iterations(enumerate_cliques(triangle(), 3), 1)
    assert _loads(ws) == [Fraction(2, 3), Fraction(1, 6), Fraction(1, 6)]


def test_zero_rounds_identity():
    ws = run_iterations(enumerate_cliques(k_n(4), 3), 0)
    assert _loads(ws) == [1] * 4


def test_k4_twenty_rounds_near_compact_numbers():
    ws = run_iterations(enumerate_cliques(k_n(4), 3), 20)
    assert max(abs(x - 1) for x in _loads(ws)) <= Fraction(15, 100)


def test_objective_examples():
    assert objective(init_weights(enumerate_cliques(triangle(), 3))) == \
        pytest.approx(1 / 3)
    assert objective(init_weights(enumerate_cliques(k_n(4), 3))) == \
        pytest.approx(4.0)


def test_objective_settles_below_start():
    cs = enumerate_cliques(gnp(random.Random(3), 9, 0.6), 3)
    start, settled, late = (objective(run_iterations(cs, rounds))
                            for rounds in (0, 50, 250))
    assert late <= settled + 1e-9
    assert late <= start + 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 500), st.integers(3, 9), st.sampled_from([2, 3]),
       st.integers(0, 40))
def test_simplex_preserved_per_clique(seed, n, h, rounds):
    # exact invariants, no tolerance: after the iteration and after the
    # decomposition, every clique's integer shares sum to den, each load is
    # the sum of its shares and the loads sum to m * den
    g = gnp(random.Random(seed), n, 0.6)
    cs = enumerate_cliques(g, h)
    ws = run_iterations(cs, rounds)
    for decomposed in (False, True):
        if decomposed:
            tentative_decomposition(ws)
        for row in share_rows(ws):
            assert sum(row) == ws.den
            assert all(type(x) is int and x >= 0 for x in row)
        assert ws.load == share_sums(ws)
        assert sum(ws.load) == len(cs.cliques) * ws.den


def test_long_run_approaches_compact_numbers():
    g = gnp(random.Random(17), 8, 0.6)
    cs = enumerate_cliques(g, 3)
    phi = oracle_compact_numbers(g, 3)
    ws = run_iterations(cs, 10_000)
    assert max(abs(x - phi[v]) for v, x in enumerate(_loads(ws))) <= \
        Fraction(5, 100)


def _instances(g, kind):
    return enumerate_cliques(g, kind) if isinstance(kind, int) \
        else enumerate_patterns(g, kind)


def _assert_same_bits(ws, ref):
    # the exact shares and their sums as numerators over den; equal shares
    # mean equal pick counts, so the float steering picked as the eager did
    assert ws.share == [x * ws.den for x in ref.share]
    assert ws.load == [x * ws.den for x in ref.load]


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10_000), st.integers(3, 12),
       st.sampled_from([2, 3, 4, 5, *PATTERN_NAMES]), st.integers(0, 40))
def test_run_iterations_matches_eager_bit_for_bit(seed, n, kind, rounds):
    # no approx anywhere: the steering must take the eager update's float
    # operations in its order, and the shares must be the exact ones
    cs = _instances(gnp(random.Random(seed), n, 0.6), kind)
    _assert_same_bits(run_iterations(cs, rounds),
                      run_iterations_eager(cs, rounds))


@pytest.mark.parametrize("h", [3, 4])
def test_run_iterations_matches_eager_on_planted_graph(h):
    # thousands of cliques in overlapping blocks, where load ties between
    # members are common; at the default 20 rounds and at 150
    g = planted(3, n=300, m=1500, blocks=10, size_lo=6, size_hi=14, p=0.7)
    cs = enumerate_cliques(g, h)
    for rounds in (20, 150):
        _assert_same_bits(run_iterations(cs, rounds),
                          run_iterations_eager(cs, rounds))


def test_run_iterations_matches_eager_over_long_calls():
    # 150 rounds in one call, where most shares are far from 1/h: on a K4,
    # on planted triangles and on planted diamonds
    g = planted(5, n=60, m=200, blocks=3, size_lo=5, size_hi=8, p=0.8)
    for cs in (enumerate_cliques(k_n(4), 3), enumerate_cliques(g, 3),
               enumerate_patterns(g, "diamond")):
        _assert_same_bits(run_iterations(cs, 150),
                          run_iterations_eager(cs, 150))


def _one_instance_with_degrees(degree):
    # instance 0 is (0, 1, 2, 3); member v then shares degree[v] - 1 more
    # instances with three fresh vertices each, which come later in id order
    raw = [(0, 1, 2, 3)]
    fresh = 4
    for v, d in enumerate(degree):
        for _ in range(d - 1):
            raw.append((v, fresh, fresh + 1, fresh + 2))
            fresh += 3
    return _index_cliques(4, sorted(raw), fresh)


def test_four_wide_step_breaks_ties_by_position():
    # the members in `low` have the least degree, so they tie for instance
    # 0's least load in round 1. A single low member puts the strict
    # minimum at each position in turn; two-, three- and four-way ties
    # cover every pair of positions; base 2 gives every member other
    # instances. The tie's first position takes the pick, as in the generic
    # loop and the eager update: its share is (1 + 4) * 6 over den 48
    for size in (1, 2, 3, 4):
        for low in combinations(range(4), size):
            for base in (1, 2):
                cs = _one_instance_with_degrees(
                    [base if i in low else base + 1 for i in range(4)])
                first = run_iterations(cs, 1)
                assert share_rows(first)[0] == \
                    [30 if i == low[0] else 6 for i in range(4)], (low, base)
                for rounds in (1, 2, 20):
                    _assert_same_bits(
                        run_iterations(cs, rounds),
                        run_iterations_eager(cs, rounds))


def test_init_is_zero_rounds():
    # the uniform start, 1/h per share, is the state after no rounds
    g = planted(5, n=60, m=200, blocks=3, size_lo=5, size_hi=8, p=0.8)
    for cs in (enumerate_cliques(g, 3), enumerate_cliques(g, 4),
               enumerate_patterns(g, "diamond")):
        ws, zero = init_weights(cs), run_iterations(cs, 0)
        assert (ws.share, ws.load, ws.den) == (zero.share, zero.load, zero.den)
        unit = ws.den // cs.h
        assert ws.share == [unit] * (cs.h * len(cs.cliques))
        assert ws.load == [d * unit for d in cs.degree]
        _assert_same_bits(ws, run_iterations_eager(cs, 0))


def test_negative_rounds_rejected():
    with pytest.raises(ValueError, match="rounds"):
        run_iterations(enumerate_cliques(k_n(4), 3), -3)
