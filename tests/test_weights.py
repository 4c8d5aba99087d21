import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lhcds import (PATTERN_NAMES, CliqueSet, enumerate_cliques,
                   enumerate_patterns, init_weights, objective,
                   oracle_compact_numbers, run_iterations,
                   tentative_decomposition)
from helpers import (gnp, k_n, planted, run_iterations_eager, share_rows,
                     share_sums, triangle)


def test_init_triangle():
    ws = init_weights(enumerate_cliques(triangle(), 3))
    assert ws.den == 6  # h * lcm(1, 2)
    assert [Fraction(x, ws.den) for x in ws.share] == [Fraction(1, 3)] * 3
    assert ws.load == [pytest.approx(1 / 3)] * 3


@pytest.mark.parametrize("h, rounds, den", [
    (2, 0, 2), (2, 5, 12), (3, 20, 126), (4, 20, 504), (5, 3, 240)])
def test_den_is_h_rounds_and_lcm(h, rounds, den):
    # den = h * (T+1) * lcm(1..h-1), whichever way the rounds are split
    cs = enumerate_cliques(k_n(6), h)
    assert run_iterations(init_weights(cs), rounds).den == den
    ws = init_weights(cs)
    for _ in range(rounds):
        run_iterations(ws, 1)
    assert ws.den == den


def test_init_k4():
    ws = init_weights(enumerate_cliques(k_n(4), 3))
    assert ws.load == [pytest.approx(1.0)] * 4


def test_init_empty():
    empty = CliqueSet(h=3, cliques=[], degree=[0, 0], incidence=[[], []])
    ws = init_weights(empty)
    assert ws.load == [0.0, 0.0]
    assert objective(ws) == 0.0


def test_one_round_hand_trace():
    # scale by 1/2, then the single clique tops up its minimum (vertex 0 by
    # the id tie-break): loads (2/3, 1/6, 1/6)
    ws = run_iterations(init_weights(enumerate_cliques(triangle(), 3)), 1)
    assert ws.load == [pytest.approx(2 / 3), pytest.approx(1 / 6), pytest.approx(1 / 6)]


def test_zero_rounds_identity():
    ws = run_iterations(init_weights(enumerate_cliques(k_n(4), 3)), 0)
    assert ws.load == [pytest.approx(1.0)] * 4


def test_k4_twenty_rounds_near_compact_numbers():
    ws = run_iterations(init_weights(enumerate_cliques(k_n(4), 3)), 20)
    assert max(abs(x - 1.0) for x in ws.load) <= 0.15


def test_objective_examples():
    assert objective(init_weights(enumerate_cliques(triangle(), 3))) == \
        pytest.approx(1 / 3)
    assert objective(init_weights(enumerate_cliques(k_n(4), 3))) == \
        pytest.approx(4.0)


def test_objective_settles_below_start():
    g = gnp(random.Random(3), 9, 0.6)
    ws = init_weights(enumerate_cliques(g, 3))
    start = objective(ws)
    run_iterations(ws, 50)
    settled = objective(ws)
    run_iterations(ws, 200)
    assert objective(ws) <= settled + 1e-9
    assert objective(ws) <= start + 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 500), st.integers(3, 9), st.sampled_from([2, 3]),
       st.integers(0, 40))
def test_simplex_preserved_per_clique(seed, n, h, rounds):
    # exact invariants, no tolerance: after the iteration every clique's
    # integer shares sum to den; after the decomposition they still do, each
    # load is the sum of its shares and the loads sum to m * den
    g = gnp(random.Random(seed), n, 0.6)
    cs = enumerate_cliques(g, h)
    ws = run_iterations(init_weights(cs), rounds)
    for decomposed in (False, True):
        if decomposed:
            tentative_decomposition(cs, ws)
        for row in share_rows(ws):
            assert sum(row) == ws.den
            assert all(type(x) is int and x >= 0 for x in row)
    assert ws.load == share_sums(ws)
    assert sum(ws.load) == len(cs.cliques) * ws.den


def test_long_run_approaches_compact_numbers():
    g = gnp(random.Random(17), 8, 0.6)
    cs = enumerate_cliques(g, 3)
    phi = [float(x) for x in oracle_compact_numbers(g, 3)]
    ws = run_iterations(init_weights(cs), 10_000)
    assert max(abs(ws.load[v] - phi[v]) for v in range(g.n)) <= 0.05


def _instances(g, kind):
    return enumerate_cliques(g, kind) if isinstance(kind, int) \
        else enumerate_patterns(g, kind)


def _assert_same_bits(ws, ref):
    # loads bit for bit; shares as the exact shares' numerators over den
    assert ws.load == ref.load
    assert ws.share == [x * ws.den for x in ref.share]
    assert ws.rounds_done == ref.rounds_done


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10_000), st.integers(3, 12),
       st.sampled_from([2, 3, 4, 5, *PATTERN_NAMES]), st.integers(0, 40),
       st.integers(0, 40))
def test_run_iterations_matches_eager_bit_for_bit(seed, n, kind, rounds, first):
    # no approx anywhere: the loads must take the eager update's float
    # operations in its order, and the shares must be the exact ones,
    # whether the rounds come in one call or two
    first = min(first, rounds)
    cs = _instances(gnp(random.Random(seed), n, 0.6), kind)
    ref = run_iterations_eager(init_weights(cs), rounds)
    _assert_same_bits(run_iterations(init_weights(cs), rounds), ref)
    split = run_iterations(init_weights(cs), first)
    _assert_same_bits(run_iterations(split, rounds - first), ref)


@pytest.mark.parametrize("h", [3, 4])
def test_run_iterations_matches_eager_on_planted_graph(h):
    # thousands of cliques in overlapping blocks, where load ties between
    # members are common; at the default 20 rounds and at 150
    g = planted(3, n=300, m=1500, blocks=10, size_lo=6, size_hi=14, p=0.7)
    cs = enumerate_cliques(g, h)
    for rounds in (20, 150):
        _assert_same_bits(run_iterations(init_weights(cs), rounds),
                          run_iterations_eager(init_weights(cs), rounds))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(3, 9),
       st.sampled_from([2, 3, 4, *PATTERN_NAMES]),
       st.lists(st.integers(0, 90), min_size=1, max_size=4))
def test_run_iterations_matches_eager_over_split_calls(seed, n, kind, calls):
    # the pick counts are cumulative, so split calls write the shares of
    # one call
    cs = _instances(gnp(random.Random(seed), n, 0.6), kind)
    ref = run_iterations_eager(init_weights(cs), sum(calls))
    ws = init_weights(cs)
    for rounds in calls:
        run_iterations(ws, rounds)
    _assert_same_bits(ws, ref)


def test_run_iterations_matches_eager_over_long_calls():
    # 150 rounds in one call, where most shares are far from 1/h: on a K4,
    # on planted triangles and on planted diamonds
    g = planted(5, n=60, m=200, blocks=3, size_lo=5, size_hi=8, p=0.8)
    for cs in (enumerate_cliques(k_n(4), 3), enumerate_cliques(g, 3),
               enumerate_patterns(g, "diamond")):
        _assert_same_bits(run_iterations(init_weights(cs), 150),
                          run_iterations_eager(init_weights(cs), 150))


def test_decomposed_state_cannot_resume():
    # the decomposition moves weight between shares, which the pick counts
    # then no longer describe: resuming would overwrite the move
    g = planted(3, n=300, m=1500, blocks=10, size_lo=6, size_hi=14, p=0.7)
    cs = enumerate_cliques(g, 3)
    ws = run_iterations(init_weights(cs), 20)
    tentative_decomposition(cs, ws)
    assert 0 in ws.share
    share, load = ws.share[:], ws.load[:]
    for rounds in (0, 1):
        with pytest.raises(ValueError, match="decomposition"):
            run_iterations(ws, rounds)
    assert ws.share == share and ws.load == load and ws.rounds_done == 20


def test_negative_rounds_rejected():
    ws = init_weights(enumerate_cliques(k_n(4), 3))
    with pytest.raises(ValueError, match="rounds"):
        run_iterations(ws, -3)
    assert ws.rounds_done == 0
    _assert_same_bits(run_iterations(ws, 2), run_iterations_eager(
        init_weights(enumerate_cliques(k_n(4), 3)), 2))


def test_copy_is_independent():
    cs = enumerate_cliques(k_n(5), 3)
    ws = run_iterations(init_weights(cs), 3)
    twin = ws.copy()
    # one count list per position: a snapshot copies each of them, as a
    # shallow picks[:] would share them with ws
    picks = [p[:] for p in ws.picks]
    run_iterations(ws, 2)
    assert twin.picks == picks != ws.picks
    _assert_same_bits(twin, run_iterations_eager(init_weights(cs), 3))
    # the twin's own counts resume it to where ws went
    _assert_same_bits(run_iterations(twin, 2), run_iterations_eager(
        init_weights(cs), 5))
    assert init_weights(cs).copy().picks == [[0] * len(cs.cliques)] * 3
