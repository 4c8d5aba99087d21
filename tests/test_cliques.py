import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from lhcds import (clique_core_numbers, enumerate_cliques, enumerate_patterns,
                   induced_subgraph, initialize_bounds, oracle_compact_numbers,
                   restrict_cliques)
from helpers import (core_bruteforce, gnp, k_n, path_n, triangle,
                     two_k4_bridge_edge)

# clique sizes, and two pattern sets whose member quadruples repeat
INSTANCE_KINDS = [2, 3, 4, "diamond", "3star"]


def _instances(g, kind):
    if isinstance(kind, int):
        return enumerate_cliques(g, kind)
    return enumerate_patterns(g, kind)


def _seeded_sets(kind, count=12):
    rng = random.Random(f"cores-{kind}")
    for _ in range(count):
        g = gnp(rng, rng.randint(4, 13), rng.choice([0.3, 0.5, 0.7]))
        yield rng, g, _instances(g, kind)


def test_counts_on_complete_graphs():
    assert len(enumerate_cliques(k_n(5), 3).cliques) == 10
    assert len(enumerate_cliques(k_n(5), 4).cliques) == 5
    assert enumerate_cliques(path_n(3), 3).cliques == []


def test_h2_yields_edge_set():
    g = two_k4_bridge_edge()
    cs = enumerate_cliques(g, 2)
    edges = sorted((u, v) for u in range(g.n) for v in g.adj[u] if u < v)
    assert cs.cliques == edges


def test_h_below_two_rejected():
    with pytest.raises(ValueError):
        enumerate_cliques(triangle(), 1)


def test_clique_list_sorted_unique_and_indexed():
    g = k_n(5)
    cs = enumerate_cliques(g, 3)
    assert cs.cliques == sorted(set(cs.cliques))
    assert all(list(t) == sorted(t) for t in cs.cliques)
    assert cs.degree == [6] * 5  # C(4,2) triangles per K5 vertex
    for v in range(5):
        assert all(v in cs.cliques[c] for c in cs.incidence[v])


@given(st.integers(0, 300), st.integers(2, 9), st.sampled_from([2, 3, 4]))
def test_degree_sum_and_exhaustive_cross_check(seed, n, h):
    g = gnp(random.Random(seed), n, 0.5)
    cs = enumerate_cliques(g, h)
    assert sum(cs.degree) == h * len(cs.cliques)
    brute = [c for c in combinations(range(n), h)
             if all(g.has_edge(u, v) for u, v in combinations(c, 2))]
    assert cs.cliques == brute


def test_core_numbers_examples():
    assert clique_core_numbers(triangle(), enumerate_cliques(triangle(), 3)) == [1, 1, 1]
    k5 = k_n(5)
    assert clique_core_numbers(k5, enumerate_cliques(k5, 4)) == [4] * 5
    g = two_k4_bridge_edge()
    assert clique_core_numbers(g, enumerate_cliques(g, 3)) == [3] * 8


def test_core_at_most_degree():
    rng = random.Random(7)
    for _ in range(20):
        g = gnp(rng, rng.randint(3, 9), 0.5)
        cs = enumerate_cliques(g, 3)
        core = clique_core_numbers(g, cs)
        assert all(core[v] <= cs.degree[v] for v in range(g.n))


def test_initialize_bounds():
    # upper = core exactly; lower = the largest float at or below core/h
    core = list(range(2001))
    for h in range(2, 7):
        b = initialize_bounds(core, h)
        for c, upper, lower in zip(core, b.upper, b.lower):
            exact = Fraction(c, h)
            assert type(upper) is float and type(lower) is float
            assert upper == c
            assert Fraction(lower) <= exact
            assert Fraction(lower) == exact or \
                math.nextafter(lower, math.inf) > exact


def test_bounds_sandwich_true_compact_numbers():
    rng = random.Random(11)
    for _ in range(15):
        g = gnp(rng, rng.randint(4, 9), 0.5)
        for h in (2, 3):
            cs = enumerate_cliques(g, h)
            b = initialize_bounds(clique_core_numbers(g, cs), h)
            phi = oracle_compact_numbers(g, h)
            for v in range(g.n):
                assert b.lower[v] <= phi[v] <= b.upper[v]


def test_core_vertices_retain_core_degree():
    # {v : core[v] >= k} is the (k, psi_h)-core: restricted to it, every
    # member still lies in at least k cliques
    rng = random.Random(23)
    for _ in range(10):
        g = gnp(rng, 8, 0.6)
        cs = enumerate_cliques(g, 3)
        core = clique_core_numbers(g, cs)
        for k in range(1, max(core, default=0) + 1):
            inside = sorted(v for v in range(g.n) if core[v] >= k)
            sub = restrict_cliques(cs, inside)
            assert all(d >= k for d in sub.degree)


@pytest.mark.parametrize("kind", INSTANCE_KINDS)
def test_core_numbers_match_iterated_k_core(kind):
    repeats = 0
    for _rng, g, cs in _seeded_sets(kind):
        assert clique_core_numbers(g, cs) == core_bruteforce(g.n, cs.cliques)
        repeats += len(cs.cliques) - len(set(cs.cliques))
    if kind in ("diamond", "3star"):
        assert repeats > 0


@pytest.mark.parametrize("kind", INSTANCE_KINDS)
def test_core_numbers_under_alive_mask(kind):
    for rng, g, cs in _seeded_sets(kind):
        alive = bytearray(rng.random() < 0.7 for _ in range(g.n))
        survivors = [v for v in range(g.n) if alive[v]]
        want = clique_core_numbers(induced_subgraph(g, survivors),
                                   restrict_cliques(cs, survivors))
        core = clique_core_numbers(g, cs, alive)
        assert [core[v] for v in survivors] == want
        assert all(core[v] == 0 for v in range(g.n) if not alive[v])


@pytest.mark.parametrize("kind", INSTANCE_KINDS)
def test_restrict_cliques_matches_bruteforce(kind):
    for rng, g, cs in _seeded_sets(kind):
        subsets = [rng.sample(range(g.n), rng.randint(1, g.n))
                   for _ in range(4)] + [[]]
        for members in subsets:
            pos = {v: i for i, v in enumerate(sorted(members))}
            want = sorted(tuple(pos[u] for u in c) for c in cs.cliques
                          if all(u in pos for u in c))
            sub = restrict_cliques(cs, members + members[:2])
            assert sub.cliques == want  # sorted, repeats kept
            assert sub.degree == [sum(i in c for c in want)
                                  for i in range(len(pos))]
            assert sub.incidence == [[cid for cid, c in enumerate(want) if i in c]
                                     for i in range(len(pos))]
            assert cs.count_within(set(members)) == len(want)
        everyone = list(range(g.n))
        rng.shuffle(everyone)
        assert restrict_cliques(cs, everyone + everyone[:3]) is cs
        assert cs.count_within(set(everyone)) == len(cs.cliques)


def test_restrict_cliques_matches_reenumeration():
    from lhcds import induced_subgraph
    rng = random.Random(5)
    for _ in range(15):
        g = gnp(rng, 9, 0.5)
        cs = enumerate_cliques(g, 3)
        members = sorted(rng.sample(range(9), rng.randint(1, 9)))
        sub = induced_subgraph(g, members)
        assert restrict_cliques(cs, members).cliques == \
            enumerate_cliques(sub, 3).cliques
