import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from lhcds import (Graph, enumerate_cliques, enumerate_patterns,
                   pattern_density, PATTERN_NAMES)
from helpers import (gnp, has_edge, k_n, pattern_counts_bruteforce, star,
                     triangle)


K4_COUNTS = {"3star": 4, "4path": 12, "tailed-triangle": 12,
             "4loop": 3, "diamond": 6, "4clique": 1}


@pytest.mark.parametrize("pattern,count", sorted(K4_COUNTS.items()))
def test_counts_on_k4(pattern, count):
    assert len(enumerate_patterns(k_n(4), pattern).cliques) == count


def _closed_form(pattern, n):
    if pattern == "3star":
        return n * comb(n - 1, 3)
    if pattern == "4path":
        return n * (n - 1) * (n - 2) * (n - 3) // 2
    if pattern == "tailed-triangle":
        return comb(n, 3) * 3 * (n - 3)
    if pattern == "4loop":
        return 3 * comb(n, 4)
    if pattern == "diamond":
        return comb(n, 2) * comb(n - 2, 2)
    return comb(n, 4)


@pytest.mark.parametrize("pattern", PATTERN_NAMES)
@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_complete_graph_closed_forms(pattern, n):
    assert len(enumerate_patterns(k_n(n), pattern).cliques) == \
        _closed_form(pattern, n)


def test_4clique_pattern_equals_clique_enumeration():
    rng = random.Random(19)
    for _ in range(15):
        g = gnp(rng, rng.randint(4, 9), 0.6)
        assert enumerate_patterns(g, "4clique").cliques == \
            enumerate_cliques(g, 4).cliques


def test_instances_unique_and_degree_sum():
    # each instance is listed exactly once: the count on every quadruple
    # equals the brute-force count over the edge subsets of G[Q]
    rng = random.Random(3)
    for _ in range(10):
        g = gnp(rng, rng.randint(5, 9), 0.55)
        for pattern in PATTERN_NAMES:
            ps = enumerate_patterns(g, pattern)
            assert Counter(ps.cliques) == pattern_counts_bruteforce(g, pattern)
            assert sum(ps.degree) == 4 * len(ps.cliques)
            for inst in ps.cliques:
                assert len(set(inst)) == 4


def test_edges_present_for_each_instance():
    rng = random.Random(4)
    required = {
        "3star": 3, "4path": 3, "tailed-triangle": 4,
        "4loop": 4, "diamond": 5, "4clique": 6,
    }
    for _ in range(8):
        g = gnp(rng, 8, 0.5)
        for pattern, min_edges in required.items():
            for inst in enumerate_patterns(g, pattern).cliques:
                edges = sum(1 for i in range(4) for j in range(i + 1, 4)
                            if has_edge(g, inst[i], inst[j]))
                assert edges >= min_edges


def test_pattern_density_values():
    g = k_n(4)
    assert pattern_density(enumerate_patterns(g, "4loop"), range(4)) == \
        Fraction(3, 4)
    assert pattern_density(enumerate_patterns(g, "4loop"), (0, 1)) == 0
    k5 = k_n(5)
    assert pattern_density(enumerate_patterns(k5, "4clique"), range(5)) == 1
    with pytest.raises(ValueError):
        pattern_density(enumerate_patterns(g, "4loop"), ())
    diamonds = enumerate_patterns(g, "diamond")
    for outside in ([0, 1, 2, 3, 99], [-1, 0, 1, 2, 3]):
        with pytest.raises(ValueError):
            pattern_density(diamonds, outside)


@pytest.mark.time_limit(5)
def test_4loop_sparse_graph_scales_with_edges():
    # a 20k-vertex path with chords (i, i + 3): each chord closes exactly one
    # 4-cycle, and a listing that visits every vertex pair cannot finish
    n = 20_000
    starts = (7, 4_000, 9_999, 15_000, n - 4)
    edges = [(v, v + 1) for v in range(n - 1)] + [(i, i + 3) for i in starts]
    ps = enumerate_patterns(Graph.from_edges(n, edges), "4loop")
    assert ps.cliques == [tuple(range(i, i + 4)) for i in starts]


def test_star_has_single_instance():
    g = star(3)
    ps = enumerate_patterns(g, "3star")
    assert ps.cliques == [(0, 1, 2, 3)]


def test_unsupported_pattern():
    with pytest.raises(ValueError):
        enumerate_patterns(triangle(), "5wheel")
