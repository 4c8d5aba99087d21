import random

import pytest

from lhcds import (Bounds, Graph, clique_core_numbers, derive_stable_groups,
                   enumerate_cliques, induced_subgraph, init_weights,
                   initialize_bounds, prune, run_iterations,
                   tentative_decomposition)
from helpers import clique_edges, exact_bounds, k_n, planted, prune_rebuild


def _bounds(n, upper, lower):
    return Bounds(upper=[float(x) for x in upper],
                  lower=[float(x) for x in lower])


def test_edge_rule_removes_dominated_vertex():
    # pendant 4 sits below vertex 0's lower bound across the edge (0, 4)
    g = Graph.from_edges(5, clique_edges(range(4)) + [(0, 4)])
    b = _bounds(5, upper=[3, 3, 3, 3, 0.5], lower=[1, 1, 1, 1, 0.25])
    kept, surviving = prune(g, [(0, 1, 2, 3, 4)], b, enumerate_cliques(g, 3))
    assert surviving == (0, 1, 2, 3)
    assert kept == [(0, 1, 2, 3)]


def _cascade_fixture():
    # diamond {8..11} hanging off a K8; once the boundary vertices 9 and 11
    # fall to the edge rule, 8 and 10 lose every triangle and their cores
    # drop below the 1/2 lower bound
    edges = clique_edges(range(8)) + \
        [(8, 9), (9, 10), (10, 11), (8, 11), (9, 11), (0, 9), (1, 11)]
    g = Graph.from_edges(12, edges)
    return g, _bounds(12, upper=[21] * 8 + [1, 0.5, 1, 0.5],
                      lower=[2] * 8 + [0.5] * 4)


def test_core_cascade():
    g, b = _cascade_fixture()
    kept, surviving = prune(g, [tuple(range(12))], b, enumerate_cliques(g, 3))
    assert 9 not in surviving and 11 not in surviving    # edge rule
    assert 8 not in surviving and 10 not in surviving    # core cascade
    assert set(range(8)) <= set(surviving)


def test_cascade_reaches_fixed_point():
    # a K4 {0..3} and a 6-cycle through its vertex 3, at h=2. Each pass
    # drops one layer: 0 (core 3, lower 4), then the triangle left behind
    # (core 2, lower 3), then the path left of the cycle (core 1, lower 2)
    cycle = [3, 4, 5, 6, 7, 8]
    edges = clique_edges(range(4)) + [(cycle[i], cycle[(i + 1) % 6])
                                      for i in range(6)]
    g = Graph.from_edges(9, edges)
    b = _bounds(9, upper=[10] * 9, lower=[4, 3, 3, 3] + [2] * 5)
    cs = enumerate_cliques(g, 2)
    kept, surviving = prune(g, [tuple(range(9))], b, cs)
    assert surviving == () and kept == []
    assert prune_rebuild(g, [tuple(range(9))], b, cs) == ([], ())


def test_uniform_graph_untouched():
    g = k_n(5)
    cs = enumerate_cliques(g, 3)
    b = _bounds(5, upper=[6] * 5, lower=[2] * 5)
    kept, surviving = prune(g, [tuple(range(5))], b, cs)
    assert surviving == tuple(range(5))


def test_idempotent():
    g, b = _cascade_fixture()
    kept, surviving = prune(g, [tuple(range(12))], b, enumerate_cliques(g, 3))
    g2 = induced_subgraph(g, surviving)
    b2 = Bounds(upper=[b.upper[v] for v in surviving],
                lower=[b.lower[v] for v in surviving])
    kept2, surviving2 = prune(g2, [tuple(range(g2.n))], b2,
                              enumerate_cliques(g2, 3))
    assert surviving2 == tuple(range(g2.n))


def test_near_tie_not_pruned():
    # equal bounds across an edge must not fire the removal rule, and
    # matching cores survive the cascade
    g = Graph.from_edges(2, [(0, 1)])
    b = _bounds(2, upper=[1, 1], lower=[1, 1])
    kept, surviving = prune(g, [(0, 1)], b, enumerate_cliques(g, 2))
    assert surviving == (0, 1)


@pytest.mark.time_limit(10)  # each case took under 1 s when measured
@pytest.mark.parametrize("seed", range(20))
def test_prune_matches_rebuild_cascade(seed):
    # a 30-300-vertex planted graph, pruned with the groups and bounds of a
    # whole-graph propose round, as the driver's first round does; the same
    # groups, tightened from exact rational core bounds, prune the same way
    rng = random.Random(seed)
    n = rng.randint(30, 300)
    blocks = max(1, n // 25)
    h = rng.choice([2, 3, 4])
    g = planted(seed, n=n, m=blocks * 17 + n, blocks=blocks, size_lo=5,
                size_hi=9, p=0.8)
    cs = enumerate_cliques(g, h)
    core = clique_core_numbers(g, cs)
    partition, ws = tentative_decomposition(g, cs,
                                            run_iterations(init_weights(cs), 20))
    groups, local = derive_stable_groups(partition, ws, cs,
                                         initialize_bounds(core, h))
    kept, surviving = prune(g, groups, local, cs)
    want_kept, want_surviving = prune_rebuild(g, groups, local, cs)
    assert surviving == want_surviving
    assert kept == want_kept
    exact_groups, exact_local = derive_stable_groups(partition, ws, cs,
                                                     exact_bounds(core, h))
    assert exact_groups == groups
    assert prune(g, groups, exact_local, cs) == (kept, surviving)
