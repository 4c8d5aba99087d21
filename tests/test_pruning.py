import random
from fractions import Fraction

import pytest

from lhcds import (Bounds, Graph, PipelineConfig, clique_core_numbers,
                   connected_components, derive_stable_groups,
                   enumerate_cliques, enumerate_patterns, induced_subgraph,
                   initialize_bounds, ippv, ippv_pattern, prune,
                   run_iterations, tentative_decomposition)
from helpers import (clique_edges, core_bounds, exact_bounds, gnp, k_n,
                     planted, proposal, prune_rebuild)


def _bounds(upper, lower, den=4):
    # the given rationals as integer numerators over den
    def num(x):
        y = Fraction(x) * den
        assert y.denominator == 1
        return int(y)
    return Bounds(upper=list(map(num, upper)), lower=list(map(num, lower)),
                  den=den)


def _cross_edges(g, groups, surviving):
    """Edges of g between survivors of two different groups."""
    group_of = {v: i for i, grp in enumerate(groups) for v in grp}
    alive = set(surviving)
    return [(u, v) for u in surviving for v in g.adj[u]
            if u < v and v in alive and group_of[u] != group_of[v]]


def test_edge_rule_removes_dominated_vertex():
    # pendant 4 sits below vertex 0's lower bound across the edge (0, 4)
    g = Graph.from_edges(5, clique_edges(range(4)) + [(0, 4)])
    b = _bounds(upper=[3, 3, 3, 3, 0.5], lower=[1, 1, 1, 1, 0.25])
    assert prune(g, b, enumerate_cliques(g, 3)) == (0, 1, 2, 3)


def _cascade_fixture():
    # diamond {8..11} hanging off a K8; once the boundary vertices 9 and 11
    # fall to the edge rule, 8 and 10 lose every triangle and their cores
    # drop below the 1/2 lower bound
    edges = clique_edges(range(8)) + \
        [(8, 9), (9, 10), (10, 11), (8, 11), (9, 11), (0, 9), (1, 11)]
    g = Graph.from_edges(12, edges)
    return g, _bounds(upper=[21] * 8 + [1, 0.5, 1, 0.5],
                      lower=[2] * 8 + [0.5] * 4)


def test_core_cascade():
    g, b = _cascade_fixture()
    surviving = prune(g, b, enumerate_cliques(g, 3))
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
    b = _bounds(upper=[10] * 9, lower=[4, 3, 3, 3] + [2] * 5)
    cs = enumerate_cliques(g, 2)
    assert prune(g, b, cs) == ()
    assert prune_rebuild(g, b, cs) == ()


def test_uniform_graph_untouched():
    g = k_n(5)
    cs = enumerate_cliques(g, 3)
    b = _bounds(upper=[6] * 5, lower=[2] * 5)
    assert prune(g, b, cs) == tuple(range(5))


@pytest.mark.parametrize("seed", range(10))
def test_edge_rule_matches_per_edge_compares_at_ulp_ties(seed):
    # every bound is one shared value or one unit in the last place of a
    # numerator (one step of 1/den) away from it, so across many edges the
    # exact tie decides; comparing each vertex once
    # with its neighbours' largest lower bound drops what one compare per
    # edge drops
    rng = random.Random(seed)
    g = gnp(rng, 40, 0.15)
    den = rng.choice([6, 126, 504])
    x = rng.choice([1, den // 3, den, 2 * den])

    def near():
        return x + rng.randint(-1, 1)

    b = Bounds(upper=[near() for _ in range(g.n)],
               lower=[near() for _ in range(g.n)], den=den)
    per_edge = {v for v in range(g.n)
                if any(b.upper[v] < b.lower[u] for u in g.adj[v])}
    assert 0 < len(per_edge) < g.n
    cs = enumerate_cliques(g, 2)
    surviving = prune(g, b, cs)
    assert per_edge.isdisjoint(surviving)
    assert surviving == prune_rebuild(g, b, cs)


def test_idempotent():
    g, b = _cascade_fixture()
    surviving = prune(g, b, enumerate_cliques(g, 3))
    g2 = induced_subgraph(g, surviving)
    b2 = Bounds(upper=[b.upper[v] for v in surviving],
                lower=[b.lower[v] for v in surviving], den=b.den)
    assert prune(g2, b2, enumerate_cliques(g2, 3)) == tuple(range(g2.n))


def test_near_tie_not_pruned():
    # pendant 0 on the K4 {1..4}, at h=2: an upper bound equal to its
    # neighbour's lower bound keeps 0; one step of 1/den below it drops 0
    g = Graph.from_edges(5, [(0, 1)] + clique_edges(range(1, 5)))
    cs = enumerate_cliques(g, 2)
    for den in (1, 6, 504):
        for step, want in ((0, (0, 1, 2, 3, 4)), (1, (1, 2, 3, 4))):
            b = Bounds(upper=[den - step] + [3 * den] * 4,
                       lower=[0, den, 0, 0, 0], den=den)
            assert prune(g, b, cs) == want
            assert prune_rebuild(g, b, cs) == want


def test_core_cascade_compares_core_times_den():
    # each K3 vertex has core 1: a lower bound of exactly den keeps it, one
    # step above drops it (and with it the rest of the triangle)
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    cs = enumerate_cliques(g, 3)
    den = 126
    for step, want in ((0, (0, 1, 2)), (1, ())):
        b = Bounds(upper=[5 * den] * 3, lower=[den, den, den + step], den=den)
        assert prune(g, b, cs) == want
        assert prune_rebuild(g, b, cs) == want


@pytest.mark.time_limit(10)  # each case took under 1 s when measured
@pytest.mark.parametrize("seed", range(20))
def test_prune_matches_rebuild_cascade(seed):
    # a 30-300-vertex planted graph, pruned with the bounds of a whole-graph
    # propose round, as the driver's pass does, leaves no edge between two
    # stable groups' survivors; the integer core bounds the groups tighten
    # are those seeded from exact rationals
    rng = random.Random(seed)
    n = rng.randint(30, 300)
    blocks = max(1, n // 25)
    h = rng.choice([2, 3, 4])
    g = planted(seed, n=n, m=blocks * 17 + n, blocks=blocks, size_lo=5,
                size_hi=9, p=0.8)
    cs = enumerate_cliques(g, h)
    core = clique_core_numbers(cs)
    ws = run_iterations(cs, 20)
    groups, local = derive_stable_groups(tentative_decomposition(ws), ws,
                                         core)
    surviving = prune(g, local, cs)
    assert surviving == prune_rebuild(g, local, cs)
    assert _cross_edges(g, groups, surviving) == []
    assert initialize_bounds(core, h, ws.den) == exact_bounds(core, h, ws.den)


class _PassDone(Exception):
    pass


def _pass_event(g, kind, rounds):
    """The driver's round event for kind (h or a pattern name), stopping the
    driver once the pass is done."""
    events = []

    def stop(ev):
        events.append(ev)
        raise _PassDone

    with pytest.raises(_PassDone):
        if isinstance(kind, int):
            ippv(g, PipelineConfig(h=kind, iterations=rounds), on_round=stop)
        else:
            ippv_pattern(g, kind, PipelineConfig(iterations=rounds),
                         on_round=stop)
    return events[0]


def _candidates(g, cs, surviving):
    """The clique-bearing components of the survivors, densest first."""
    comps = [(-Fraction(count, len(comp)), comp)
             for comp in connected_components(g, surviving)
             if (count := cs.count_within(comp))]
    return [c for _, c in sorted(comps)]


@pytest.mark.time_limit(30)  # all seven kinds took about 5 s when measured
@pytest.mark.parametrize("kind", [2, 3, 4, "diamond", "4loop",
                                  "tailed-triangle", "3star"])
def test_survivors_never_span_two_stable_groups(kind):
    # the proposal's bounds come from stable groups, and the edge rule drops
    # every vertex next to a higher group, so no surviving edge joins two
    # groups and the candidates are the clique-bearing components of each
    # group's survivors; the groups are rebuilt here at 1, 5 and 20 weight
    # rounds. A pattern query's pass takes these bounds and candidates; a
    # clique query's takes the core bounds and their candidates, whatever
    # the rounds
    for seed in range(1, 6):
        g = planted(seed, n=400, m=1200, blocks=6, size_lo=5, size_hi=8,
                    p=0.8)
        cs = (enumerate_cliques(g, kind) if isinstance(kind, int)
              else enumerate_patterns(g, kind))
        for rounds in (1, 5, 20):
            ev = _pass_event(g, kind, rounds)
            groups, bounds = proposal(cs, rounds)
            surviving = [v for v in prune(g, bounds, cs) if cs.degree[v]]
            assert _cross_edges(g, groups, surviving) == [], (seed, rounds)
            alive = set(surviving)
            per_group = []
            for grp in groups:
                for comp in connected_components(
                        g, [v for v in grp if v in alive]):
                    count = cs.count_within(comp)
                    if count:
                        per_group.append((-Fraction(count, len(comp)), comp))
            candidates = _candidates(g, cs, surviving)
            assert candidates == [c for _, c in sorted(per_group)], \
                (seed, rounds)
            if isinstance(kind, int):
                bounds = core_bounds(cs)
                surviving = [v for v in prune(g, bounds, cs)
                             if cs.degree[v]]
                candidates = _candidates(g, cs, surviving)
            assert ev.bounds == bounds
            assert set(ev.pruned).isdisjoint(surviving)
            assert len(ev.pruned) + len(surviving) == g.n
            assert ev.candidates == candidates, (seed, rounds)
