import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import lhcds.flow as flow_mod
from lhcds import (Bounds, CliqueSet, PipelineConfig, build_network,
                   clique_core_numbers, compact_numbers, connected_components,
                   derive_compact, enumerate_cliques, enumerate_patterns,
                   induced_subgraph, initialize_bounds, ippv, ippv_pattern,
                   is_densest, min_cut, oracle_compact_numbers,
                   oracle_compactness, restrict_cliques, verify_basic,
                   verify_fast)
from lhcds.flow import denser_part
from lhcds.oracle import _mask_to_tuple, compact_table
from helpers import (clique_edges, gnp, k4_pendant, k5_k4_bridge_edge, k_n,
                     planted, triangle, two_k4_bridge_edge,
                     two_k4_bridge_vertex)

from lhcds import Graph


def _arc_caps(net, u):
    return {net.head[e]: net.cap[e] for e in net.arcs[u] if net.cap[e] > 0}


def test_network_construction_triangle():
    g = triangle()
    cs = enumerate_cliques(g, 3)
    net = build_network(cs, Fraction(2, 9))
    # 2 terminals + 3 vertex nodes + 1 clique node
    assert len(net.arcs) == 6
    for v in range(3):
        caps = _arc_caps(net, net.vertex_node(v))
        assert caps[net.SINK] == Fraction(6, 9) * net.den  # rho * h
    clique_node = 5
    for v in range(3):
        vn = net.vertex_node(v)
        assert dict(_arc_caps(net, vn))[clique_node] == net.den       # v -> clique: 1
        assert dict(_arc_caps(net, clique_node))[vn] == 2 * net.den   # clique -> v: h-1
        assert dict(_arc_caps(net, net.SOURCE))[vn] == net.den        # degree 1


def test_network_boundary_compensation():
    g = Graph.from_edges(1, [])
    cs = enumerate_cliques(g, 3)
    net = build_network(cs, Fraction(1, 3), [(0,)])
    bnode = len(net.arcs) - 1
    vn = net.vertex_node(0)
    assert dict(_arc_caps(net, vn))[bnode] == 3 * net.den        # h / cnt
    assert dict(_arc_caps(net, bnode))[vn] == 2 * net.den        # h - 1
    assert dict(_arc_caps(net, net.SOURCE))[vn] == 3 * net.den   # mass += h/cnt


def test_network_rejects_bad_count():
    g = triangle()
    cs = enumerate_cliques(g, 3)
    with pytest.raises(ValueError):
        build_network(cs, Fraction(1), [(0, 1, 2)])


def test_min_cut_triangle():
    g = triangle()
    cs = enumerate_cliques(g, 3)
    assert min_cut(build_network(cs, Fraction(2, 9))).source_side == (0, 1, 2)
    assert min_cut(build_network(cs, Fraction(1, 2))).source_side == ()
    # at rho = 1/3 the whole triangle and the empty set tie at 0: the cut
    # returns the largest side, not the residual reach from the source
    tie = min_cut(build_network(cs, Fraction(1, 3)))
    assert tie.source_side == (0, 1, 2)
    assert tie.flow_value == 3


def test_min_cut_zero_rho_keeps_clique_mass():
    g = triangle()
    cs = enumerate_cliques(g, 3)
    net = build_network(cs, Fraction(0))
    for v in range(3):
        assert dict(_arc_caps(net, net.vertex_node(v))).get(net.SINK, 0) == 0
    side = min_cut(net).source_side
    assert set(side) >= {v for v in range(3) if cs.degree[v] > 0}


def test_min_cut_zero_source_mass_empty():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])  # no triangles
    cs = enumerate_cliques(g, 3)
    res = min_cut(build_network(cs, Fraction(1, 2)))
    assert res.source_side == ()
    assert res.flow_value == 0


def test_flow_value_scales_exactly():
    g = k_n(5)
    cs = enumerate_cliques(g, 3)
    v1 = min_cut(build_network(cs, Fraction(7, 5))).flow_value
    v2 = min_cut(build_network(cs, Fraction(14, 10))).flow_value
    assert v1 == v2  # same rational rho, possibly different denominators
    net = build_network(cs, Fraction(7, 5))
    net.cap[:] = [c * 2 for c in net.cap]
    doubled, _ = flow_mod._max_flow(net)
    assert Fraction(doubled, net.den) == 2 * v1


def test_derive_compact_examples():
    g = triangle()
    cs = enumerate_cliques(g, 3)
    assert derive_compact(cs, Fraction(1, 3) - Fraction(1, 9)) == (0, 1, 2)
    assert derive_compact(cs, Fraction(10)) == ()

    g2 = two_k4_bridge_vertex()
    cs2 = enumerate_cliques(g2, 3)
    got = derive_compact(cs2, Fraction(1) - Fraction(1, 81))
    assert got == (0, 1, 2, 3, 5, 6, 7, 8)


def test_derive_compact_matches_subset_oracle():
    rng = random.Random(41)
    for _ in range(8):
        g = gnp(rng, rng.randint(4, 9), 0.5)
        n = g.n
        for h in (2, 3):
            cs = enumerate_cliques(g, h)
            count, comp = compact_table(g, cs.cliques)
            densities = {Fraction(count[m], m.bit_count())
                         for m in comp if count[m] > 0}
            for rho in densities:
                got = set(derive_compact(cs, rho - Fraction(1, n * n)))
                want = set()
                for m, c in comp.items():
                    if c >= rho:
                        want |= set(_mask_to_tuple(m))
                assert got == want
                # every component of the result is rho-compact
                for piece in connected_components(g, got):
                    assert oracle_compactness(
                        induced_subgraph(g, piece), h) >= rho


def test_is_densest():
    k5 = k_n(5)
    assert is_densest(enumerate_cliques(k5, 4))
    pend = k4_pendant()
    assert not is_densest(enumerate_cliques(pend, 3))
    tri = triangle()
    assert is_densest(enumerate_cliques(tri, 3))
    with pytest.raises(ValueError):
        is_densest(enumerate_cliques(Graph.from_edges(0, []), 3))


@st.composite
def _small_graphs(draw):
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs
                 else st.just([]))
    return Graph.from_edges(n, edges)


@settings(max_examples=60, deadline=None)
@given(_small_graphs(), st.sampled_from([2, 3, 4, "diamond"]))
def test_equal_degree_sets_are_self_densest(g, kind):
    # a connected S whose members all lie in the same number of S's
    # instances has no denser subset, and denser_part finds none
    cs = enumerate_cliques(g, kind) if isinstance(kind, int) \
        else enumerate_patterns(g, kind)
    count, compact = compact_table(g, cs.cliques)
    for mask in compact:
        s = _mask_to_tuple(mask)
        degrees = cs.degrees_within(s)
        if min(degrees) != max(degrees):
            continue
        assert denser_part(restrict_cliques(cs, s)) == ()
        size = len(s)
        sub = mask
        while sub:
            assert count[sub] * size <= count[mask] * sub.bit_count()
            sub = (sub - 1) & mask


def test_verify_basic_examples():
    g = two_k4_bridge_vertex()
    cs = enumerate_cliques(g, 3)
    assert verify_basic(g, cs, (0, 1, 2, 3))
    assert not verify_basic(g, cs, (0, 1, 2))  # not maximal: the K4 is
    single = triangle()
    assert verify_basic(single, enumerate_cliques(single, 3), (0, 1, 2))
    with pytest.raises(ValueError):
        verify_basic(g, cs, (0, 5))  # disconnected


@pytest.mark.parametrize("s", [(-4, -3, -2), (0, 1, 9)])
def test_verifiers_reject_out_of_range_ids(s):
    # a negative id would alias a vertex from the end, and one past n-1
    # would index past the graph; both are refused as induced_subgraph does
    g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    cs, bounds = _tight_bounds(g, 3)
    assert verify_basic(g, cs, (0, 1, 2))
    for verify in (lambda: verify_basic(g, cs, s),
                   lambda: verify_fast(g, cs, s, bounds)):
        with pytest.raises(ValueError, match="vertex id out of range for n=4"):
            verify()


def _tight_bounds(g, h):
    cs = enumerate_cliques(g, h)
    return cs, initialize_bounds(clique_core_numbers(cs), h, h)


def _exact_bounds(phi):
    # the compact numbers as both bounds, over the lcm of their denominators
    den = math.lcm(*(p.denominator for p in phi))
    nums = [int(p * den) for p in phi]
    return Bounds(upper=nums, lower=nums[:], den=den)


@settings(max_examples=300)
@given(st.integers(0, 10**12), st.integers(1, 10**6), st.integers(1, 10**6),
       st.integers(-3, 3), st.integers(0, 10**18))
def test_thresholds_are_exact_compares(num, size, den, near, anywhere):
    # for rho = num/size and a bound x/den: x <= dead_at iff x/den < rho,
    # and x >= hot_at iff x/den > rho, at and around the boundary and far
    # from it
    dead_at, hot_at = flow_mod._thresholds(num, size, den)
    for x in (num * den // size + near, dead_at, hot_at, anywhere):
        assert (x <= dead_at) == (x * size < num * den)
        assert (x >= hot_at) == (x * size > num * den)


@pytest.mark.parametrize("g", [
    Graph.from_edges(5, clique_edges(range(4)) + [(0, 4), (1, 4)]),
    two_k4_bridge_edge(),
])
def test_verify_fast_bound_at_rho_extends(g):
    # every compact number is 1, the density of the K4 {0..3}, and the bounds
    # sit exactly there: vertex 4 reaches the K4 through a clique (first
    # graph) or an edge (second) and makes it non-maximal, so it must not be
    # treated as dead
    cs = enumerate_cliques(g, 3)
    phi = oracle_compact_numbers(g, 3)
    assert set(phi) == {1}
    bounds = _exact_bounds(phi)
    assert not verify_basic(g, cs, (0, 1, 2, 3))
    assert not verify_fast(g, cs, (0, 1, 2, 3), bounds)


def test_verify_fast_border_clique_with_member_at_rho():
    # the K4 {0..3} (density 1) reaches the K5 {5..9} (compact number 2)
    # only through 4 and 10, whose compact numbers are exactly 1. They lie
    # in the triangles {4, 5, 10} and {5, 6, 10}, which are border cliques
    # of the expansion: 5 and 6 are hot and stay out of it. A member whose
    # upper bound is exactly rho does not make a clique dead; dropping these
    # two would leave 4 and 10 with no triangle, so not compact, and the K4
    # would come out as a component and be accepted
    edges = clique_edges(range(4)) + clique_edges(range(5, 10)) + \
        [(0, 4), (4, 5), (4, 10), (5, 10), (6, 10)]
    g = Graph.from_edges(11, edges)
    cs = enumerate_cliques(g, 3)
    phi = oracle_compact_numbers(g, 3)
    assert phi == [1] * 5 + [2] * 5 + [1]
    bounds = _exact_bounds(phi)
    assert not verify_basic(g, cs, (0, 1, 2, 3))
    assert not verify_fast(g, cs, (0, 1, 2, 3), bounds)


def test_verify_fast_examples():
    g = two_k4_bridge_vertex()
    cs, bounds = _tight_bounds(g, 3)
    assert verify_fast(g, cs, (0, 1, 2, 3), bounds)
    assert not verify_fast(g, cs, (0, 1, 2), bounds)

    g2 = k5_k4_bridge_edge()
    cs2, bounds2 = _tight_bounds(g2, 3)
    # the K4 side touches the K5 whose lower bound exceeds density 1:
    # rejected, in agreement with the whole-graph flow
    paths = Counter()
    assert not verify_fast(g2, cs2, (5, 6, 7, 8), bounds2, paths=paths)
    assert paths == {"early_reject": 1}
    assert not verify_basic(g2, cs2, (5, 6, 7, 8))


def test_verify_fast_isolated_clique_needs_no_flow(monkeypatch):
    g = Graph.from_edges(7, clique_edges(range(4)) + [(4, 5), (5, 6)])
    cs, bounds = _tight_bounds(g, 3)
    calls = []
    real = flow_mod.derive_compact

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(flow_mod, "derive_compact", spy)
    paths = Counter()
    assert verify_fast(g, cs, (0, 1, 2, 3), bounds, paths=paths)
    assert calls == []  # early acceptance, no flow built
    assert paths == {"early_accept": 1}


def test_verify_fast_counts_the_flow_path():
    # the bridge vertex's lower bound does not rule it out, so the K4 alone
    # does not close the walk and the flow decides
    g = two_k4_bridge_vertex()
    cs = enumerate_cliques(g, 3)
    bounds = Bounds(upper=[1] * 9, lower=[0] * 9, den=1)
    paths = Counter()
    assert verify_fast(g, cs, (0, 1, 2, 3), bounds, paths=paths) == \
        verify_basic(g, cs, (0, 1, 2, 3))
    assert paths == {"flow": 1}


class _Unwalkable(CliqueSet):
    """A clique set whose incidence lists raise when read: a call that
    walks a clique from a vertex fails."""

    @property
    def incidence(self):
        raise AssertionError("walked a clique")

    @incidence.setter
    def incidence(self, value):
        pass


def _unwalkable(cs):
    return _Unwalkable(h=cs.h, cliques=cs.cliques, degree=cs.degree,
                       incidence=None)


@pytest.mark.parametrize("g, s, path", [
    (two_k4_bridge_vertex(), (0, 1, 2, 3), "early_accept"),
    (k5_k4_bridge_edge(), (5, 6, 7, 8), "early_reject"),
])
def test_verify_fast_early_paths_walk_no_clique(g, s, path):
    cs, bounds = _tight_bounds(g, 3)
    paths = Counter()
    assert verify_fast(g, _unwalkable(cs), s, bounds, paths=paths) == \
        verify_basic(g, cs, s)
    assert paths == {path: 1}


def test_verify_fast_flow_path_walks_cliques():
    # the guard above bites: the flow path reads the incidence lists
    g = two_k4_bridge_vertex()
    cs = enumerate_cliques(g, 3)
    bounds = Bounds(upper=[1] * 9, lower=[0] * 9, den=1)
    with pytest.raises(AssertionError, match="walked a clique"):
        verify_fast(g, _unwalkable(cs), (0, 1, 2, 3), bounds)


def test_verify_fast_count_matches_recomputed():
    # the driver passes the clique count it already has; without it the
    # call counts its own. Either way, for s in any order, the verdict and
    # the path are the same
    g = Graph.from_edges(6, clique_edges(range(4)) + clique_edges((3, 4, 5)))
    cs, bounds = _tight_bounds(g, 3)
    want = verify_basic(g, cs, (0, 1, 2, 3))
    for s in ((0, 1, 2, 3), (3, 1, 0, 2), (2, 3, 0, 1)):
        for count in (None, cs.count_within(s)):
            paths = Counter()
            assert verify_fast(g, cs, s, bounds, count=count,
                               paths=paths) == want
            assert paths == {"flow": 1}


def test_verify_fast_hot_member_rejects_early():
    # s is the triangle {4, 5, 6} (density 1/3) hanging off the K5 {0..4}.
    # Only 4, a member of s, has its exact lower bound (2); every other
    # lower bound is 0, so no neighbor outside s is hot. The hot member
    # alone shows s is not maximal, with no network built
    g = Graph.from_edges(7, clique_edges(range(5)) + clique_edges((4, 5, 6)))
    cs = enumerate_cliques(g, 3)
    phi = oracle_compact_numbers(g, 3)
    assert phi == [2] * 5 + [Fraction(1, 2)] * 2
    exact = _exact_bounds(phi)
    lower = [x if v == 4 else 0 for v, x in enumerate(exact.lower)]
    bounds = Bounds(upper=exact.upper, lower=lower, den=exact.den)
    assert not verify_basic(g, cs, (4, 5, 6))
    paths = Counter()
    assert not verify_fast(g, cs, (4, 5, 6), bounds, paths=paths)
    assert paths == {"early_reject": 1}


def test_verify_fast_explores_less_than_whole_graph():
    g = two_k4_bridge_vertex()
    cs, bounds = _tight_bounds(g, 3)
    # with core bounds the bridge vertex (core 0) is dead, so the expansion
    # stays at the K4 and accepts it without a network
    paths = Counter()
    assert verify_fast(g, cs, (0, 1, 2, 3), bounds, paths=paths)
    assert paths == {"early_accept": 1}


def test_fast_equals_basic_on_self_densest_candidates():
    rng = random.Random(2024)
    checked = 0
    flows = Counter()
    for _ in range(40):
        g = gnp(rng, rng.randint(4, 9), 0.5)
        # h-cliques, and patterns, whose members need not be adjacent
        instance_sets = [enumerate_cliques(g, 2), enumerate_cliques(g, 3)]
        instance_sets += [enumerate_patterns(g, name)
                          for name in ("diamond", "4loop", "tailed-triangle")]
        for cs in instance_sets:
            if not cs.cliques:
                continue
            core = clique_core_numbers(cs)
            exact = _exact_bounds(compact_numbers(g, cs.cliques))
            # core bounds, the exact compact numbers as both bounds, and
            # core upper bounds over exact lower ones
            kinds = (initialize_bounds(core, cs.h, cs.h), exact,
                     Bounds(upper=[c * exact.den for c in core],
                            lower=exact.lower, den=exact.den))
            # sample connected candidate sets; keep the self-densest ones
            for comp in connected_components(g):
                for _ in range(4):
                    size = rng.randint(1, len(comp))
                    cand = tuple(sorted(rng.sample(list(comp), size)))
                    sub = induced_subgraph(g, cand)
                    if len(connected_components(sub)) != 1:
                        continue
                    sub_cs = restrict_cliques(cs, cand)
                    if not sub_cs.cliques:
                        continue
                    if not is_densest(sub_cs):
                        continue
                    checked += 1
                    basic = verify_basic(g, cs, cand)
                    for bounds in kinds:
                        assert verify_fast(g, cs, cand, bounds,
                                           paths=flows) == basic
    assert checked > 50 and flows["flow"] > 0


def test_verify_fast_closes_over_pattern_instances():
    # s is a K6 (diamond density 15). a touches the edge 0-1 of s and
    # the edge b-d of a hot K8; five tips c_i hang off b-d alone. Each
    # diamond {a, b, d, x} has a neighbor of T (a) and a tip no edge of T
    # reaches (x); with every x outside T, a would be credited 4 + 6 + 5 =
    # 15 diamonds and join s. The c_i are neither dead nor hot, so T takes
    # them in, they drop out, and a keeps 10 < 15.
    s = tuple(range(6))
    a, k8, tips = 6, range(7, 15), range(15, 20)
    b, d = 7, 8
    edges = clique_edges(s) + clique_edges(k8) + [(a, 0), (a, 1), (a, b),
                                                  (a, d)]
    edges += [(c, x) for c in tips for x in (b, d)]
    g = Graph.from_edges(20, edges)
    cs = enumerate_patterns(g, "diamond")
    # K8's compact number is 70 * 6 / 8 = 52.5; everyone else's is below 50
    lower = [50 if v in k8 else 0 for v in range(20)]
    bounds = Bounds(upper=[100] * 20, lower=lower, den=1)
    assert verify_basic(g, cs, s)
    paths = Counter()
    assert verify_fast(g, cs, s, bounds, paths=paths)
    assert paths == {"flow": 1}


def test_verify_fast_closes_over_instances_until_nothing_is_added():
    # s is a K6 (diamond density 15) and a touches its edge 0-1 and the
    # edge b-d of a hot K12. The tip c hangs off b-d and off the edge p-q
    # that joins two hot K7s; five tips y_i hang off p-q alone. T takes in
    # c through the diamond {a, b, d, c}, and the y_i only through the
    # diamonds {c, p, q, y_i}, which touch T at c alone. With the y_i left
    # outside T, c would be credited 10 + 1 + 5 = 16 diamonds and a 4 + 10
    # + 1 = 15, enough for both to join s. The y_i are neither dead nor
    # hot, so a second closure step takes them in, they drop out, and so
    # do c and a.
    s = tuple(range(6))
    a, k12, k7, k7b = 6, range(7, 19), range(19, 26), range(26, 33)
    c, ys = 33, range(34, 39)
    b, d, p, q = 7, 8, 19, 26
    edges = clique_edges(s) + clique_edges(k12) + clique_edges(k7) + \
        clique_edges(k7b) + [(a, 0), (a, 1), (a, b), (a, d), (p, q)]
    edges += [(c, x) for x in (b, d, p, q)] + [(y, x) for y in ys
                                               for x in (p, q)]
    g = Graph.from_edges(39, edges)
    cs = enumerate_patterns(g, "diamond")
    # the K7s' compact numbers are 30 and the K12's 247.5; the rest are
    # at most 15
    hot = set(k12) | set(k7) | set(k7b)
    lower = [16 if v in hot else 0 for v in range(39)]
    bounds = Bounds(upper=[300] * 39, lower=lower, den=1)
    assert verify_basic(g, cs, s)
    paths = Counter()
    assert verify_fast(g, cs, s, bounds, paths=paths)
    assert paths == {"flow": 1}


def _fast_network_reference(g, cs, s, bounds):
    """verify_fast's decision path and, on the flow path, the vertex set T
    and the border entries of its network, from its docstring by a plain
    fixpoint: exact Fraction compares, every clique scanned on each pass."""
    inside_s = set(s)
    rho = Fraction(sum(set(c) <= inside_s for c in cs.cliques), len(s))
    dead = {v for v in range(g.n)
            if Fraction(bounds.upper[v], bounds.den) < rho}
    hot = {v for v in range(g.n)
           if Fraction(bounds.lower[v], bounds.den) > rho}
    if any(w in hot for v in s for w in g.adj[v]):
        return "early_reject", None
    live = [set(c) for c in cs.cliques if not dead.intersection(c)]
    t = set(s)

    def close(over_cliques):
        while True:
            more = {w for v in t for w in g.adj[v]} - dead
            if over_cliques:
                more.update(w for c in live if t & c for w in c)
            more -= hot | t
            if not more:
                return
            t.update(more)

    close(False)
    if t == inside_s:
        return "early_accept", None
    close(True)
    pos = {v: i for i, v in enumerate(sorted(t))}
    border = [tuple(pos[w] for w in c if w in t) for c in cs.cliques
              if not dead.intersection(c) and t.intersection(c)
              and not t.issuperset(c)]
    return "flow", (sorted(t), border)


@pytest.mark.time_limit(60)  # 4path took about 6 s when measured
@pytest.mark.parametrize("mode", [3, 4, "diamond", "4loop", "tailed-triangle",
                                  "3star", "4path"])
def test_verify_fast_network_matches_fixpoint(mode, monkeypatch):
    # T and the border entries that reach the network, not only the verdict:
    # the bounds of the propose and prune pass, on connected candidates (the
    # pass's candidates' pieces and each vertex with its neighbours) of
    # planted graphs
    cfg = PipelineConfig(h=mode if isinstance(mode, int) else 3, k=1)
    got = []
    real_restrict = flow_mod.restrict_cliques
    real_derive = flow_mod.derive_compact
    monkeypatch.setattr(flow_mod, "restrict_cliques",
                        lambda cs, s: got.append(list(s))
                        or real_restrict(cs, s))
    monkeypatch.setattr(flow_mod, "derive_compact",
                        lambda cs, rho, border: got.append(list(border))
                        or real_derive(cs, rho, border))
    flows = 0
    for seed in range(1, 4):
        g = planted(seed, n=120, m=300, blocks=4, size_lo=5, size_hi=8, p=0.8)
        events = []
        if isinstance(mode, int):
            ippv(g, cfg, on_round=events.append)
            cs = enumerate_cliques(g, mode)
        else:
            ippv_pattern(g, mode, cfg, on_round=events.append)
            cs = enumerate_patterns(g, mode)
        (ev,) = events
        cands = [comp for c in ev.candidates
                 for comp in connected_components(g, c)]
        cands += [tuple(sorted({v, *g.adj[v]})) for v in range(g.n)]
        for s in cands:
            path, network = _fast_network_reference(g, cs, s, ev.bounds)
            paths = Counter()
            got.clear()
            verify_fast(g, cs, s, ev.bounds, paths=paths)
            assert paths == {path: 1}, (seed, s)
            assert got == (list(network) if network else []), (seed, s)
            flows += path == "flow"
    assert flows > 0
