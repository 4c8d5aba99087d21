import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import lhcds.flow as flow_mod
from lhcds import (BoundaryClique, Bounds, build_network, clique_core_numbers,
                   connected_components, derive_compact, enumerate_cliques,
                   induced_subgraph, initialize_bounds, is_densest, min_cut,
                   oracle_compact_numbers, oracle_compactness, restrict_cliques,
                   verify_basic, verify_fast)
from lhcds.oracle import (_adj_masks, _compactness_of_mask, _connected,
                          _instance_count_by_mask, _mask_to_tuple)
from helpers import (clique_edges, gnp, k4_pendant, k5_k4_bridge_edge, k_n,
                     triangle, two_k4_bridge_edge, two_k4_bridge_vertex)

from lhcds import Graph


def _arc_caps(net, u):
    return {net.head[e]: net.cap[e] for e in net.arcs[u] if net.cap[e] > 0}


def test_network_construction_triangle():
    g = triangle()
    cs = enumerate_cliques(g, 3)
    net = build_network(g, cs, Fraction(2, 9))
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
    entry = BoundaryClique(clique_id=0, cnt=1, inside=(0,))
    net = build_network(g, cs, Fraction(1, 3), [entry])
    bnode = len(net.arcs) - 1
    vn = net.vertex_node(0)
    assert dict(_arc_caps(net, vn))[bnode] == 3 * net.den        # h / cnt
    assert dict(_arc_caps(net, bnode))[vn] == 2 * net.den        # h - 1
    assert dict(_arc_caps(net, net.SOURCE))[vn] == 3 * net.den   # mass += h/cnt


def test_network_rejects_bad_count():
    g = triangle()
    cs = enumerate_cliques(g, 3)
    with pytest.raises(ValueError):
        build_network(g, cs, Fraction(1), [BoundaryClique(0, 3, (0, 1, 2))])


def test_min_cut_triangle():
    g = triangle()
    cs = enumerate_cliques(g, 3)
    assert min_cut(build_network(g, cs, Fraction(2, 9))).source_side == (0, 1, 2)
    assert min_cut(build_network(g, cs, Fraction(1, 2))).source_side == ()


def test_min_cut_zero_rho_keeps_clique_mass():
    g = triangle()
    cs = enumerate_cliques(g, 3)
    net = build_network(g, cs, Fraction(0))
    for v in range(3):
        assert dict(_arc_caps(net, net.vertex_node(v))).get(net.SINK, 0) == 0
    side = min_cut(net).source_side
    assert set(side) >= {v for v in range(3) if cs.degree[v] > 0}


def test_min_cut_zero_source_mass_empty():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])  # no triangles
    cs = enumerate_cliques(g, 3)
    res = min_cut(build_network(g, cs, Fraction(1, 2)))
    assert res.source_side == ()
    assert res.flow_value == 0


def test_flow_value_scales_exactly():
    g = k_n(5)
    cs = enumerate_cliques(g, 3)
    v1 = min_cut(build_network(g, cs, Fraction(7, 5))).flow_value
    v2 = min_cut(build_network(g, cs, Fraction(14, 10))).flow_value
    assert v1 == v2  # same rational rho, possibly different denominators
    net = build_network(g, cs, Fraction(7, 5))
    net.cap[:] = [c * 2 for c in net.cap]
    doubled = flow_mod._max_flow(net)
    assert Fraction(doubled, net.den) == 2 * v1


def test_derive_compact_examples():
    g = triangle()
    cs = enumerate_cliques(g, 3)
    assert derive_compact(g, cs, Fraction(1, 3) - Fraction(1, 9)) == (0, 1, 2)
    assert derive_compact(g, cs, Fraction(10)) == ()

    g2 = two_k4_bridge_vertex()
    cs2 = enumerate_cliques(g2, 3)
    got = derive_compact(g2, cs2, Fraction(1) - Fraction(1, 81))
    assert got == (0, 1, 2, 3, 5, 6, 7, 8)


def test_derive_compact_matches_subset_oracle():
    rng = random.Random(41)
    for _ in range(8):
        g = gnp(rng, rng.randint(4, 9), 0.5)
        n = g.n
        for h in (2, 3):
            cs = enumerate_cliques(g, h)
            adj = _adj_masks(g)
            count = _instance_count_by_mask(n, cs.cliques)
            comp = {m: _compactness_of_mask(count, m)
                    for m in range(1, 1 << n) if _connected(adj, m)}
            densities = {Fraction(count[m], m.bit_count())
                         for m in comp if count[m] > 0}
            for rho in densities:
                got = set(derive_compact(g, cs, rho - Fraction(1, n * n)))
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
    assert is_densest(k5, enumerate_cliques(k5, 4))
    pend = k4_pendant()
    assert not is_densest(pend, enumerate_cliques(pend, 3))
    tri = triangle()
    assert is_densest(tri, enumerate_cliques(tri, 3))
    with pytest.raises(ValueError):
        is_densest(Graph.from_edges(0, []), enumerate_cliques(Graph.from_edges(0, []), 3))


def test_verify_basic_examples():
    g = two_k4_bridge_vertex()
    cs = enumerate_cliques(g, 3)
    assert verify_basic(g, cs, (0, 1, 2, 3))
    assert not verify_basic(g, cs, (0, 1, 2))  # not maximal: the K4 is
    single = triangle()
    assert verify_basic(single, enumerate_cliques(single, 3), (0, 1, 2))
    with pytest.raises(ValueError):
        verify_basic(g, cs, (0, 5))  # disconnected


def _tight_bounds(g, h):
    cs = enumerate_cliques(g, h)
    return cs, initialize_bounds(clique_core_numbers(g, cs), h)


def _assert_brackets(rho):
    dead_at, hot_at = flow_mod._float_bracket(rho)
    x = float(rho)
    near = [x]
    for direction in (-math.inf, math.inf):
        y = x
        for _ in range(2):
            y = math.nextafter(y, direction)
            near.append(y)
    for x in near + [dead_at, hot_at]:
        assert (x <= dead_at) == (x < rho)
        assert (x >= hot_at) == (x > rho)


@pytest.mark.parametrize("rho", [
    Fraction(0), Fraction(1, 2), Fraction(3),       # floats exactly
    Fraction(1, 3), Fraction(13, 6),                # between two floats
    Fraction(10**30 + 1, 7),
])
def test_float_bracket(rho):
    _assert_brackets(rho)


@given(st.fractions(min_value=0, max_value=10**9))
def test_float_bracket_any_rho(rho):
    _assert_brackets(rho)


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
    bounds = Bounds(upper=[float(p) for p in phi], lower=[float(p) for p in phi])
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
    assert not verify_fast(g2, cs2, (5, 6, 7, 8), bounds2)
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
    assert verify_fast(g, cs, (0, 1, 2, 3), bounds)
    assert calls == []  # early acceptance, no flow built


def test_verify_fast_explores_less_than_whole_graph():
    g = two_k4_bridge_vertex()
    cs, bounds = _tight_bounds(g, 3)
    # instrument by running the BFS logic indirectly: with core bounds the
    # bridge vertex (core 0) can never be pulled into the expansion
    assert verify_fast(g, cs, (0, 1, 2, 3), bounds)


def test_fast_equals_basic_on_self_densest_candidates():
    rng = random.Random(2024)
    checked = 0
    for _ in range(40):
        g = gnp(rng, rng.randint(4, 9), 0.5)
        for h in (2, 3):
            cs = enumerate_cliques(g, h)
            bounds = initialize_bounds(clique_core_numbers(g, cs), h)
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
                    if not is_densest(sub, sub_cs):
                        continue
                    checked += 1
                    assert verify_fast(g, cs, cand, bounds) == \
                        verify_basic(g, cs, cand)
    assert checked > 50
