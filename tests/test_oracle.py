import random
from fractions import Fraction

import networkx as nx
import pytest

from lhcds import (Graph, compact_numbers, compactness, enumerate_cliques,
                   induced_subgraph, oracle_compact_numbers, oracle_compactness,
                   oracle_lhcds)
import lhcds.oracle as oracle_mod
from lhcds.oracle import compact_table, lhcds_enumeration
from helpers import clique_edges, gnp, k_n, path_n, triangle, \
    two_k4_bridge_vertex


def test_compactness_examples():
    assert oracle_compactness(triangle(), 3) == Fraction(1, 3)
    assert oracle_compactness(k_n(5), 4) == 1
    pend = Graph.from_edges(4, clique_edges(range(3)) + [(0, 3)])
    assert oracle_compactness(pend, 3) == 0  # removing the pendant kills nothing


def test_compactness_requires_connected_and_small():
    with pytest.raises(ValueError):
        oracle_compactness(Graph.from_edges(4, [(0, 1), (2, 3)]), 3)
    with pytest.raises(ValueError):
        oracle_compactness(k_n(16), 3)


def test_compact_numbers_examples():
    assert oracle_compact_numbers(triangle(), 3) == [Fraction(1, 3)] * 3
    phi = oracle_compact_numbers(two_k4_bridge_vertex(), 3)
    assert [phi[v] for v in (0, 1, 2, 3, 5, 6, 7, 8)] == [Fraction(1)] * 8
    assert phi[4] == 0  # the bridge vertex sits in no triangle
    with pytest.raises(ValueError):
        oracle_compact_numbers(k_n(13), 3)


def test_instance_entry_points_enforce_caps(monkeypatch):
    # one vertex past each cap: the 2^n tables are never built
    for helper in ("_adj_masks", "_instance_count_by_mask"):
        monkeypatch.setattr(oracle_mod, helper,
                            lambda *a: pytest.fail("built a table"))
    with pytest.raises(ValueError, match="n <= 15"):
        compactness(path_n(16), enumerate_cliques(path_n(16), 2).cliques)
    edges = enumerate_cliques(path_n(13), 2).cliques
    for entry in (compact_table, compact_numbers, lhcds_enumeration):
        with pytest.raises(ValueError, match="n <= 12"):
            entry(path_n(13), edges)


def test_enumeration_scores_each_connected_mask_once(monkeypatch):
    # one compactness per connected vertex subset, shared by the candidates,
    # the superset scan and the compact-number self-check
    rng = random.Random(7)
    g = gnp(rng, 8, 0.5)
    cliques = enumerate_cliques(g, 3).cliques
    nxg = nx.Graph((v, w) for v in range(g.n) for w in g.adj[v])
    nxg.add_nodes_from(range(g.n))
    connected = [m for m in range(1, 1 << g.n)
                 if nx.is_connected(nxg.subgraph(oracle_mod._mask_to_tuple(m)))]
    scored = []
    real = oracle_mod._compactness_of_mask

    def counting(count, mask):
        scored.append(mask)
        return real(count, mask)

    monkeypatch.setattr(oracle_mod, "_compactness_of_mask", counting)
    assert lhcds_enumeration(g, cliques)  # one result at least
    assert scored == connected


def test_wrappers_reject_before_listing(monkeypatch):
    monkeypatch.setattr(oracle_mod, "enumerate_cliques",
                        lambda g, h: pytest.fail("listed the cliques"))
    for entry in (oracle_compactness, oracle_compact_numbers, oracle_lhcds):
        with pytest.raises(ValueError, match="capped"):
            entry(k_n(16), 3)


def test_lhcds_examples():
    assert oracle_lhcds(two_k4_bridge_vertex(), 3) == [
        ((0, 1, 2, 3), Fraction(1)), ((5, 6, 7, 8), Fraction(1))]
    assert oracle_lhcds(triangle(), 3) == [((0, 1, 2), Fraction(1, 3))]
    assert oracle_lhcds(path_n(4), 3) == []


def test_compactness_at_most_density():
    rng = random.Random(13)
    for _ in range(25):
        g = gnp(rng, rng.randint(3, 8), 0.6)
        from lhcds import connected_components
        for comp in connected_components(g):
            sub = induced_subgraph(g, comp)
            for h in (2, 3):
                cs = enumerate_cliques(sub, h)
                assert oracle_compactness(sub, h) <= Fraction(len(cs.cliques),
                                                              sub.n)


def test_results_disjoint_and_density_sorted():
    rng = random.Random(29)
    for _ in range(25):
        g = gnp(rng, rng.randint(4, 9), 0.5)
        for h in (2, 3):
            found = oracle_lhcds(g, h)
            seen = set()
            for vs, d in found:
                assert d > 0
                assert not (set(vs) & seen)
                seen |= set(vs)
            densities = [d for _, d in found]
            assert densities == sorted(densities, reverse=True)


def test_members_share_the_density_as_compact_number():
    rng = random.Random(31)
    for _ in range(10):
        g = gnp(rng, 8, 0.5)
        for h in (2, 3):
            phi = oracle_compact_numbers(g, h)
            for vs, d in oracle_lhcds(g, h):
                assert all(phi[v] == d for v in vs)
