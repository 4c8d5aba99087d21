import random
from fractions import Fraction
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from lhcds import (PATTERN_NAMES, CliqueSet, Graph, clique_core_numbers,
                   enumerate_cliques, enumerate_patterns, induced_subgraph,
                   init_weights, initialize_bounds, oracle_compact_numbers,
                   restrict_cliques)
from lhcds.cliques import onto_support
from helpers import (core_bruteforce, enumerate_cliques_reference, gnp,
                     has_edge, k_n, path_n, planted, triangle,
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


def _core_sets(kind):
    """The graphs and instances of _seeded_sets, then three 150-vertex
    planted graphs. 3star keeps the small graphs alone: its instance count
    grows with the cube of the degree."""
    for _rng, g, cs in _seeded_sets(kind):
        yield g, cs
    if kind == "3star":
        return
    for seed in (1, 2, 3):
        g = planted(seed, n=150, m=600, blocks=6, size_lo=5, size_hi=12, p=0.7)
        yield g, _instances(g, kind)


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
             if all(has_edge(g, u, v) for u, v in combinations(c, 2))]
    assert cs.cliques == brute


def _assert_same_listing(cs, ref):
    # clique ids included: the lists must match position for position
    assert cs.cliques == ref.cliques
    assert cs.degree == ref.degree
    assert cs.incidence == ref.incidence


@given(st.integers(0, 10_000), st.integers(0, 14),
       st.sampled_from([0.3, 0.5, 0.8]), st.integers(2, 5))
def test_listing_matches_degeneracy_ordered_reference(seed, n, p, h):
    g = gnp(random.Random(seed), n, p)
    _assert_same_listing(enumerate_cliques(g, h),
                         enumerate_cliques_reference(g, h))


@pytest.mark.parametrize("kind", [2, 3, 4, 5, *PATTERN_NAMES])
def test_every_producer_lists_in_sorted_order(kind):
    # _index_cliques takes its list as given, so each producer must sort
    for rng, g, cs in _seeded_sets(kind):
        assert cs.cliques == sorted(cs.cliques)
        assert all(list(c) == sorted(c) for c in cs.cliques)
        for _ in range(3):
            members = rng.sample(range(g.n), rng.randint(1, g.n))
            sub = restrict_cliques(cs, members)
            assert sub.cliques == sorted(sub.cliques)


@pytest.mark.parametrize("seed", range(5))
def test_cliques_match_networkx_on_planted_graphs(seed):
    rng = random.Random(seed)
    n = rng.randint(30, 300)
    g = planted(seed, n=n, m=rng.randint(2 * n, 5 * n), blocks=rng.randint(1, 4),
                size_lo=5, size_hi=9, p=rng.choice([0.8, 1.0]))
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from((u, v) for u in range(g.n) for v in g.adj[u] if u < v)
    by_size: dict[int, list[tuple[int, ...]]] = {3: [], 4: [], 5: []}
    for clique in nx.enumerate_all_cliques(nxg):
        if len(clique) > 5:
            break  # cliques come in nondecreasing size
        if len(clique) in by_size:
            by_size[len(clique)].append(tuple(sorted(clique)))
    assert by_size[5], "the planted blocks should hold 5-cliques"
    for h, expected in by_size.items():
        cs = enumerate_cliques(g, h)
        assert cs.cliques == sorted(expected)
        _assert_same_listing(cs, enumerate_cliques_reference(g, h))


@pytest.mark.time_limit(10)
def test_triangles_of_a_hub_graph():
    # a hub joined to 20k leaves that form a path with chords (v, v+2): the
    # hub closes a triangle with each leaf edge and a 4-clique with each
    # leaf triangle. With the hub first, its forward set holds every leaf;
    # in the middle or last, the hub is in the forward set of half or all
    # of the leaves. Set intersections iterate the smaller side, so each
    # edge costs at most three lookups wherever the hub sits. Filtering the
    # hub's candidate list by membership instead would make about 4e8 tests
    leaves = 20_000
    n = leaves + 1
    for hub in (0, n // 2, n - 1):
        leaf = [v for v in range(n) if v != hub]
        edges = [(hub, v) for v in leaf] + \
            [(leaf[i], leaf[i + 1]) for i in range(leaves - 1)] + \
            [(leaf[i], leaf[i + 2]) for i in range(leaves - 2)]
        g = Graph.from_edges(n, edges)
        runs = [leaf[i:i + 3] for i in range(leaves - 2)]
        triangles = [(hub, u, v) for u, v in edges[leaves:]] + runs
        cs = enumerate_cliques(g, 3)
        assert cs.cliques == sorted(tuple(sorted(t)) for t in triangles)
        assert cs.degree[hub] == 2 * leaves - 3
        cs = enumerate_cliques(g, 4)
        assert len(cs.cliques) == 19_998
        assert cs.cliques == sorted(tuple(sorted([hub, *r])) for r in runs)
        assert cs.degree[hub] == 19_998


def test_restrict_cliques_rejects_ids_out_of_range():
    # the triangle (0, 1, 2) and the pendant edge (2, 3): four distinct ids
    # are not the whole graph unless they are 0..3
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    cs = enumerate_cliques(g, 3)
    for members in ([0, 1, 3, 7], [0, 1, -1]):
        with pytest.raises(ValueError, match="out of range"):
            restrict_cliques(cs, members)
    assert restrict_cliques(cs, [3, 2, 1, 0]) is cs


@pytest.mark.parametrize("kind", INSTANCE_KINDS)
def test_onto_support_relabels_monotonely(kind):
    # the support is the vertices in some instance; each instance keeps its
    # id and maps back to itself, and degrees and incidence carry over
    for seed in range(1, 4):
        g = planted(seed, n=120, m=200, blocks=4, size_lo=4, size_hi=7, p=0.8)
        cs = _instances(g, kind)
        whole = _instances(g, kind)
        sup, local = onto_support(cs)
        assert sup == tuple(v for v in range(g.n) if whole.degree[v])
        # a parsed graph has no isolated vertex: every one is in an edge
        assert (len(sup) == g.n) == (kind == 2)
        assert [tuple(sup[i] for i in c) for c in local.cliques] == \
            whole.cliques
        assert local.cliques == sorted(local.cliques)
        assert local.degree == [whole.degree[v] for v in sup]
        assert local.incidence == [whole.incidence[v] for v in sup]
    k5 = enumerate_cliques(k_n(5), 3)
    assert onto_support(k5) == (tuple(range(5)), k5)
    assert onto_support(k5)[1] is k5


def test_core_numbers_examples():
    assert clique_core_numbers(enumerate_cliques(triangle(), 3)) == [1, 1, 1]
    k5 = k_n(5)
    assert clique_core_numbers(enumerate_cliques(k5, 4)) == [4] * 5
    g = two_k4_bridge_edge()
    assert clique_core_numbers(enumerate_cliques(g, 3)) == [3] * 8


def test_core_at_most_degree():
    rng = random.Random(7)
    for _ in range(20):
        g = gnp(rng, rng.randint(3, 9), 0.5)
        cs = enumerate_cliques(g, 3)
        core = clique_core_numbers(cs)
        assert all(core[v] <= cs.degree[v] for v in range(g.n))


def test_initialize_bounds():
    # integer numerators over den: upper = core and lower = core/h exactly,
    # on the weight state's denominators and on any multiple of h
    core = list(range(2001))
    for h in range(2, 7):
        for den in (h, init_weights(enumerate_cliques(k_n(h), h)).den, 126 * h):
            b = initialize_bounds(core, h, den)
            assert b.den == den
            for c, upper, lower in zip(core, b.upper, b.lower):
                assert type(upper) is int and type(lower) is int
                assert Fraction(upper, den) == c
                assert Fraction(lower, den) == Fraction(c, h)


def test_bounds_sandwich_true_compact_numbers():
    rng = random.Random(11)
    for _ in range(15):
        g = gnp(rng, rng.randint(4, 9), 0.5)
        for h in (2, 3):
            cs = enumerate_cliques(g, h)
            b = initialize_bounds(clique_core_numbers(cs), h, h)
            phi = oracle_compact_numbers(g, h)
            for v in range(g.n):
                assert b.lower[v] <= phi[v] * h <= b.upper[v]


def test_core_vertices_retain_core_degree():
    # {v : core[v] >= k} is the (k, psi_h)-core: restricted to it, every
    # member still lies in at least k cliques
    rng = random.Random(23)
    for _ in range(10):
        g = gnp(rng, 8, 0.6)
        cs = enumerate_cliques(g, 3)
        core = clique_core_numbers(cs)
        for k in range(1, max(core, default=0) + 1):
            inside = sorted(v for v in range(g.n) if core[v] >= k)
            sub = restrict_cliques(cs, inside)
            assert all(d >= k for d in sub.degree)


@pytest.mark.parametrize("kind", INSTANCE_KINDS)
def test_core_numbers_match_iterated_k_core(kind):
    repeats = 0
    for g, cs in _core_sets(kind):
        assert clique_core_numbers(cs) == core_bruteforce(g.n, cs.cliques)
        repeats += len(cs.cliques) - len(set(cs.cliques))
    if kind in ("diamond", "3star"):
        assert repeats > 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_core_numbers_at_h2_match_networkx(seed):
    # at h = 2 the clique core is the ordinary k-core, on graphs far past
    # the reach of the iterated-deletion reference
    g = planted(seed, n=3000, m=9000, blocks=20, size_lo=10, size_hi=30, p=0.7)
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from((u, v) for u in range(g.n) for v in g.adj[u] if u < v)
    want = nx.core_number(nxg)
    assert clique_core_numbers(enumerate_cliques(g, 2)) == \
        [want[v] for v in range(g.n)]


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


@pytest.mark.parametrize("kind", INSTANCE_KINDS)
def test_degrees_within_matches_bruteforce(kind):
    for rng, g, cs in _seeded_sets(kind):
        for _ in range(4):
            members = rng.sample(range(g.n), rng.randint(1, g.n))  # any order
            inside = [c for c in cs.cliques if set(c) <= set(members)]
            assert cs.degrees_within(members) == \
                [sum(v in c for c in inside) for v in members]
            assert cs.count_within(members) == len(inside)
        assert cs.degrees_within(range(g.n)) == cs.degree


def test_clique_free_members_skip_the_range_search(monkeypatch):
    # a K4 with a pendant path: 4, 5 and 6 lie in no triangle, so they lead
    # none and the walk over a member set searches no range for them
    g = Graph.from_edges(7, [*combinations(range(4), 2), (3, 4), (4, 5), (5, 6)])
    cs = enumerate_cliques(g, 3)
    searched = []
    led_by = CliqueSet.led_by
    monkeypatch.setattr(CliqueSet, "led_by",
                        lambda self, v: searched.append(v) or led_by(self, v))
    assert cs.degrees_within(range(7)) == [3, 3, 3, 3, 0, 0, 0]
    assert cs.count_within(range(7)) == 4
    assert restrict_cliques(cs, range(1, 7)).cliques == [(0, 1, 2)]
    assert searched == [0, 1, 2, 3, 0, 1, 2, 3, 1, 2, 3]


def test_degrees_within_rejects_bad_ids():
    # entry i answers for members[i]: an id outside 0..n-1 lies in no clique
    # of this graph, and a repeated one would be answered twice
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    cs = enumerate_cliques(g, 3)
    with pytest.raises(ValueError, match="vertex id out of range for n=4"):
        cs.degrees_within([0, 1, 2, 7])
    with pytest.raises(ValueError, match="repeated vertex id"):
        cs.degrees_within([0, 1, 2, 1])
    assert cs.degrees_within([2, 0, 1]) == [1, 1, 1]


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
