import io

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from lhcds import Graph, connected_components, induced_subgraph, parse_edge_list
from lhcds.graph import reach, vertex_set
from helpers import (clique_edges, degeneracy_order_heap, gnp, k_n, path_n,
                     planted, star, triangle, two_k4_bridge_edge)
import random


def test_parse_triangle():
    g = parse_edge_list("0 1\n1 2\n2 0")
    assert (g.n, g.m) == (3, 3)
    assert g.adj == ((1, 2), (0, 2), (0, 1))


def test_parse_drops_self_loop_and_remaps():
    g = parse_edge_list("5 5\n5 7")
    assert (g.n, g.m) == (2, 1)
    assert g.labels == (5, 7)
    assert g.dropped_self_loops == 1


def test_parse_dedup():
    g = parse_edge_list("1 2\n2 1\n1 2")
    assert (g.n, g.m) == (2, 1)
    assert g.dropped_duplicates == 2


def test_parse_comments_blank_crlf_and_bytes():
    text = "# comment\r\n% other\r\n\r\n0 1\r\n1 2\r\n"
    assert parse_edge_list(text).m == 2
    assert parse_edge_list(text.encode()).m == 2
    assert parse_edge_list(io.StringIO(text)).m == 2


@pytest.mark.parametrize("bad,lineno", [
    ("0 1\nx 2", 2),
    ("0 1 2", 1),
    ("0\n", 1),
    ("1_0 2\n2 3\n3 1_0", 1),  # int() reads 1_0 as 10
    ("0 1\n# fine\n1 \u0661\u0662\n", 3),  # Arabic-Indic 12
    ("0 1\n1 \uff12\n", 2),  # fullwidth 2
    ("1 2\n1 2 3\n1_0 4\n", 2),  # the first malformed line is reported
])
def test_parse_errors_carry_line_number(bad, lineno):
    with pytest.raises(ValueError, match=f"line {lineno}"):
        parse_edge_list(bad)


@pytest.mark.parametrize("text,labels,m", [
    ("007 1\n7 2\n+2 1\n", (1, 2, 7), 3),  # 007 is 7, +2 is 2
    ("-0 1\n0 2\n", (0, 1, 2), 2),  # -0 is 0
])
def test_parse_reads_ids_by_value(text, labels, m):
    g = parse_edge_list(text)
    assert (g.labels, g.m) == (labels, m)


def test_parse_keeps_signed_ascii_ids_and_odd_comments():
    text = "# caf\u00e9_1 \u0661\n% a_b\n-3 +4\n4 5\r\n"
    assert parse_edge_list(text).labels == (-3, 4, 5)
    assert parse_edge_list(text.encode()).labels == (-3, 4, 5)


def test_induced_k5_to_k3():
    sub = induced_subgraph(k_n(5), (0, 1, 2))
    assert (sub.n, sub.m) == (3, 3)


def test_induced_single_vertex():
    sub = induced_subgraph(triangle(), (0,))
    assert (sub.n, sub.m) == (1, 0)


def test_induced_extracts_bridged_k4():
    sub = induced_subgraph(two_k4_bridge_edge(), (0, 1, 2, 3))
    assert (sub.n, sub.m) == (4, 6)
    assert sub.labels == (0, 1, 2, 3)


def test_induced_out_of_range():
    with pytest.raises(ValueError):
        induced_subgraph(triangle(), (0, 9))


@pytest.mark.parametrize("labels, message", [
    ([], "0 labels for n=4"),
    ([10], "1 labels for n=4"),
    ([10, 11, 10, 12], "repeat"),
])
def test_labels_must_name_each_vertex_once(labels, message):
    # a short list would make ippv fail on a missing label, and a repeated
    # id would make two output sets indistinguishable
    with pytest.raises(ValueError, match=message):
        Graph.from_edges(4, clique_edges(range(4)), labels=labels)


def test_size_must_match_adjacency():
    # a negative n or a short adjacency would otherwise fail, or not, deep
    # inside the pipeline
    with pytest.raises(ValueError, match="n=-2 with 0 adjacency lists"):
        Graph.from_edges(-2, [])
    with pytest.raises(ValueError, match="n=3 with 2 adjacency lists"):
        Graph(n=3, m=0, adj=((), ()))


def test_labels_need_not_be_sorted():
    g = Graph.from_edges(4, clique_edges(range(4)), labels=[13, 11, 12, 10])
    assert g.labels == (13, 11, 12, 10)


def test_components():
    two_tris = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert connected_components(two_tris) == [(0, 1, 2), (3, 4, 5)]
    empty = Graph.from_edges(4, [])
    assert connected_components(empty) == [(0,), (1,), (2,), (3,)]
    assert connected_components(path_n(3)) == [(0, 1, 2)]


@pytest.mark.parametrize("members", [[-1, 0], [0, 9]])
def test_components_reject_ids_out_of_range(members):
    # -1 would alias vertex n-1's slot, and 9 would index past the graph
    with pytest.raises(ValueError, match="vertex id out of range for n=5"):
        connected_components(path_n(5), members)


def test_vertex_set_sorts_and_drops_repeats():
    assert vertex_set([3, 1, 3], 4) == (1, 3)
    assert vertex_set([], 0) == ()


def test_degeneracy_order_k4():
    assert degeneracy_order_heap(k_n(4)) == [0, 1, 2, 3]


def test_degeneracy_order_peels_min_degree_first():
    # star: leaves 1, 2 peel first, then the center's degree has dropped to 1
    # and it ties with leaf 3; smallest id wins
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert degeneracy_order_heap(star) == [1, 2, 0, 3]
    # path 0-1-2: after peeling 0, vertices 1 and 2 tie at degree 1
    assert degeneracy_order_heap(path_n(3)) == [0, 1, 2]


def _peel_order_bruteforce(g):
    """Minimum-degree peeling by full scans: each step removes the vertex of
    least degree among those left, the smallest id on ties."""
    left = set(range(g.n))
    order = []
    while left:
        v = min(left, key=lambda u: (sum(w in left for w in g.adj[u]), u))
        left.remove(v)
        order.append(v)
    return order


@pytest.mark.parametrize("g", [
    Graph.from_edges(0, []), Graph.from_edges(1, []), Graph.from_edges(5, []),
    star(7), path_n(2), path_n(9), k_n(6),
    Graph.from_edges(9, [(0, 1), (1, 2), (5, 6)]),
], ids=lambda g: f"n{g.n}-m{g.m}")
def test_degeneracy_order_matches_heap_reference(g):
    assert degeneracy_order_heap(g) == _peel_order_bruteforce(g)


@pytest.mark.parametrize("seed", range(6))
def test_degeneracy_order_matches_heap_reference_planted(seed):
    rng = random.Random(seed)
    n = rng.randint(30, 300)
    g = planted(seed, n=n, m=rng.randint(n, 4 * n), blocks=rng.randint(1, 4),
                size_lo=4, size_hi=9, p=rng.choice([0.7, 1.0]))
    assert degeneracy_order_heap(g) == _peel_order_bruteforce(g)


@st.composite
def edge_graphs(draw):
    n = draw(st.integers(0, 25))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=60)) if pairs else []
    return Graph.from_edges(n, edges)


@given(edge_graphs())
def test_degeneracy_order_matches_heap_reference_any(g):
    assert degeneracy_order_heap(g) == _peel_order_bruteforce(g)


def test_round_trip_identity():
    g = two_k4_bridge_edge()
    sub = induced_subgraph(g, range(g.n))
    assert sub.adj == g.adj and sub.labels == g.labels
    assert induced_subgraph(g, range(g.n)) is g


@given(st.integers(0, 400), st.integers(2, 9))
def test_components_partition_and_order_determinism(seed, n):
    g = gnp(random.Random(seed), n, 0.4)
    comps = connected_components(g)
    flat = sorted(v for comp in comps for v in comp)
    assert flat == list(range(n))
    assert [c[0] for c in comps] == sorted(c[0] for c in comps)


def _nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from((v, w) for v in range(g.n) for w in g.adj[v] if v < w)
    return h


@given(edge_graphs(), st.data())
def test_components_match_networkx(g, data):
    members = data.draw(st.none() | st.sets(st.integers(0, max(g.n - 1, 0)),
                                            max_size=g.n))
    sub = _nx(g).subgraph(range(g.n) if members is None else members)
    want = sorted(tuple(sorted(c)) for c in nx.connected_components(sub))
    assert connected_components(g, members) == want


def test_reach_seeds_first_then_breadth_first():
    # path 0-1-2-3-4-5 plus the chord 0-5; seeds 3 then 0 (twice)
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    edges = g.adj.__getitem__
    assert reach(edges, [3, 0, 3], lambda w: True) == [3, 0, 2, 4, 1, 5]
    # 1 is not admitted, so 2 is reached from 3 only and nothing from 1
    assert reach(edges, [0], lambda w: w != 1) == [0, 5, 4, 3, 2]
    assert reach(edges, [], lambda w: True) == []


def test_reach_asks_once_per_vertex_and_never_about_seeds():
    # in K5 every seed meets every other vertex; 4 is refused
    asked = []

    def admit(w):
        asked.append(w)
        return w != 4

    assert reach(k_n(5).adj.__getitem__, [2, 1], admit) == [2, 1, 0, 3]
    assert sorted(asked) == [0, 3, 4]


@given(edge_graphs(), st.data())
def test_reach_is_a_breadth_first_walk_through_admitted_vertices(g, data):
    ids = st.integers(0, max(g.n - 1, 0))
    seeds = data.draw(st.lists(ids, max_size=5)) if g.n else []
    admitted = data.draw(st.sets(ids, max_size=g.n))
    # one-way links beyond g's edges, taken as further steps
    links = data.draw(st.lists(st.tuples(ids, ids), max_size=10)) \
        if g.n else []
    further = {}
    for u, v in links:
        further.setdefault(u, []).append(v)
    got = reach(lambda v: g.adj[v] + tuple(further.get(v, ())), seeds,
                admitted.__contains__)
    first = list(dict.fromkeys(seeds))
    assert got[:len(first)] == first
    assert len(set(got)) == len(got)
    assert admitted.issuperset(got[len(first):])
    # every vertex that a path of edges and links through seeds and admitted
    # vertices reaches from a seed, at non-decreasing distance from the seeds
    h = _nx(g).to_directed()
    h.add_edges_from(links)
    h = h.subgraph(admitted.union(seeds)).copy()
    h.add_edges_from(("src", v) for v in first)
    dist = nx.single_source_shortest_path_length(h, "src") if first else {}
    assert set(got) == set(dist) - {"src"}
    assert [dist[v] for v in got] == sorted(dist[v] for v in got)
