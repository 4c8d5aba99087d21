"""Shared graph fixtures and independent reference computations for tests."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from lhcds import (Bounds, Graph, clique_core_numbers, definitely_less,
                   induced_subgraph, parse_edge_list, restrict_cliques)
from lhcds.proposal import _share_conditions_ok


def clique_edges(vertices) -> list[tuple[int, int]]:
    return list(combinations(vertices, 2))


def k_n(n: int) -> Graph:
    return Graph.from_edges(n, clique_edges(range(n)))


def path_n(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def triangle() -> Graph:
    return k_n(3)


def star(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def two_k4_bridge_vertex() -> Graph:
    """Two K4s {0..3} and {5..8} joined through the bridge vertex 4."""
    edges = clique_edges(range(4)) + clique_edges(range(5, 9)) + [(3, 4), (4, 5)]
    return Graph.from_edges(9, edges)


def two_k4_bridge_edge() -> Graph:
    """Two K4s {0..3} and {4..7} joined by the single edge (3, 4)."""
    edges = clique_edges(range(4)) + clique_edges(range(4, 8)) + [(3, 4)]
    return Graph.from_edges(8, edges)


def k4_pendant() -> Graph:
    """K4 {0..3} plus the degree-one vertex 4 hanging off 0."""
    return Graph.from_edges(5, clique_edges(range(4)) + [(0, 4)])


def k5_k4_bridge_edge() -> Graph:
    """K5 {0..4} and K4 {5..8} joined by the edge (4, 5)."""
    edges = clique_edges(range(5)) + clique_edges(range(5, 9)) + [(4, 5)]
    return Graph.from_edges(9, edges)


def thirteen_triangles() -> Graph:
    """K6 minus the two adjacent edges (0,1) and (0,2): 13 triangles, and the
    whole graph is its own densest subgraph at 13/6."""
    edges = clique_edges(range(6))
    edges.remove((0, 1))
    edges.remove((0, 2))
    return Graph.from_edges(6, edges)


def gnp(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def planted(seed: int, n: int, m: int, blocks: int, size_lo: int,
            size_hi: int, p: float) -> Graph:
    """Disjoint blocks of size_lo..size_hi random vertices, each pair inside
    a block joined with probability p, then uniform edges until m edges.

    Parsed from its edge list like the CLI input, so vertices no edge touches
    are dropped and the rest keep their relative order.
    """
    rng = random.Random(seed)
    vertices = list(range(n))
    rng.shuffle(vertices)
    edges = set()
    at = 0
    for _ in range(blocks):
        size = rng.randint(size_lo, size_hi)
        block = sorted(vertices[at:at + size])
        at += size
        for u, v in combinations(block, 2):
            if rng.random() < p:
                edges.add((u, v))
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return parse_edge_list("".join(f"{u} {v}\n" for u, v in sorted(edges)))


def core_bruteforce(n: int, cliques) -> list[int]:
    """Clique-core numbers by iterated k-cores: for k = 1, 2, ..., drop every
    vertex that lies in fewer than k cliques inside the current set until
    none does; a vertex's core is the last k whose k-core holds it."""
    core = [0] * n
    inside = set(range(n))
    k = 1
    while inside:
        while True:
            deg = dict.fromkeys(inside, 0)
            for c in cliques:
                if all(u in inside for u in c):
                    for u in c:
                        deg[u] += 1
            low = {v for v in inside if deg[v] < k}
            if not low:
                break
            inside -= low
        for v in inside:
            core[v] = k
        k += 1
    return core


def prune_rebuild(g: Graph, candidates, bounds, cs):
    """The pruning rules with the core cascade run by rebuilding: every pass
    restricts the clique set and the graph to the survivors and peels their
    cores from scratch. Returns the kept groups and the surviving ids."""
    alive = [True] * g.n
    for v in range(g.n):
        if any(definitely_less(bounds.upper[v], bounds.lower[u])
               for u in g.adj[v]):
            alive[v] = False
    while True:
        survivors = [v for v in range(g.n) if alive[v]]
        core = clique_core_numbers(induced_subgraph(g, survivors),
                                   restrict_cliques(cs, survivors))
        dropped = [v for i, v in enumerate(survivors)
                   if definitely_less(core[i], bounds.lower[v])]
        if not dropped:
            break
        for v in dropped:
            alive[v] = False
    kept = []
    for grp in candidates:
        vs = tuple(v for v in grp if alive[v])
        if vs:
            kept.append(vs)
    return kept, tuple(v for v in range(g.n) if alive[v])


def exact_bounds(core, h: int) -> Bounds:
    """Core-seeded bounds as exact rationals: upper = core, lower = core/h."""
    return Bounds(upper=[Fraction(c) for c in core],
                  lower=[Fraction(c, h) for c in core])


def is_stable_group(candidate, partition, ws, cs) -> bool:
    """Def-checked stability of a union of consecutive partition blocks.

    (1) every outside vertex's load lies strictly above the candidate's
    maximum or strictly below its minimum; (2)/(3) every clique joining the
    candidate to a heavier (lighter) vertex carries share exactly 0 on the
    heavy (candidate) side. Share comparisons are exact: reassignment writes
    exact zeros and the iteration itself never does.
    """
    members = set(candidate)
    if not members:
        return False
    load = ws.load
    lo = min(load[v] for v in members)
    hi = max(load[v] for v in members)
    for v in partition.order:
        if v in members:
            continue
        if lo <= load[v] <= hi:
            return False
    return _share_conditions_ok(members, lo, hi, ws, cs)


def suite_graphs(seed: int = 20260810, count: int = 200):
    """The acceptance suite's random graphs: n in [4,10], p in {.3,.5,.7}."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(4, 10)
        p = rng.choice([0.3, 0.5, 0.7])
        out.append(gnp(rng, n, p))
    return out


def lds_bruteforce(g: Graph) -> list[tuple[tuple[int, ...], Fraction]]:
    """Independent locally-densest-subgraph brute force for edge density.

    Coded apart from the library oracle on purpose: edges are counted
    directly from the adjacency with a per-mask recurrence, not through any
    clique list. Returns (vertices, density) pairs sorted densest first;
    edge-free sets are excluded.
    """
    n = g.n
    adj_mask = [0] * n
    for v in range(n):
        for w in g.adj[v]:
            adj_mask[v] |= 1 << w

    size = 1 << n
    edge_count = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        edge_count[mask] = edge_count[rest] + bin(adj_mask[v] & rest).count("1")

    def connected(mask: int) -> bool:
        start = mask & -mask
        seen = start
        frontier = start
        while frontier:
            nxt = 0
            m = frontier
            while m:
                b = m & -m
                m ^= b
                nxt |= adj_mask[b.bit_length() - 1]
            frontier = nxt & mask & ~seen
            seen |= frontier
        return seen == mask

    conn = [False] * size
    compact: dict[int, Fraction] = {}
    for mask in range(1, size):
        if not connected(mask):
            continue
        conn[mask] = True
        total = edge_count[mask]
        bits = bin(mask).count("1")
        best = None
        sub = (mask - 1) & mask
        while True:
            lost = total - edge_count[sub]
            removed = bits - bin(sub).count("1")
            val = Fraction(lost, removed)
            if best is None or val < best:
                best = val
            if sub == 0:
                break
            sub = (sub - 1) & mask
        compact[mask] = best

    full = size - 1
    results = []
    for mask in range(1, size):
        if not conn[mask] or edge_count[mask] == 0:
            continue
        density = Fraction(edge_count[mask], bin(mask).count("1"))
        if compact[mask] != density:
            continue
        rest = full & ~mask
        sup = rest
        maximal = True
        while sup and maximal:
            cand = mask | sup
            if conn[cand] and compact[cand] >= density:
                maximal = False
            sup = (sup - 1) & rest
        if maximal:
            vs = tuple(v for v in range(n) if mask >> v & 1)
            results.append((vs, density))
    results.sort(key=lambda item: (-item[1], item[0]))
    return results
