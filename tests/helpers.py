"""Shared graph fixtures and independent reference computations for tests."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from heapq import heappop, heappush
from itertools import chain, combinations, permutations

from lhcds import (Bounds, CliqueSet, Graph, WeightState, clique_core_numbers,
                   derive_stable_groups, initialize_bounds, parse_edge_list,
                   restrict_cliques, run_iterations, tentative_decomposition)
from lhcds.cliques import _index_cliques


def clique_edges(vertices) -> list[tuple[int, int]]:
    return list(combinations(vertices, 2))


def has_edge(g: Graph, u: int, v: int) -> bool:
    return v in g.adj[u]


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


def degeneracy_order_heap(g: Graph) -> list[int]:
    """Reference peeling order: one lazy-deletion heap of (degree, id)
    pairs, a push per degree decrement. Minimum degree first, ties broken by
    smallest id."""
    deg = [len(g.adj[v]) for v in range(g.n)]
    heap = [(deg[v], v) for v in range(g.n)]
    heap.sort()
    removed = [False] * g.n
    order: list[int] = []
    while heap:
        d, v = heappop(heap)
        if removed[v] or d != deg[v]:
            continue  # stale heap entry
        removed[v] = True
        order.append(v)
        for w in g.adj[v]:
            if not removed[w]:
                deg[w] -= 1
                heappush(heap, (deg[w], w))
    return order


def enumerate_cliques_reference(g: Graph, h: int) -> CliqueSet:
    """Reference clique listing over the degeneracy-ordered DAG: each edge
    points from the endpoint peeled earlier to the one peeled later, and
    each clique is listed once, as its rank-ordered chain, then sorted.
    Triangles come from each vertex's successor pairs; other sizes from
    recursive filtering of successor lists. ``enumerate_cliques`` must
    return the same cliques, ids, degrees and incidence lists."""
    if h < 2:
        raise ValueError(f"clique size must be >= 2, got {h}")
    adj = g.adj
    out: list[tuple[int, ...]] = []
    rank = [0] * g.n
    for i, v in enumerate(degeneracy_order_heap(g)):
        rank[v] = i
    succ = [[w for w in adj[v] if rank[w] > rv]
            for v, rv in enumerate(rank)]
    succ_sets = [set(s) for s in succ]
    if h == 3:
        for v, sv in enumerate(succ):
            for w in sv:
                sw = succ_sets[w]
                for x in sv:
                    if x in sw:
                        out.append(tuple(sorted((v, w, x))))
        return _index_cliques(3, sorted(out), g.n)

    def extend(prefix: list[int], cand) -> None:
        if len(prefix) == h - 1:
            for v in cand:
                out.append(tuple(sorted(prefix + [v])))
            return
        for v in cand:
            nxt = [w for w in cand if w in succ_sets[v]]
            if len(prefix) + 1 + len(nxt) >= h:
                extend(prefix + [v], nxt)

    for v, sv in enumerate(succ):
        if len(sv) >= h - 1:
            extend([v], sv)
    return _index_cliques(h, sorted(out), g.n)


# Each 4-vertex pattern as an edge list on the positions 0..3.
PATTERN_EDGES = {
    "3star": [(0, 1), (0, 2), (0, 3)],
    "4path": [(0, 1), (1, 2), (2, 3)],
    "tailed-triangle": [(0, 1), (0, 2), (1, 2), (2, 3)],
    "4loop": [(0, 1), (1, 2), (2, 3), (0, 3)],
    "diamond": [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)],
    "4clique": list(combinations(range(4), 2)),
}


def pattern_counts_bruteforce(g: Graph, pattern: str) -> Counter:
    """Non-induced instances of the pattern per sorted vertex quadruple Q:
    the edge subsets of G[Q] that equal the pattern's edge set under one of
    the 24 assignments of Q to the pattern's positions (every position has
    an edge, so each such subset covers Q). Only quadruples with at least
    one instance appear."""
    shapes = {frozenset(frozenset((p[a], p[b])) for a, b in PATTERN_EDGES[pattern])
              for p in permutations(range(4))}
    size = len(PATTERN_EDGES[pattern])
    counts: Counter = Counter()
    for quad in combinations(range(g.n), 4):
        present = [frozenset((i, j)) for i, j in combinations(range(4), 2)
                   if has_edge(g, quad[i], quad[j])]
        found = sum(frozenset(sub) in shapes
                    for sub in combinations(present, size))
        if found:
            counts[quad] = found
    return counts


def run_iterations_eager(cs, rounds: int) -> WeightState:
    """Reference weight iteration: the plain per-clique update.

    Every round rescales each float load by 1 - 1/(t+1) with ``*=``, then
    walks cliques in id order, finds the minimum-load member with a strict
    ``<`` (so the smallest position wins ties) and adds 1/(t+1) to its load.
    The float loads start from degree/h and only steer the picks. Shares are
    exact: each starts at 1/h, is multiplied by t/(t+1), and the picked one
    gains 1/(t+1), all in ``Fraction``s. The state returned holds those
    shares and their per-vertex sums as loads, both as ``Fraction``s over
    ``den`` 1; ``run_iterations`` must hold them as numerators over its
    ``den``.
    """
    cliques = cs.cliques
    h = cs.h
    share = [Fraction(1, h)] * (h * len(cliques))
    load = [d / h for d in cs.degree]
    for t in range(1, rounds + 1):
        gamma = 1.0 / (t + 1)
        keep = 1.0 - gamma
        exact_keep = Fraction(t, t + 1)
        exact_gamma = Fraction(1, t + 1)
        for v in range(len(load)):
            load[v] *= keep
        for i in range(len(share)):
            share[i] *= exact_keep
        for cid, members in enumerate(cliques):
            best_pos = 0
            best = load[members[0]]
            for i in range(1, len(members)):
                li = load[members[i]]
                if li < best:
                    best = li
                    best_pos = i
            share[cid * h + best_pos] += exact_gamma
            load[members[best_pos]] = best + gamma
    ws = WeightState(cs=cs, share=share, load=[], den=1)
    ws.load = share_sums(ws)
    return ws


def share_rows(ws) -> list[list[int]]:
    """The flat share list cut into one row per clique."""
    h = ws.cs.h
    return [ws.share[i:i + h] for i in range(0, len(ws.share), h)]


def share_sums(ws) -> list[int]:
    """Each vertex's shares summed: its exact load over ``ws.den``."""
    load = [0] * len(ws.cs.degree)
    for members, row in zip(ws.cs.cliques, share_rows(ws)):
        for v, x in zip(members, row):
            load[v] += x
    return load


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


def prune_rebuild(g: Graph, bounds, cs, drops: list[int] | None = None):
    """The pruning rules with the core cascade run by rebuilding: every pass
    restricts the clique set and the graph to the survivors and peels their
    cores from scratch. Returns the surviving ids; appends to ``drops``,
    when given, the number of passes that dropped a vertex."""
    alive = [True] * g.n
    for v in range(g.n):
        if any(bounds.upper[v] < bounds.lower[u] for u in g.adj[v]):
            alive[v] = False
    passes = 0
    while True:
        survivors = [v for v in range(g.n) if alive[v]]
        core = clique_core_numbers(restrict_cliques(cs, survivors))
        dropped = [v for i, v in enumerate(survivors)
                   if core[i] < Fraction(bounds.lower[v], bounds.den)]
        if not dropped:
            if drops is not None:
                drops.append(passes)
            return tuple(survivors)
        passes += 1
        for v in dropped:
            alive[v] = False


def exact_bounds(core, h: int, den: int) -> Bounds:
    """Core-seeded bounds from exact rationals: upper = core and lower =
    core/h, each times ``den``, which h must divide."""
    lower = [Fraction(c, h) * den for c in core]
    assert all(x.denominator == 1 for x in lower)
    return Bounds(upper=[c * den for c in core],
                  lower=[int(x) for x in lower], den=den)


def core_bounds(cs) -> Bounds:
    """A clique query's pass bounds: upper = core and lower = core/h, over
    the denominator h."""
    return initialize_bounds(clique_core_numbers(cs), cs.h, cs.h)


def proposal(cs, rounds: int):
    """A pattern query's proposal over cs: ``rounds`` weight rounds, the
    tentative decomposition and stable groups, which tighten the core
    bounds. Returns the groups and the tightened bounds."""
    ws = run_iterations(cs, rounds)
    return derive_stable_groups(tentative_decomposition(ws), ws,
                                clique_core_numbers(cs))


def is_stable_group(candidate, ws) -> bool:
    """Def-checked stability of a candidate vertex set.

    (1) every outside vertex's load lies strictly above the candidate's
    maximum or strictly below its minimum; (2)/(3) every clique joining the
    candidate to a heavier (lighter) vertex carries share exactly 0 on the
    heavy (candidate) side. Loads and shares are exact integers over
    ``ws.den``.
    """
    members = set(candidate)
    if not members:
        return False
    load = ws.load
    lo = min(load[v] for v in members)
    hi = max(load[v] for v in members)
    for v, x in enumerate(load):
        if v not in members and lo <= x <= hi:
            return False
    cs = ws.cs
    h = cs.h
    for cid in set(chain.from_iterable(map(cs.incidence.__getitem__,
                                           members))):
        pairs = list(zip(cs.cliques[cid], ws.share[cid * h:(cid + 1) * h]))
        on_members = any(x for v, x in pairs if v in members)
        for w, x in pairs:
            if w in members:
                continue
            if load[w] > hi and x:  # (2)
                return False
            if load[w] < lo and on_members:  # (3)
                return False
    return True


def stable_groups_reference(partition, ws, core):
    """``derive_stable_groups`` with every stability check made by
    ``is_stable_group``: the separation by a scan of every load, the
    share conditions over every clique incident to the candidate, and the
    bounds seeded by ``exact_bounds``. Returns the groups and the tightened
    bounds."""
    sets: list[list[int]] = []
    acc: list[int] = []
    for block in partition.groups:
        acc += block
        if is_stable_group(acc, ws):
            sets.append(acc)
            acc = []
    while acc:
        if is_stable_group(acc, ws):
            sets.append(acc)
            break
        acc = sets.pop() + acc
    out = exact_bounds(core, ws.cs.h, ws.den)
    groups = []
    for members in sets:
        lo = min(ws.load[v] for v in members)
        hi = max(ws.load[v] for v in members)
        for v in members:
            out.upper[v] = min(out.upper[v], hi)
            out.lower[v] = max(out.lower[v], lo)
        groups.append(tuple(sorted(members)))
    return groups, out


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
