"""h-clique enumeration, clique-core decomposition, and initial compactness bounds.

The clique list is materialized with stable lexicographic ids because the
weight-distribution state and the verification flow networks both index into
it. Enumeration walks the degeneracy-ordered DAG (edges oriented from earlier
to later in peeling order) with recursive neighborhood intersection.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from typing import Iterable, Sequence

from .graph import Graph, degeneracy_order

BoundValue = Fraction | float


@dataclass
class CliqueSet:
    """All h-cliques of a host graph, as internally-sorted vertex tuples.

    ``cliques`` is sorted lexicographically and free of duplicates; the clique
    id is the list index. ``degree[v]`` counts cliques containing v and
    ``incidence[v]`` lists their ids in ascending order. Immutable by
    convention once built.
    """

    h: int
    cliques: list[tuple[int, ...]]
    degree: list[int]
    incidence: list[list[int]]

    def count_within(self, members: set[int]) -> int:
        """Number of cliques entirely inside ``members``."""
        seen: set[int] = set()
        total = 0
        for v in members:
            for cid in self.incidence[v]:
                if cid in seen:
                    continue
                seen.add(cid)
                if all(u in members for u in self.cliques[cid]):
                    total += 1
        return total


def _index_cliques(h: int, cliques: list[tuple[int, ...]], n: int) -> CliqueSet:
    cliques.sort()
    degree = [0] * n
    incidence: list[list[int]] = [[] for _ in range(n)]
    for cid, clique in enumerate(cliques):
        for v in clique:
            degree[v] += 1
            incidence[v].append(cid)
    return CliqueSet(h=h, cliques=cliques, degree=degree, incidence=incidence)


def enumerate_cliques(g: Graph, h: int) -> CliqueSet:
    """Enumerate every h-clique of g exactly once (h=2 yields the edge set)."""
    if h < 2:
        raise ValueError(f"clique size must be >= 2, got {h}")
    rank = [0] * g.n
    for i, v in enumerate(degeneracy_order(g)):
        rank[v] = i
    succ = [tuple(w for w in g.adj[v] if rank[w] > rank[v]) for v in range(g.n)]

    out: list[tuple[int, ...]] = []
    if h == 2:
        for v in range(g.n):
            for w in g.adj[v]:
                if v < w:
                    out.append((v, w))
        return _index_cliques(2, out, g.n)

    def extend(prefix: list[int], cand: Sequence[int]) -> None:
        if len(prefix) == h - 1:
            for v in cand:
                out.append(tuple(sorted(prefix + [v])))
            return
        for v in cand:
            nxt = [w for w in cand if w in succ_sets[v]]
            # the DAG orientation emits each clique once, as its rank-ordered chain
            if len(prefix) + 1 + len(nxt) >= h:
                extend(prefix + [v], nxt)

    succ_sets = [set(s) for s in succ]
    for v in range(g.n):
        if len(succ[v]) >= h - 1:
            extend([v], list(succ[v]))
    return _index_cliques(h, out, g.n)


def restrict_cliques(cs: CliqueSet, members: Iterable[int]) -> CliqueSet:
    """Cliques of cs lying entirely inside ``members``, relabeled to 0..k-1.

    Relabeling follows the sorted member order, so lexicographic clique order
    (and hence ids) stays deterministic.
    """
    mlist = sorted(set(members))
    pos = {v: i for i, v in enumerate(mlist)}
    seen: set[int] = set()
    kept: list[tuple[int, ...]] = []
    for v in mlist:
        for cid in cs.incidence[v]:
            if cid in seen:
                continue
            seen.add(cid)
            clique = cs.cliques[cid]
            if all(u in pos for u in clique):
                kept.append(tuple(pos[u] for u in clique))
    return _index_cliques(cs.h, kept, len(mlist))


def clique_core_numbers(g: Graph, cs: CliqueSet) -> list[int]:
    """Per-vertex h-clique-core numbers by minimum-clique-degree peeling.

    core[u] is the largest k such that u survives in the subgraph where every
    vertex lies in at least k live cliques. Ties peel smallest id first.
    """
    deg = list(cs.degree)
    alive_clique = [True] * len(cs.cliques)
    removed = [False] * g.n
    core = [0] * g.n
    heap = [(deg[v], v) for v in range(g.n)]
    heap.sort()
    level = 0
    while heap:
        d, v = heappop(heap)
        if removed[v] or d != deg[v]:
            continue
        removed[v] = True
        level = max(level, d)
        core[v] = level
        for cid in cs.incidence[v]:
            if not alive_clique[cid]:
                continue
            alive_clique[cid] = False
            for u in cs.cliques[cid]:
                if not removed[u]:
                    deg[u] -= 1
                    heappush(heap, (deg[u], u))
    return core


@dataclass
class Bounds:
    """Per-vertex bounds on the h-clique compact number.

    Values are exact Fractions when derived from core numbers and floats when
    derived from approximate weight totals; floats carry a small drift
    allowance applied at tightening time so that the stored interval stays
    sound for the exact compact number. Mixed comparisons in Python are exact
    (floats are dyadic rationals).
    """

    upper: list[BoundValue]
    lower: list[BoundValue]

    def copy(self) -> "Bounds":
        return Bounds(upper=list(self.upper), lower=list(self.lower))


def initialize_bounds(core: Sequence[int], h: int) -> Bounds:
    """Initial bounds from core numbers: upper = core, lower = core / h."""
    upper: list[BoundValue] = [Fraction(c) for c in core]
    lower: list[BoundValue] = [Fraction(c, h) for c in core]
    return Bounds(upper=upper, lower=lower)
