"""h-clique enumeration, clique-core decomposition, and initial compactness bounds.

The clique list is materialized with stable lexicographic ids because the
weight-distribution state and the verification flow networks both index into
it. Enumeration walks the degeneracy-ordered DAG (edges oriented from earlier
to later in peeling order) with recursive neighborhood intersection.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import inf, nextafter
from typing import Iterable, Sequence

from .graph import Graph, degeneracy_order


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

    def led_by(self, v: int) -> range:
        """Ids of the cliques whose smallest member is v.

        A clique's smallest member comes first and the list is sorted, so
        they form one contiguous id range.
        """
        lo = bisect_left(self.cliques, (v,))
        return range(lo, bisect_left(self.cliques, (v + 1,), lo))

    def count_within(self, members: set[int]) -> int:
        """Number of cliques entirely inside ``members``; each is counted
        at its smallest member."""
        cliques = self.cliques
        inside = members.__contains__
        total = 0
        for v in members:
            for cid in self.led_by(v):
                if all(map(inside, cliques[cid])):
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
    (and hence ids) stays deterministic. When ``members`` covers every vertex
    the relabeling is the identity and ``cs`` itself is returned.
    """
    mlist = sorted(set(members))
    if len(mlist) == len(cs.degree):
        return cs
    pos = {v: i for i, v in enumerate(mlist)}
    get = pos.get
    cliques = cs.cliques
    kept: list[tuple[int, ...]] = []
    # each clique is met at its smallest member; walking members in order
    # keeps kept sorted
    for v in mlist:
        for cid in cs.led_by(v):
            mapped = tuple(map(get, cliques[cid]))
            if None not in mapped:
                kept.append(mapped)
    return _index_cliques(cs.h, kept, len(mlist))


def clique_core_numbers(g: Graph, cs: CliqueSet,
                        alive: Sequence[int] | None = None) -> list[int]:
    """Per-vertex h-clique-core numbers by minimum-clique-degree peeling.

    core[u] is the largest k such that u survives in the subgraph where every
    vertex lies in at least k live cliques. With an ``alive`` mask, only the
    vertices v with a true ``alive[v]`` take part: a clique with a dead member
    does not count, and dead vertices get core 0. Peeling runs over degree
    buckets (Batagelj and Zaversnik); core numbers do not depend on the order
    in which equal-degree vertices peel.
    """
    n = g.n
    cliques = cs.cliques
    incidence = cs.incidence
    deg = list(cs.degree)
    live = bytearray(b"\1") * len(cliques)
    if alive is None:
        verts: Sequence[int] = range(n)
    else:
        verts = [v for v in range(n) if alive[v]]
        for v in range(n):
            if alive[v]:
                continue
            for cid in incidence[v]:
                if live[cid]:
                    live[cid] = 0
                    for u in cliques[cid]:
                        deg[u] -= 1

    # vert lists the vertices by current degree; bin[d] is where degree d
    # starts in it and pos[v] is v's index
    top = max((deg[v] for v in verts), default=0)
    bin_ = [0] * (top + 2)
    for v in verts:
        bin_[deg[v] + 1] += 1
    for d in range(1, top + 2):
        bin_[d] += bin_[d - 1]
    pos = [0] * n
    vert = [0] * len(verts)
    fill = bin_[:]
    for v in verts:
        i = fill[deg[v]]
        fill[deg[v]] = i + 1
        pos[v] = i
        vert[i] = v

    for v in vert:
        dv = deg[v]
        for cid in incidence[v]:
            if not live[cid]:
                continue
            live[cid] = 0
            for u in cliques[cid]:
                du = deg[u]
                if du > dv:
                    # move u to the front of its bucket, then shrink the bucket
                    pu = pos[u]
                    pw = bin_[du]
                    w = vert[pw]
                    if w != u:
                        vert[pu] = w
                        pos[w] = pu
                        vert[pw] = u
                        pos[u] = pw
                    bin_[du] = pw + 1
                    deg[u] = du - 1
    return deg


@dataclass
class Bounds:
    """Per-vertex bounds on the h-clique compact number, as floats rounded
    outward: every upper bound is at or above the exact compact number and
    every lower bound at or below it.

    Core-derived bounds are rounded outward when they are seeded; bounds
    derived from approximate weight totals carry a drift allowance, applied
    at tightening time, that covers the round-off of the weight iteration.
    """

    upper: list[float]
    lower: list[float]

    def copy(self) -> "Bounds":
        return Bounds(upper=list(self.upper), lower=list(self.lower))


def _div_down(c: int, h: int) -> float:
    """The largest float at or below c / h."""
    q = c / h  # correctly rounded, so at most one float step off
    num, den = q.as_integer_ratio()
    return q if num * h <= c * den else nextafter(q, -inf)


def initialize_bounds(core: Sequence[int], h: int) -> Bounds:
    """Initial bounds from core numbers: upper = core, lower = core / h
    rounded down (core numbers themselves are exact as floats)."""
    return Bounds(upper=[float(c) for c in core],
                  lower=[_div_down(c, h) for c in core])
