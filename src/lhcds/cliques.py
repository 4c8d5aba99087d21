"""h-clique enumeration, clique-core decomposition, and initial compactness bounds.

The clique list is materialized with stable lexicographic ids because the
weight-distribution state and the verification flow networks both index into
it. Enumeration orients each edge from its smaller id to its larger one:
``fwd[v]`` is the part of v's sorted neighbour list above v. Cliques of
every size come from recursive intersection of forward sets (kClist,
Danisch et al., 2018): at h = 2 each edge comes from its smaller endpoint,
and a triangle (v, w, x) closes the oriented edge (v, w) with each x in both
``fwd[v]`` and ``fwd[w]`` (Chiba and Nishizeki, 1985). Each clique is
listed once, as its increasing chain of ids.

Every intersection is set against set, and Python's ``&`` iterates the
smaller operand, so listing triangles costs the sum over edges (u, w) of
min(|fwd u|, |fwd w|). That is at most the sum of min(deg u, deg w), which
is at most 2 * arboricity * m (Chiba and Nishizeki), whatever the ids are.
Filtering a candidate list by membership instead would walk the whole list:
a hub with id 0 would cost its degree per incident edge.

The chain is increasing, the outer loops run over ascending ids, and every
candidate set is read in sorted order, so cliques come out internally sorted
and in lexicographic order; ``_index_cliques`` takes them as they are.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

from .graph import Graph, VertexSet, vertex_set


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

    def degrees_within(self, members: Sequence[int]) -> list[int]:
        """Clique degrees inside ``members`` (distinct vertices, any order):
        entry i counts the cliques that lie entirely inside ``members`` and
        contain ``members[i]``, so the degrees sum to h times the number of
        such cliques.
        Raises ValueError for an id outside 0..n-1 or a repeated one."""
        vs = vertex_set(members, len(self.degree))
        if len(vs) != len(members):
            raise ValueError("repeated vertex id")
        hits = Counter(chain.from_iterable(_cliques_inside(self, vs)))
        return [hits[v] for v in members]

    def count_within(self, members: Iterable[int]) -> int:
        """Number of cliques entirely inside ``members``. Raises ValueError
        for an id outside 0..n-1."""
        return len(_cliques_inside(self, vertex_set(members, len(self.degree))))


def _cliques_inside(cs: CliqueSet, vs: VertexSet) -> list[tuple[int, ...]]:
    """The cliques of cs lying entirely inside the VertexSet ``vs``, in id
    order: each is met once, at its smallest member, and walking the
    members in order keeps the ids increasing. A member in no clique leads
    none, so its range search is skipped."""
    cliques = cs.cliques
    inside = set(vs).__contains__
    degree = cs.degree
    kept: list[tuple[int, ...]] = []
    for v in vs:
        if degree[v]:
            span = cs.led_by(v)
            kept += [c for c in cliques[span.start:span.stop]
                     if all(map(inside, c))]
    return kept


def _index_cliques(h: int, cliques: list[tuple[int, ...]], n: int) -> CliqueSet:
    """Index an already sorted clique list; every producer emits it sorted."""
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
    out: list[tuple[int, ...]] = []
    fwd = [a[bisect_right(a, v):] for v, a in enumerate(g.adj)]
    fset = list(map(set, fwd))
    for v, fv in enumerate(fwd):
        if len(fv) >= h - 1:
            _extend(out, fset, h, (v,), fv, fset[v])
    return _index_cliques(h, out, g.n)


def _extend(out: list[tuple[int, ...]], fset: list[set[int]], h: int,
            prefix: tuple[int, ...], cand: Sequence[int],
            cset: set[int]) -> None:
    """Append to ``out`` every h-clique that extends ``prefix`` by members of
    ``cand``, the sorted ids of ``cset``. A module-level function, not a
    closure: a nested function that calls itself sits in a reference cycle
    that would keep ``out`` and ``fset`` alive until a full collection."""
    if len(prefix) == h - 1:
        out.extend([prefix + (v,) for v in cand])
        return
    need = h - len(prefix) - 1
    for v in cand:
        nset = cset & fset[v]
        if len(nset) >= need:
            _extend(out, fset, h, prefix + (v,), sorted(nset), nset)


def restrict_cliques(cs: CliqueSet, members: Iterable[int]) -> CliqueSet:
    """Cliques of cs lying entirely inside ``members``, relabeled to 0..k-1.

    Relabeling follows the sorted member order, so lexicographic clique order
    (and hence ids) stays deterministic. When ``members`` covers every vertex
    the relabeling is the identity and ``cs`` itself is returned. Raises
    ValueError for an id outside 0..n-1.
    """
    mlist = vertex_set(members, len(cs.degree))
    if len(mlist) == len(cs.degree):
        return cs
    local = {v: i for i, v in enumerate(mlist)}.__getitem__
    kept = [tuple(map(local, c)) for c in _cliques_inside(cs, mlist)]
    return _index_cliques(cs.h, kept, len(mlist))


def onto_support(cs: CliqueSet) -> tuple[VertexSet, CliqueSet]:
    """The clique support (the ids of the vertices in some clique, sorted)
    and cs relabelled onto it: support member i becomes vertex i.

    The relabel is monotone, so every clique stays internally sorted, the
    list stays in lexicographic order and each clique keeps its id; degrees
    and incidence lists carry over. Clique tuples are rewritten in place,
    so cs itself must not be used afterwards. When the support is every
    vertex, cs is returned as it is.
    """
    sup = tuple(v for v, d in enumerate(cs.degree) if d)
    if len(sup) == len(cs.degree):
        return sup, cs
    local = [0] * len(cs.degree)
    for i, v in enumerate(sup):
        local[v] = i
    to_local = local.__getitem__
    cliques = cs.cliques
    for cid, c in enumerate(cliques):
        cliques[cid] = tuple(map(to_local, c))
    return sup, CliqueSet(h=cs.h, cliques=cliques,
                          degree=[cs.degree[v] for v in sup],
                          incidence=[cs.incidence[v] for v in sup])


def clique_core_numbers(cs: CliqueSet,
                        alive: Sequence[int] | None = None) -> list[int]:
    """Per-vertex h-clique-core numbers by minimum-clique-degree peeling.

    core[u] is the largest k such that u survives in the subgraph where every
    vertex lies in at least k live cliques. With an ``alive`` mask, only the
    vertices v with a true ``alive[v]`` take part: a clique with a dead member
    does not count, and dead vertices get core 0. ``buckets[d]`` lists each
    vertex whose clique degree became d, at the start or after a decrement,
    and d runs upward: an entry whose degree has fallen since is stale and is
    skipped. Degrees only fall, and never below the level being peeled, so a
    vertex is taken once, at its final degree, and the buckets hold at most
    n + (h-1) * |cliques| entries. Core numbers do not depend on the order in
    which equal-degree vertices peel.
    """
    n = len(cs.degree)
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

    top = max((deg[v] for v in verts), default=0)
    buckets: list[list[int]] = [[] for _ in range(top + 1)]
    for v in verts:
        buckets[deg[v]].append(v)
    for d, bucket in enumerate(buckets):
        for v in bucket:  # also reads the entries appended while it runs
            if deg[v] != d:
                continue
            for cid in incidence[v]:
                if not live[cid]:
                    continue
                live[cid] = 0
                for u in cliques[cid]:
                    du = deg[u]
                    if du > d:
                        deg[u] = du - 1
                        buckets[du - 1].append(u)
    return deg


@dataclass
class Bounds:
    """Per-vertex bounds on the h-clique compact number, as exact integer
    numerators over the one denominator ``den``: ``lower[u] / den`` is at or
    below u's compact number and ``upper[u] / den`` at or above it."""

    upper: list[int]
    lower: list[int]
    den: int


def initialize_bounds(core: Sequence[int], h: int, den: int) -> Bounds:
    """Initial bounds from core numbers over ``den``: upper = core, lower =
    core / h rounded down to a multiple of 1/den, which is exact when h
    divides ``den`` (it divides every weight state's)."""
    return Bounds(upper=[c * den for c in core],
                  lower=[c * den // h for c in core], den=den)
