"""Compact undirected graph: ingestion, induced subgraphs, components, peeling order.

Vertices are dense internal ids 0..n-1. External ids from input files are kept in
``labels`` and only matter at I/O boundaries. A Graph is immutable after
construction and safe for concurrent reads.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import IO, Iterable

log = logging.getLogger(__name__)

# A VertexSet is a sorted, duplicate-free tuple of internal vertex ids.
VertexSet = tuple[int, ...]


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with sorted neighbor lists.

    ``labels[i]`` is the external id of internal vertex ``i`` (identity when the
    graph was built programmatically). ``dropped_self_loops`` and
    ``dropped_duplicates`` count edges discarded during ingestion.
    """

    n: int
    m: int
    adj: tuple[VertexSet, ...]
    labels: tuple[int, ...] = field(default=())
    dropped_self_loops: int = 0
    dropped_duplicates: int = 0

    def __post_init__(self):
        if not self.labels:
            object.__setattr__(self, "labels", tuple(range(self.n)))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]],
                   labels: Iterable[int] | None = None) -> "Graph":
        """Build a graph on ``n`` vertices, dropping self-loops and duplicates."""
        nbrs: list[set[int]] = [set() for _ in range(n)]
        loops = dups = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                loops += 1
                continue
            if v in nbrs[u]:
                dups += 1
                continue
            nbrs[u].add(v)
            nbrs[v].add(u)
        adj = tuple(tuple(sorted(s)) for s in nbrs)
        m = sum(len(a) for a in adj) // 2
        return cls(n=n, m=m, adj=adj,
                   labels=tuple(labels) if labels is not None else (),
                   dropped_self_loops=loops, dropped_duplicates=dups)

    def has_edge(self, u: int, v: int) -> bool:
        a = self.adj[u]
        i = bisect_left(a, v)
        return i < len(a) and a[i] == v

    def degree(self, v: int) -> int:
        return len(self.adj[v])


def parse_edge_list(source: str | bytes | IO) -> Graph:
    """Parse a whitespace-separated edge list ("u v" per line) into a Graph.

    Lines starting with '#' or '%' are comments; blank lines are skipped.
    Self-loops and duplicate (or reversed-duplicate) edges are dropped with a
    counted warning. External ids are remapped to dense internal ids in
    ascending order and preserved in ``labels``.

    Raises ValueError with the offending line number on malformed input.
    """
    if isinstance(source, bytes):
        lines = source.decode("utf-8").splitlines()
    elif isinstance(source, str):
        lines = source.splitlines()
    else:
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        lines = data.splitlines()

    raw_edges: list[tuple[int, int]] = []
    ids: set[int] = set()
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped[0] in "#%":
            continue
        tokens = stripped.split()
        if len(tokens) != 2:
            raise ValueError(f"line {lineno}: expected 2 tokens, got {len(tokens)}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ValueError(f"line {lineno}: invalid token in {tokens!r}") from None
        ids.add(u)
        ids.add(v)
        raw_edges.append((u, v))

    labels = tuple(sorted(ids))
    index = {ext: i for i, ext in enumerate(labels)}
    g = Graph.from_edges(len(labels), ((index[u], index[v]) for u, v in raw_edges),
                         labels=labels)
    if g.dropped_self_loops or g.dropped_duplicates:
        log.warning("edge list: dropped %d self-loops and %d duplicate edges",
                    g.dropped_self_loops, g.dropped_duplicates)
    return g


def induced_subgraph(g: Graph, s: Iterable[int]) -> Graph:
    """Return G[S]. The subgraph's labels map back to g's external ids."""
    members = tuple(sorted(set(s)))
    if members and (members[0] < 0 or members[-1] >= g.n):
        raise ValueError(f"vertex id out of range for n={g.n}")
    pos = {v: i for i, v in enumerate(members)}
    adj = tuple(tuple(pos[w] for w in g.adj[v] if w in pos) for v in members)
    m = sum(len(a) for a in adj) // 2
    return Graph(n=len(members), m=m, adj=adj,
                 labels=tuple(g.labels[v] for v in members))


def connected_components(g: Graph, members: Iterable[int] | None = None
                         ) -> list[VertexSet]:
    """Partition ``members`` (default: all of V) into the maximal connected
    sets of g restricted to them, ordered by smallest member."""
    if members is None:
        starts: Iterable[int] = range(g.n)
        unseen = bytearray(b"\1") * g.n
    else:
        starts = sorted(set(members))
        unseen = bytearray(g.n)
        for v in starts:
            unseen[v] = 1
    comps: list[VertexSet] = []
    for start in starts:
        if not unseen[start]:
            continue
        unseen[start] = 0
        stack = [start]
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in g.adj[v]:
                if unseen[w]:
                    unseen[w] = 0
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


def degeneracy_order(g: Graph) -> list[int]:
    """Repeated minimum-degree peeling order, ties broken by smallest id.

    Deterministic: the same graph always yields the same permutation of 0..n-1.
    """
    deg = [len(g.adj[v]) for v in range(g.n)]
    heap: list[tuple[int, int]] = [(deg[v], v) for v in range(g.n)]
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
