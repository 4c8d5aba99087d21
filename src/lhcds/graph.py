"""Compact undirected graph: ingestion, induced subgraphs, connected components.

``reach`` is the one breadth-first walk, over whatever steps its caller
gives: ``connected_components`` runs it over edges from each unvisited
member, and ``flow.verify_fast`` grows its bound-guided expansion with it,
first over edges and then over edges and live instances.

Vertices are dense internal ids 0..n-1. External ids from input files are kept in
``labels`` and only matter at I/O boundaries. A Graph is immutable after
construction and safe for concurrent reads.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from itertools import chain, islice
from operator import lt
from typing import IO, Callable, Iterable

log = logging.getLogger(__name__)
_ASCII_INT = re.compile(r"[+-]?[0-9]+")

# A VertexSet is a sorted, duplicate-free tuple of internal vertex ids.
VertexSet = tuple[int, ...]


def vertex_set(ids: Iterable[int], n: int) -> VertexSet:
    """``ids`` as a VertexSet of a graph on n vertices. Raises ValueError for
    an id outside 0..n-1: a negative one would alias a vertex from the end."""
    members = tuple(sorted(set(ids)))
    if members and (members[0] < 0 or members[-1] >= n):
        raise ValueError(f"vertex id out of range for n={n}")
    return members


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with sorted neighbor lists.

    ``labels[i]`` is the external id of internal vertex ``i`` (identity when
    none are given). ``dropped_self_loops`` and ``dropped_duplicates`` count
    edges discarded during ingestion.
    """

    n: int
    m: int
    adj: tuple[VertexSet, ...]
    labels: tuple[int, ...] | None = None
    dropped_self_loops: int = 0
    dropped_duplicates: int = 0

    def __post_init__(self):
        if self.n < 0 or len(self.adj) != self.n:
            raise ValueError(f"n={self.n} with {len(self.adj)} adjacency lists")
        if self.labels is None:
            object.__setattr__(self, "labels", tuple(range(self.n)))
        elif len(self.labels) != self.n:
            raise ValueError(f"{len(self.labels)} labels for n={self.n}")
        elif not all(map(lt, self.labels, islice(self.labels, 1, None))) \
                and len(set(self.labels)) != self.n:
            # increasing labels (as parsed) are distinct; skipping the set
            # keeps it off the parse's peak memory
            raise ValueError("labels repeat an external id")

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
                   labels=tuple(labels) if labels is not None else None,
                   dropped_self_loops=loops, dropped_duplicates=dups)


def parse_edge_list(source: str | bytes | IO) -> Graph:
    """Parse a whitespace-separated edge list ("u v" per line) into a Graph.

    Lines starting with '#' or '%' are comments; blank lines are skipped.
    Self-loops and duplicate (or reversed-duplicate) edges are dropped with a
    counted warning. External ids are remapped to dense internal ids in
    ascending order and preserved in ``labels``.

    An id is a decimal integer (ASCII digits with an optional sign) read by
    value, so ``007``, ``+7`` and ``7`` name one vertex, labelled 7.
    Raises ValueError with the line number of the first malformed line.
    """
    data = source if isinstance(source, (str, bytes)) else source.read()
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    # int() also reads "1_0" as 10 and non-ASCII digits, which would merge
    # distinct ids; tokens are matched only when the text holds either
    match_tokens = "_" in text or not text.isascii()
    raw_edges: list[tuple[int, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens or tokens[0][0] in "#%":
            continue
        if len(tokens) != 2:
            raise ValueError(f"line {lineno}: expected 2 tokens, got {len(tokens)}")
        try:
            if match_tokens and not all(map(_ASCII_INT.fullmatch, tokens)):
                raise ValueError
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ValueError(f"line {lineno}: invalid token in {tokens!r}") from None
        raw_edges.append((u, v))

    labels = tuple(sorted(set(chain.from_iterable(raw_edges))))
    index = {ext: i for i, ext in enumerate(labels)}
    g = Graph.from_edges(len(labels), ((index[u], index[v]) for u, v in raw_edges),
                         labels=labels)
    if g.dropped_self_loops or g.dropped_duplicates:
        log.warning("edge list: dropped %d self-loops and %d duplicate edges",
                    g.dropped_self_loops, g.dropped_duplicates)
    return g


def induced_subgraph(g: Graph, s: Iterable[int]) -> Graph:
    """Return G[S], or g itself when S covers every vertex. The subgraph's
    labels map back to g's external ids."""
    members = vertex_set(s, g.n)
    if len(members) == g.n:
        return g
    pos = {v: i for i, v in enumerate(members)}
    adj = tuple(tuple(pos[w] for w in g.adj[v] if w in pos) for v in members)
    m = sum(len(a) for a in adj) // 2
    return Graph(n=len(members), m=m, adj=adj,
                 labels=tuple(g.labels[v] for v in members))


def reach(steps: Callable[[int], Iterable[int]], seeds: Iterable[int],
          admit: Callable[[int], bool]) -> list[int]:
    """The seeds in the order given, then every vertex that a path of steps
    through vertices accepted by ``admit`` reaches from them, in
    breadth-first order; ``steps(v)`` yields the vertices one step from v
    (``g.adj.__getitem__`` walks g's edges). Each vertex is listed once.
    ``admit`` is asked at most once about each vertex, and never about a
    seed."""
    order = list(dict.fromkeys(seeds))
    seen = set(order)
    for v in order:
        for w in steps(v):
            if w not in seen:
                seen.add(w)
                if admit(w):
                    order.append(w)
    return order


def connected_components(g: Graph, members: Iterable[int] | None = None
                         ) -> list[VertexSet]:
    """Partition ``members`` (default: all of V) into the maximal connected
    sets of g restricted to them, ordered by smallest member. Raises
    ValueError for a member outside 0..n-1."""
    starts = range(g.n) if members is None else vertex_set(members, g.n)
    left = set(starts)
    comps: list[VertexSet] = []
    for start in starts:
        if start in left:
            comp = reach(g.adj.__getitem__, (start,), left.__contains__)
            left.difference_update(comp)
            comps.append(tuple(sorted(comp)))
    return comps
