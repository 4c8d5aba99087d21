"""Removal of vertices that provably belong to no locally densest subgraph.

Two rules, on an alive mask over the working graph: a vertex v falls when an
edge (u, v) has lower[u] strictly above upper[v], and, after recomputing
clique cores over the cliques whose members are all alive, when a vertex's
core drops below its own lower bound (repeated to a fixed point; removing a
vertex can only lower cores, so the fixed point is the largest vertex set on
which every core meets its lower bound). Bounds are already rounded outward;
each comparison still leaves one float ulp of slack toward keeping, as a
margin: a missed removal only costs time, a wrong one breaks exactness.
"""

from __future__ import annotations

import math

from .cliques import Bounds, CliqueSet, clique_core_numbers
from .cliques import enumerate_cliques  # noqa: F401  (perfbench traces it here)
from .cliques import restrict_cliques  # noqa: F401  (perfbench traces it here)
from .graph import Graph, VertexSet
from .graph import induced_subgraph  # noqa: F401  (perfbench traces it here)


def definitely_less(a: float, b: float) -> bool:
    """True when a < b by more than one float ulp (never fires on a tie)."""
    return a < math.nextafter(b, -math.inf)


def prune(g: Graph, groups: list[VertexSet], bounds: Bounds, cs: CliqueSet
          ) -> tuple[list[VertexSet], VertexSet]:
    """Drop provably invalid vertices out of g and out of every group.

    Returns the surviving groups (empty ones removed) and the sorted tuple
    of surviving vertex ids. Idempotent for unchanged bounds.
    """
    upper, lower = bounds.upper, bounds.lower
    alive = bytearray(b"\1") * g.n
    for v in range(g.n):
        uv = upper[v]
        for u in g.adj[v]:
            if definitely_less(uv, lower[u]):
                alive[v] = 0
                break

    # cascade: recompute cores among survivors until no vertex sits below
    # its own lower bound
    while True:
        core = clique_core_numbers(g, cs, alive)
        dropped = False
        for v in range(g.n):
            if alive[v] and definitely_less(core[v], lower[v]):
                alive[v] = 0
                dropped = True
        if not dropped:
            break

    surviving = tuple(v for v in range(g.n) if alive[v])
    kept: list[VertexSet] = []
    for grp in groups:
        vs = tuple(v for v in grp if alive[v])
        if vs:
            kept.append(vs)
    return kept, surviving
