"""Removal of vertices that provably belong to no locally densest subgraph.

Two rules, on an alive mask over the working graph: a vertex v falls when an
edge (u, v) has lower[u] strictly above upper[v], and, after recomputing
clique cores over the cliques whose members are all alive, when a vertex's
core drops below its own lower bound (repeated to a fixed point; removing a
vertex can only lower cores, so the fixed point is the largest vertex set on
which every core meets its lower bound). Bound comparisons leave one float
ulp of slack toward keeping: a missed removal only costs time, a wrong one
breaks exactness.
"""

from __future__ import annotations

import math

from .cliques import Bounds, BoundValue, CliqueSet, clique_core_numbers, \
    enumerate_cliques
from .cliques import restrict_cliques  # noqa: F401  (perfbench traces it here)
from .graph import Graph, VertexSet, induced_subgraph
from .proposal import CandidateGroup


def definitely_less(a: BoundValue, b: BoundValue) -> bool:
    """True when a < b by more than one float ulp (never fires on a tie)."""
    return float(a) < math.nextafter(float(b), -math.inf)


def prune(g: Graph, candidates: list[CandidateGroup], bounds: Bounds,
          h: int, cs: CliqueSet | None = None
          ) -> tuple[list[CandidateGroup], Graph, VertexSet]:
    """Drop provably invalid vertices out of g and out of every candidate.

    Returns the surviving candidates (empty ones removed), the pruned graph
    as an induced subgraph of g, and the sorted tuple of surviving vertex
    ids (in g's id space). Idempotent for unchanged bounds.
    """
    if cs is None:
        cs = enumerate_cliques(g, h)

    # definitely_less compares floats, so convert each bound once
    upper = [float(x) for x in bounds.upper]
    lower = [float(x) for x in bounds.lower]
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
    kept: list[CandidateGroup] = []
    for cand in candidates:
        vs = tuple(v for v in cand.vertices if alive[v])
        if vs:
            kept.append(CandidateGroup(vertices=vs, load_min=cand.load_min,
                                       load_max=cand.load_max))
    return kept, induced_subgraph(g, surviving), surviving
