"""Removal of vertices that provably belong to no locally densest subgraph.

Two rules, on an alive mask over the working graph: a vertex v falls when an
edge (u, v) has lower[u] strictly above upper[v] (checked once per vertex,
against its neighbours' largest lower bound), and, after recomputing
clique cores over the cliques whose members are all alive, when a vertex's
core drops below its own lower bound (repeated to a fixed point; removing a
vertex can only lower cores, so the fixed point is the largest vertex set on
which every core meets its lower bound). Bounds are exact integer numerators
over ``bounds.den``, so each comparison is exact and a tie keeps the vertex.
"""

from __future__ import annotations

from .cliques import Bounds, CliqueSet, clique_core_numbers
from .cliques import enumerate_cliques  # noqa: F401  (perfbench traces it here)
from .cliques import restrict_cliques  # noqa: F401  (perfbench traces it here)
from .graph import Graph, VertexSet
from .graph import induced_subgraph  # noqa: F401  (perfbench traces it here)


def definitely_less(a: int, b: int) -> bool:
    """Exact a < b on two bound numerators over one denominator (never fires
    on a tie). Both pruning rules compare through it."""
    return a < b


def prune(g: Graph, bounds: Bounds, cs: CliqueSet) -> VertexSet:
    """Sorted ids of g's vertices that survive both rules, whose connected
    components are the pass's candidates. Idempotent for unchanged bounds."""
    upper, lower, den = bounds.upper, bounds.lower, bounds.den
    alive = bytearray(b"\1") * g.n
    # one compare against the largest neighbouring lower bound decides the
    # edge rule: some edge fires iff the one with the largest lower[u] does
    lower_at = lower.__getitem__
    for v, nbrs in enumerate(g.adj):
        if nbrs and definitely_less(upper[v], max(map(lower_at, nbrs))):
            alive[v] = 0

    # cascade: recompute cores among survivors until no vertex sits below
    # its own lower bound
    while True:
        core = clique_core_numbers(cs, alive)
        dropped = False
        for v in range(g.n):
            if alive[v] and definitely_less(core[v] * den, lower[v]):
                alive[v] = 0
                dropped = True
        if not dropped:
            break

    return tuple(v for v in range(g.n) if alive[v])
