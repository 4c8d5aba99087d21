"""Removal of vertices that provably belong to no locally densest subgraph.

Two rules, on an alive mask over the working graph: a vertex v falls when an
edge (u, v) has lower[u] strictly above upper[v] (checked once per vertex,
against its neighbours' largest lower bound), and a vertex falls when its
clique core among the alive vertices drops below its own lower bound
(repeated to a fixed point; removing a vertex can only lower cores, so the
fixed point is the largest vertex set on which every core meets its lower
bound). The second rule does not re-peel: it starts from the whole set's
core numbers, which the caller has already peeled, and lowers them only
where a removal reaches, by the h-index update of local core algorithms
(Montresor, De Pellegrini and Miorandi, IEEE TPDS 2013; Sariyuce, Seshadhri
and Pinar, PVLDB 2018). Bounds are exact integer numerators over
``bounds.den``, so each comparison is exact and a tie keeps the vertex.
"""

from __future__ import annotations

from itertools import chain, count
from operator import gt
from typing import Sequence

from .cliques import Bounds, CliqueSet
from .cliques import clique_core_numbers  # noqa: F401  (perfbench traces it here)
from .cliques import enumerate_cliques  # noqa: F401  (perfbench traces it here)
from .cliques import restrict_cliques  # noqa: F401  (perfbench traces it here)
from .graph import Graph, VertexSet
from .graph import induced_subgraph  # noqa: F401  (perfbench traces it here)


def definitely_less(a: int, b: int) -> bool:
    """Exact a < b on two bound numerators over one denominator (never fires
    on a tie). Both pruning rules compare through it."""
    return a < b


def prune(g: Graph, bounds: Bounds, cs: CliqueSet, core: Sequence[int]
          ) -> tuple[VertexSet, list[int]]:
    """The sorted ids of g's vertices that survive both rules, whose
    connected components are the pass's candidates, and each vertex's
    clique degree among them: ``degree[v]`` counts the instances of cs with
    every member a survivor, and is 0 for a vertex that fell. ``core`` is
    ``clique_core_numbers(cs)``. Idempotent for unchanged bounds.

    The cascade keeps ``est``, an upper bound on each alive vertex's core
    among the alive vertices, and ``dirty``, the alive vertices whose bound
    may have gone stale. H(v) is the largest k such that at least k live
    instances at v (those with every member alive) have all their other
    members at ``est >= k``. A dirty v gets ``est[v] = min(est[v], H(v))``
    and falls if that is below its lower bound; otherwise a co-member w
    with ``new < est[w] <= old`` may have lost an instance that counted
    towards its own H, and only those become dirty. A vertex that falls
    kills its live instances, and their alive members become dirty. This
    is exact:

    1. The cascade's result is the largest subset of the edge-rule
       survivors on which every vertex's core meets its lower bound. It is
       unique, because the union of two such sets is another such set. So
       any order of certain drops reaches it.
    2. Cores are a fixed point of H, and H is monotone. So ``est``, which
       starts at the whole set's cores, never falls below the true core
       among the alive vertices, and a drop made on ``est`` is certain.
    3. When nothing is dirty, ``est`` is a fixed point on the alive set.
       Any such fixed point is at most the core: ``{est >= k}`` has minimum
       live degree k, so it lies inside the k-core. So no survivor sits
       below its bound.
    4. Every instance is connected: h-cliques and all six 4-vertex patterns
       are. So a live instance lies inside one component of the survivors,
       and a survivor's live degree is its degree inside its candidate.
    5. The loop terminates, because each update lowers a non-negative
       integer.
    """
    upper, lower, den = bounds.upper, bounds.lower, bounds.den
    cliques, incidence, h = cs.cliques, cs.incidence, cs.h
    degree = list(cs.degree)
    est = list(core)
    alive = bytearray(b"\1") * g.n
    # one compare against the largest neighbouring lower bound decides the
    # edge rule: some edge fires iff the one with the largest lower[u] does
    lower_at = lower.__getitem__
    for v, nbrs in enumerate(g.adj):
        if nbrs and definitely_less(upper[v], max(map(lower_at, nbrs))):
            alive[v] = 0
        elif definitely_less(est[v] * den, lower[v]):  # the whole set's core
            alive[v] = 0

    live = bytearray(b"\1") * len(cliques)
    dirty: set[int] = set()

    def kill(v: int) -> None:
        for cid in incidence[v]:
            if live[cid]:
                live[cid] = 0
                for u in cliques[cid]:
                    degree[u] -= 1
                    dirty.add(u)

    for v in range(g.n):
        if not alive[v]:
            kill(v)
    at = est.__getitem__
    while dirty:
        v = dirty.pop()
        if not alive[v]:
            continue
        old = est[v]
        own = [cliques[cid] for cid in incidence[v] if live[cid]]
        est[v] = old + 1  # above every k that H(v) can reach, so min skips v
        it = map(at, chain.from_iterable(own))
        mins = sorted(map(min, zip(*[it] * h)), reverse=True)
        # with mins descending, mins[i] > i holds exactly for i < H(v)
        new = min(old, sum(map(gt, mins, count())))
        est[v] = new
        if new == old:
            continue
        if definitely_less(new * den, lower[v]):
            alive[v] = 0
            kill(v)
        else:
            dirty.update([w for c in own for w in c if new < est[w] <= old])
    return tuple(v for v in range(g.n) if alive[v]), degree
