"""Brute-force ground truth on tiny graphs for compactness and local density.

Everything here enumerates vertex subsets as bitmasks. Instance counts per
subset come from one sum-over-subsets pass, after which compactness of a
subset is a scan over its proper submasks, all in exact integer or rational
arithmetic. Hard caps on n keep the exponential blowup honest; this module
exists for tests and cross-checking only.

For n <= 12, ``compact_table`` is the one subset table: every mask's
instance count and every connected mask's compactness, each computed once.
Compact numbers and the enumeration (its candidates, superset scan and
self-check) both read it; ``compactness`` scores one full mask, n <= 15.

The generic "instances" entry points accept any list of vertex tuples
(h-cliques, 4-vertex pattern instances, plain edges), so every density
notion in the package shares one oracle. Each checks its cap before it
builds a table; the ``oracle_*`` wrappers check again before they list the
cliques, which on a large graph cost far more than the rejection.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .cliques import enumerate_cliques
from .graph import Graph, VertexSet

_COMPACTNESS_CAP = 15
_NUMBERS_CAP = 12


def _adj_masks(g: Graph) -> list[int]:
    masks = [0] * g.n
    for v in range(g.n):
        for w in g.adj[v]:
            masks[v] |= 1 << w
    return masks


def _instance_count_by_mask(n: int, instances: Sequence[tuple[int, ...]]) -> list[int]:
    """count[X] = number of instances whose vertices all lie inside mask X."""
    count = [0] * (1 << n)
    for inst in instances:
        m = 0
        for v in inst:
            m |= 1 << v
        count[m] += 1
    for b in range(n):
        bit = 1 << b
        for x in range(1 << n):
            if x & bit:
                count[x] += count[x ^ bit]
    return count


def _connected(adj: list[int], mask: int) -> bool:
    if mask == 0:
        return False
    start = mask & -mask
    seen = start
    frontier = start
    while frontier:
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            m ^= low
            nxt |= adj[low.bit_length() - 1]
        frontier = (nxt & mask) & ~seen
        seen |= frontier
    return seen == mask


def _compactness_of_mask(count: list[int], mask: int) -> Fraction:
    """min over non-empty removals S' of (instances lost) / |S'|, as the scan
    over proper submasks R = mask minus S'."""
    size = mask.bit_count()
    total = count[mask]
    best_num, best_den = None, 1
    sub = (mask - 1) & mask
    while True:
        lost = total - count[sub]
        removed = size - sub.bit_count()
        if best_num is None or lost * best_den < best_num * removed:
            best_num, best_den = lost, removed
        if sub == 0:
            break
        sub = (sub - 1) & mask
    return Fraction(best_num, best_den)


def compactness(g: Graph, instances: Sequence[tuple[int, ...]]) -> Fraction:
    """Largest rho such that removing any vertex subset kills at least
    rho times as many instances; requires g connected and n <= 15."""
    if g.n > _COMPACTNESS_CAP:
        raise ValueError(f"oracle compactness capped at n <= {_COMPACTNESS_CAP}")
    adj = _adj_masks(g)
    full = (1 << g.n) - 1
    if not _connected(adj, full):
        raise ValueError("compactness requires a connected graph")
    count = _instance_count_by_mask(g.n, instances)
    return _compactness_of_mask(count, full)


def compact_table(g: Graph, instances: Sequence[tuple[int, ...]]
                  ) -> tuple[list[int], dict[int, Fraction]]:
    """The subset table of g: ``count[X]`` is the number of instances inside
    mask X, and ``compact`` maps each connected mask, in increasing mask
    order, to its compactness. Requires n <= 12."""
    if g.n > _NUMBERS_CAP:
        raise ValueError(f"oracle subset table capped at n <= {_NUMBERS_CAP}")
    adj = _adj_masks(g)
    count = _instance_count_by_mask(g.n, instances)
    compact = {mask: _compactness_of_mask(count, mask)
               for mask in range(1, 1 << g.n) if _connected(adj, mask)}
    return count, compact


def _phi(n: int, compact: dict[int, Fraction]) -> list[Fraction]:
    """Each vertex's largest compactness over the connected masks holding it."""
    phi = [Fraction(0)] * n
    for mask, c in compact.items():
        for v in _mask_to_tuple(mask):
            if c > phi[v]:
                phi[v] = c
    return phi


def compact_numbers(g: Graph, instances: Sequence[tuple[int, ...]]) -> list[Fraction]:
    """Per-vertex largest rho over connected supersets: the compact number.
    Requires n <= 12."""
    return _phi(g.n, compact_table(g, instances)[1])


def lhcds_enumeration(g: Graph, instances: Sequence[tuple[int, ...]]
                      ) -> list[tuple[VertexSet, Fraction]]:
    """All locally densest subgraphs wrt the given instances, densest first.

    A connected S qualifies when its compactness equals its density, it holds
    at least one instance (clique-free connected sets are degenerate and
    excluded), and no connected strict superset is compact at that density.
    Internally asserts that every member's compact number equals the density.
    Requires n <= 12.
    """
    count, compact = compact_table(g, instances)
    full = (1 << g.n) - 1
    phi = _phi(g.n, compact)
    results: list[tuple[VertexSet, Fraction]] = []
    for mask, c in compact.items():
        if count[mask] == 0:
            continue
        density = Fraction(count[mask], mask.bit_count())
        if c != density:
            continue
        # maximality: no connected strict superset stays density-compact
        # (a mask missing from the table is not connected; density > 0)
        rest = full & ~mask
        sup = rest
        while sup and compact.get(mask | sup, 0) < density:
            sup = (sup - 1) & rest
        if sup:
            continue
        members = _mask_to_tuple(mask)
        for v in members:
            if phi[v] != density:
                raise RuntimeError(
                    f"oracle inconsistency: vertex {v} has compact number "
                    f"{phi[v]} inside a result of density {density}")
        results.append((members, density))
    results.sort(key=lambda item: (-item[1], item[0]))
    return results


def _mask_to_tuple(mask: int) -> VertexSet:
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return tuple(out)


def oracle_compactness(g: Graph, h: int) -> Fraction:
    """Exact h-clique compactness of a connected graph with n <= 15."""
    if g.n > _COMPACTNESS_CAP:
        raise ValueError(f"oracle compactness capped at n <= {_COMPACTNESS_CAP}")
    return compactness(g, enumerate_cliques(g, h).cliques)


def oracle_compact_numbers(g: Graph, h: int) -> list[Fraction]:
    """Exact per-vertex h-clique compact numbers for n <= 12."""
    if g.n > _NUMBERS_CAP:
        raise ValueError(f"oracle compact numbers capped at n <= {_NUMBERS_CAP}")
    return compact_numbers(g, enumerate_cliques(g, h).cliques)


def oracle_lhcds(g: Graph, h: int) -> list[tuple[VertexSet, Fraction]]:
    """Complete locally h-clique densest subgraph list for n <= 12."""
    if g.n > _NUMBERS_CAP:
        raise ValueError(f"oracle enumeration capped at n <= {_NUMBERS_CAP}")
    return lhcds_enumeration(g, enumerate_cliques(g, h).cliques)
