"""Candidate proposal: tentative decomposition, stable groups, bound tightening.

The working graph's vertices are sorted by descending load and cut at every
prefix length whose h-clique density strictly beats all longer prefixes
(ties keep the longest prefix, so equal-density extensions never split).
Cliques spanning several blocks get their weight reassigned into the last
block they touch, after which consecutive blocks are greedily merged until
they form stable groups: blocks separated from the rest in load, where no
clique puts weight on a heavier outside vertex (the reassignment makes
sure that no clique reaching a lighter one puts weight on the group; see
``derive_stable_groups``). Stable groups bound every member's compact
number by the group's load range.

Every step reads its instances from the weight state ``ws.cs``. Shares,
loads and bounds here are exact integer numerators over the state's one
denominator ``ws.den``, so every comparison is exact. The driver runs the
proposal only for patterns other than the 4-clique; clique queries take
their bounds from clique cores alone.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, compress, count
from operator import itemgetter, ne
from typing import Sequence

from .cliques import Bounds, initialize_bounds
from .graph import VertexSet
from .weights import WeightState


@dataclass
class Partition:
    """Disjoint vertex blocks covering the working graph, by descending load
    at sort time. ``spanning`` lists, in ascending order, the ids of the
    cliques whose members lie in two or more blocks; every other clique lies
    wholly inside one block."""

    groups: list[VertexSet]
    spanning: list[int]


def tentative_decomposition(ws: WeightState) -> Partition:
    """Partition by load-descending prefix-density records and reassign weight.

    Vertices are sorted by descending exact load, ties by ascending id. Cut
    positions are the prefix lengths q whose density (cliques fully inside
    the first q vertices, over q) strictly exceeds the density of every
    longer prefix; the comparison is exact integer arithmetic. For each
    clique spanning multiple blocks, the weight its members hold outside
    the last touched block is zeroed and redistributed equally among its
    members inside that block, and only those members' loads change; ws's
    shares and loads are updated in place, so each load stays the sum of
    its shares. The split is exact: every share is a multiple of
    lcm(1..h-1), which the count of inside members divides.

    Blocks are contiguous runs of the load order, so a clique spans blocks
    iff its first and last members in that order lie in different blocks,
    and the block of its last member is the last block it touches. Both
    positions come from ``min``/``max`` mapped over lazy per-position
    columns of sort positions, so only the spanning cliques are visited one
    by one.
    """
    cliques = ws.cs.cliques
    h = ws.cs.h
    share = ws.share
    load = ws.load
    n = len(load)
    # descending load, ties by ascending id: a reverse sort keeps equal keys
    # in input order
    order = sorted(range(n), key=load.__getitem__, reverse=True)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i

    def columns():
        return [map(pos.__getitem__, map(itemgetter(i), cliques))
                for i in range(h)]

    # each clique is counted into the prefix where its last member enters
    last = list(map(max, *columns()))
    by_last = Counter(last)
    prefix_count = [0, *accumulate(map(by_last.__getitem__, range(n)))]

    # right-to-left strict density records: d[q] > d[q'] for every q' > q
    cuts: list[int] = []
    best_num, best_den = -1, 1  # running max density over longer prefixes
    for q in range(n, 0, -1):
        if prefix_count[q] * best_den > best_num * q:
            cuts.append(q)
            best_num, best_den = prefix_count[q], q
    cuts.reverse()

    groups: list[VertexSet] = []
    block_at = [0] * n  # block index of each sort position
    start = 0
    for gi, cut in enumerate(cuts):
        groups.append(tuple(sorted(order[start:cut])))
        block_at[start:cut] = [gi] * (cut - start)
        start = cut

    block = block_at.__getitem__
    spanning = list(compress(count(), map(
        ne, map(block, map(min, *columns())), map(block, last))))
    for cid in spanning:
        last_block = block_at[last[cid]]
        base = cid * h
        members = cliques[cid]
        inside = []
        moved = 0
        for i, v in enumerate(members):
            if block_at[pos[v]] == last_block:
                inside.append(i)
            else:
                x = share[base + i]
                moved += x
                load[v] -= x
                share[base + i] = 0
        add = moved // len(inside)
        for i in inside:
            share[base + i] += add
            load[members[i]] += add
    return Partition(groups=groups, spanning=spanning)


def derive_stable_groups(partition: Partition, ws: WeightState,
                         core: Sequence[int]) -> tuple[list[VertexSet], Bounds]:
    """Greedily merge consecutive blocks into stable groups and tighten the
    bounds ``initialize_bounds(core, h, ws.den)`` of the clique cores.

    ``partition`` must be ``tentative_decomposition(ws)`` of this same
    ``ws``. For every member u of a stable group: upper[u] shrinks to the
    group's maximum exact load and lower[u] grows to its minimum.
    Tightening never widens an interval. Groups are returned in the
    partition's descending-load order.

    A group G with load range [lo, hi] is stable (Danisch, Chan and Sozio,
    WWW 2017, carried over to h-cliques) when (1) it is separated: the
    vertices with load in [lo, hi] are exactly its members; (2) no clique
    puts weight on an outside vertex heavier than hi; and (3) no clique
    that reaches an outside vertex lighter than lo puts weight on G.
    Separation is tested first, by bisect on the sorted loads. Only a merge
    that passes it scans the partition's spanning cliques that touch it
    for (2). Every other clique the group touches lies inside one block,
    hence wholly inside the group, and has no outside member.

    (3) never decides on this partition. After the reassignment a spanning
    clique has weight only on its members in its last block: those shares
    start at (1+h*c)*lcm(1..h-1) > 0 and only grow, and its other shares
    are 0. Say G passed separation and a clique C puts weight on a member
    u of G and touches an outside w with load[w] < lo. C's last block holds
    u, so it lies inside G, and w's block comes before G. That block
    belongs to a group G' that has already closed and is still in ``sets``,
    in the forward pass and in the backward merge alike. G' passed
    separation too, and the two groups share no vertex, so each range holds
    no load of the other group; with lo' <= load[w] < lo that gives
    hi' < lo <= load[u]. So C, a spanning clique touching G' through w,
    puts weight on u above hi', and G' failed (2), which contradicts its
    closing. On a hand-built partition whose shares were not reassigned,
    (3) can decide, and this function may close a group that fails it.
    """
    cliques = ws.cs.cliques
    h = ws.cs.h
    out = initialize_bounds(core, h, ws.den)
    load = ws.load
    share = ws.share
    all_loads = sorted(load)

    def stable(members: list[int], lo: int, hi: int) -> bool:
        # (1): vertices with load in [lo, hi] must be exactly the members
        in_range = bisect_right(all_loads, hi) - bisect_left(all_loads, lo)
        if in_range != len(members):
            return False
        # (2): no spanning clique that touches the group puts weight above
        # hi (a vertex there is never a member)
        member_set = set(members)
        for cid in partition.spanning:
            clique = cliques[cid]
            if member_set.isdisjoint(clique):
                continue
            base = cid * h
            for i, w in enumerate(clique):
                if load[w] > hi and share[base + i]:
                    return False
        return True

    sets: list[tuple[list[int], int, int]] = []
    acc: list[int] = []
    lo = hi = 0
    for block in partition.groups:
        if not acc:
            lo = hi = load[block[0]]
        for v in block:
            lv = load[v]
            if lv < lo:
                lo = lv
            elif lv > hi:
                hi = lv
        acc += block
        if stable(acc, lo, hi):
            sets.append((acc, lo, hi))
            acc = []
    # Weight reassignment can lift a trailing vertex's load above an earlier
    # group's range, leaving the tail unstable with nothing ahead to merge.
    # Merge backward instead; the whole working set is vacuously stable, so
    # this terminates.
    while acc:
        if stable(acc, lo, hi):
            sets.append((acc, lo, hi))
            break
        prev, plo, phi = sets.pop()
        acc = prev + acc
        lo = min(lo, plo)
        hi = max(hi, phi)

    groups: list[VertexSet] = []
    for members, lo, hi in sets:
        candidate = tuple(sorted(members))
        for v in candidate:
            if hi < out.upper[v]:
                out.upper[v] = hi
            if lo > out.lower[v]:
                out.lower[v] = lo
        groups.append(candidate)
    return groups, out
