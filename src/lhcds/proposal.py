"""Candidate proposal: tentative decomposition, stable groups, bound tightening.

The working graph's vertices are sorted by descending load and cut at every
prefix length whose h-clique density strictly beats all longer prefixes
(ties keep the longest prefix, so equal-density extensions never split).
Cliques spanning several blocks get their weight reassigned into the last
block they touch, after which consecutive blocks are greedily merged until
they form stable groups: blocks separated from the rest in load, whose
boundary cliques carry exactly zero weight across the boundary. Stable
groups bound every member's compact number by the group's load range.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .cliques import Bounds, CliqueSet
from .graph import Graph, VertexSet
from .weights import WeightState

# Drift allowance baked into load-derived bounds at tightening time, so the
# stored interval stays sound for the exact compact number despite float
# round-off in the weight iteration (see Bounds docstring).
_DRIFT = 1e-9


def _pad(x: float) -> float:
    return _DRIFT * (1.0 + abs(x))


@dataclass
class Partition:
    """Disjoint vertex blocks covering the working graph, by descending load
    at sort time. ``order`` is the full sorted vertex sequence."""

    groups: list[VertexSet]
    order: list[int]


def tentative_decomposition(g: Graph, cs: CliqueSet,
                            ws: WeightState) -> tuple[Partition, WeightState]:
    """Partition by load-descending prefix-density records and reassign weight.

    Cut positions are the prefix lengths q whose density (cliques fully inside
    the first q vertices, over q) strictly exceeds the density of every longer
    prefix; the comparison is exact integer arithmetic. For each clique
    spanning multiple blocks, the weight its members hold outside the last
    touched block is zeroed (exact zeros) and redistributed equally among its
    members inside that block; loads are then recomputed from the shares.
    """
    n = g.n
    order = sorted(range(n), key=lambda v: (-ws.load[v], v))
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i

    # cliques counted into the prefix where their last member (by sort
    # position) enters: O(n + |cliques|) total
    by_last = [0] * (n + 1)
    for members in cs.cliques:
        last = max(pos[v] for v in members)
        by_last[last + 1] += 1
    prefix_count = [0] * (n + 1)
    for q in range(1, n + 1):
        prefix_count[q] = prefix_count[q - 1] + by_last[q]

    # right-to-left strict density records: d[q] > d[q'] for every q' > q
    cuts: list[int] = []
    best_num, best_den = -1, 1  # running max density over longer prefixes
    for q in range(n, 0, -1):
        if prefix_count[q] * best_den > best_num * q:
            cuts.append(q)
            best_num, best_den = prefix_count[q], q
    cuts.reverse()

    groups: list[VertexSet] = []
    group_of = [0] * n
    start = 0
    for gi, cut in enumerate(cuts):
        block = tuple(sorted(order[start:cut]))
        groups.append(block)
        for v in order[start:cut]:
            group_of[v] = gi
        start = cut

    for cid, members in enumerate(cs.cliques):
        last_group = max(group_of[v] for v in members)
        inside = [i for i, v in enumerate(members) if group_of[v] == last_group]
        if len(inside) == len(members):
            continue
        row = ws.share[cid]
        moved = 0.0
        for i, v in enumerate(members):
            if group_of[v] != last_group:
                moved += row[i]
                row[i] = 0.0
        add = moved / len(inside)
        for i in inside:
            row[i] += add

    load = [0.0] * n
    for cid, members in enumerate(cs.cliques):
        row = ws.share[cid]
        for i, v in enumerate(members):
            load[v] += row[i]
    ws.load = load
    return Partition(groups=groups, order=order), ws


def _share_conditions_ok(members: set[int], lo: float, hi: float,
                         ws: WeightState, cs: CliqueSet) -> bool:
    """Def conditions (2)/(3): no weight crosses the candidate's boundary."""
    load = ws.load
    checked: set[int] = set()
    for v in members:
        for cid in cs.incidence[v]:
            if cid in checked:
                continue
            checked.add(cid)
            clique = cs.cliques[cid]
            row = ws.share[cid]
            low_checked = False
            for i, w in enumerate(clique):
                if w in members:
                    continue
                if load[w] > hi:
                    if row[i] != 0.0:
                        return False
                elif not low_checked:  # load[w] < lo by condition (1)
                    for j, u in enumerate(clique):
                        if u in members and row[j] != 0.0:
                            return False
                    low_checked = True
    return True


def derive_stable_groups(partition: Partition, ws: WeightState, cs: CliqueSet,
                         bounds: Bounds) -> tuple[list[VertexSet], Bounds]:
    """Greedily merge consecutive blocks into stable groups and tighten bounds.

    For every member u of a stable group: upper[u] shrinks to the group's
    maximum load and lower[u] grows to its minimum load (both carry the
    drift allowance). Tightening never widens an interval. Groups are
    returned in the partition's descending-load order.
    """
    out = bounds.copy()
    load = ws.load
    all_loads = sorted(load[v] for v in partition.order)

    def stable(member_set: set[int], lo: float, hi: float) -> bool:
        # separation first: vertices with load in [lo, hi] must be exactly
        # the members (bisect on the global sorted loads, then the weight
        # crossing scan only when that passes)
        in_range = bisect_right(all_loads, hi) - bisect_left(all_loads, lo)
        if in_range != len(member_set):
            return False
        return _share_conditions_ok(member_set, lo, hi, ws, cs)

    sets: list[tuple[list[int], float, float]] = []
    acc: list[int] = []
    acc_set: set[int] = set()
    lo = hi = 0.0
    for block in partition.groups:
        for v in block:
            lv = load[v]
            if not acc:
                lo = hi = lv
            else:
                lo = min(lo, lv)
                hi = max(hi, lv)
            acc.append(v)
            acc_set.add(v)
        if stable(acc_set, lo, hi):
            sets.append((acc, lo, hi))
            acc, acc_set = [], set()
    # Weight reassignment can lift a trailing vertex's load above an earlier
    # group's range, leaving the tail unstable with nothing ahead to merge.
    # Merge backward instead; the whole working set is vacuously stable, so
    # this terminates.
    while acc:
        if stable(acc_set, lo, hi):
            sets.append((acc, lo, hi))
            break
        prev, plo, phi = sets.pop()
        acc = prev + acc
        acc_set.update(prev)
        lo = min(lo, plo)
        hi = max(hi, phi)

    groups: list[VertexSet] = []
    for members, lo, hi in sets:
        candidate = tuple(sorted(members))
        upper_val = hi + _pad(hi)
        lower_val = lo - _pad(lo)
        for v in candidate:
            if upper_val < out.upper[v]:
                out.upper[v] = upper_val
            if lower_val > out.lower[v]:
                out.lower[v] = lower_val
        groups.append(candidate)
    return groups, out
