"""Enumeration of the six 4-vertex patterns behind the pattern-density variant.

Instances are counted non-induced and once per automorphism class: an
instance is a set of 4 distinct vertices together with the pattern's edge
set, so two different 4-cycles on the same vertex quadruple are two
instances. Non-induced counting keeps the per-subset instance counts
monotone and supermodular, which the density machinery relies on; induced
counting would not. Enumeration is edge/triangle anchored per pattern
rather than generic subgraph isomorphism.

A PatternSet quacks like a CliqueSet (h=4, member tuples, degrees,
incidence), so the weight iteration, core peeling, flow networks, and the
pipeline run on patterns unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable

from .cliques import CliqueSet, enumerate_cliques, _index_cliques
from .graph import Graph

PATTERN_NAMES = ("3star", "4path", "tailed-triangle", "4loop", "diamond", "4clique")


@dataclass
class PatternSet(CliqueSet):
    """Instances of one 4-vertex pattern, exposed through the clique-set
    interface. ``cliques`` holds the (possibly repeating) sorted member
    quadruples; ``signatures`` disambiguates instances sharing a quadruple."""

    pattern_id: str = ""
    signatures: list[tuple] = field(default_factory=list)

    @property
    def instances(self) -> list[tuple[int, ...]]:
        return self.cliques


def _finish(pattern_id: str, n: int,
            raw: list[tuple[tuple[int, ...], tuple]]) -> PatternSet:
    raw.sort()
    members = [m for m, _sig in raw]
    base = _index_cliques(4, members, n)
    # _index_cliques keeps the sorted order it is given: signatures stay aligned
    return PatternSet(h=4, cliques=base.cliques, degree=base.degree,
                      incidence=base.incidence, pattern_id=pattern_id,
                      signatures=[sig for _m, sig in raw])


def enumerate_patterns(g: Graph, pattern_id: str) -> PatternSet:
    """All non-induced instances of the named pattern, modulo automorphism."""
    if pattern_id not in PATTERN_NAMES:
        raise ValueError(f"unsupported pattern {pattern_id!r}; "
                         f"expected one of {PATTERN_NAMES}")
    raw: list[tuple[tuple[int, ...], tuple]] = []

    if pattern_id == "4clique":
        cs = enumerate_cliques(g, 4)
        return PatternSet(h=4, cliques=cs.cliques, degree=cs.degree,
                          incidence=cs.incidence, pattern_id=pattern_id,
                          signatures=[("k",)] * len(cs.cliques))

    if pattern_id == "3star":
        for c in range(g.n):
            for leaves in combinations(g.adj[c], 3):
                quad = tuple(sorted((c,) + leaves))
                raw.append((quad, ("c", c)))
        return _finish(pattern_id, g.n, raw)

    if pattern_id == "4path":
        for b in range(g.n):
            for c in g.adj[b]:
                for a in g.adj[b]:
                    if a == c:
                        continue
                    for d in g.adj[c]:
                        if d == b or d == a:
                            continue
                        seq = (a, b, c, d)
                        if seq <= seq[::-1]:  # one orientation per path
                            quad = tuple(sorted(seq))
                            raw.append((quad, ("p", seq)))
        return _finish(pattern_id, g.n, raw)

    if pattern_id == "tailed-triangle":
        triangles = enumerate_cliques(g, 3).cliques
        for tri in triangles:
            tri_set = set(tri)
            for attach in tri:
                for tail in g.adj[attach]:
                    if tail not in tri_set:
                        quad = tuple(sorted(tri + (tail,)))
                        raw.append((quad, ("t", attach, tail)))
        return _finish(pattern_id, g.n, raw)

    if pattern_id == "4loop":
        # the cycle a-b-c-d has diagonals {a,c} and {b,d}; keep the
        # orientation where {a,c} is the smaller one: a is the smallest
        # vertex and b < d, so c is two hops from a through b > a
        for a in range(g.n):
            common: dict[int, list[int]] = {}
            for b in g.adj[a]:
                if b > a:
                    for c in g.adj[b]:
                        if c > a:
                            common.setdefault(c, []).append(b)
            for c, mids in common.items():
                for b, d in combinations(mids, 2):
                    quad = tuple(sorted((a, b, c, d)))
                    raw.append((quad, ("l", (a, b, c, d))))
        return _finish(pattern_id, g.n, raw)

    # diamond: two triangles sharing the edge (a, b)
    adj_sets = [set(a) for a in g.adj]
    for a in range(g.n):
        for b in g.adj[a]:
            if b <= a:
                continue
            common = adj_sets[a] & adj_sets[b]
            for c, d in combinations(common, 2):
                quad = tuple(sorted((a, b, c, d)))
                raw.append((quad, ("d", (a, b))))
    return _finish(pattern_id, g.n, raw)


def pattern_density(ps: PatternSet, s: Iterable[int]) -> Fraction:
    """Instances entirely inside s, divided by |s|."""
    members = set(s)
    if not members:
        raise ValueError("empty vertex set")
    return Fraction(ps.count_within(members), len(members))
