"""Enumeration of the six 4-vertex patterns behind the pattern-density variant.

Instances are counted non-induced and once per automorphism class: an
instance is a set of 4 distinct vertices together with the pattern's edge
set, so two different 4-cycles on the same vertex quadruple are two
instances. Non-induced counting keeps the per-subset instance counts
monotone and supermodular, which the density machinery relies on; induced
counting would not. Enumeration is edge/triangle anchored per pattern
rather than generic subgraph isomorphism.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable

from .cliques import CliqueSet, enumerate_cliques, _index_cliques
from .graph import Graph

PATTERN_NAMES = ("3star", "4path", "tailed-triangle", "4loop", "diamond", "4clique")


def enumerate_patterns(g: Graph, pattern_id: str) -> CliqueSet:
    """All non-induced instances of the named pattern, modulo automorphism,
    as a clique set with h = 4: each instance is its sorted member quadruple,
    listed once per instance, so a quadruple can repeat."""
    if pattern_id not in PATTERN_NAMES:
        raise ValueError(f"unsupported pattern {pattern_id!r}; "
                         f"expected one of {PATTERN_NAMES}")
    if pattern_id == "4clique":
        return enumerate_cliques(g, 4)
    raw: list[tuple[int, ...]] = []
    if pattern_id == "3star":
        for c in range(g.n):
            for leaves in combinations(g.adj[c], 3):
                raw.append(tuple(sorted((c,) + leaves)))
    elif pattern_id == "4path":
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
                            raw.append(tuple(sorted(seq)))
    elif pattern_id == "tailed-triangle":
        triangles = enumerate_cliques(g, 3).cliques
        for tri in triangles:
            tri_set = set(tri)
            for attach in tri:
                for tail in g.adj[attach]:
                    if tail not in tri_set:
                        raw.append(tuple(sorted(tri + (tail,))))
    elif pattern_id == "4loop":
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
                    raw.append(tuple(sorted((a, b, c, d))))
    else:  # diamond: two triangles sharing the edge (a, b)
        adj_sets = [set(a) for a in g.adj]
        for a in range(g.n):
            for b in g.adj[a]:
                if b <= a:
                    continue
                common = adj_sets[a] & adj_sets[b]
                for c, d in combinations(common, 2):
                    raw.append(tuple(sorted((a, b, c, d))))
    return _index_cliques(4, sorted(raw), g.n)


def pattern_density(ps: CliqueSet, s: Iterable[int]) -> Fraction:
    """Instances entirely inside s, divided by |s|."""
    members = set(s)
    if not members:
        raise ValueError("empty vertex set")
    return Fraction(ps.count_within(members), len(members))
