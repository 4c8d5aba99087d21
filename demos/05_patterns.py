"""Swap h-cliques for 4-vertex patterns and rank subgraphs by pattern density.

The same pipeline runs unchanged on any of the six supported patterns; only
the instance enumeration differs. Different patterns genuinely rank regions
differently, as the diamond-vs-cycle comparison below shows.

Run: python3 demos/05_patterns.py
"""

from itertools import combinations

from lhcds import (Graph, PipelineConfig, enumerate_patterns, ippv_pattern,
                   pattern_density, PATTERN_NAMES)

# a K5 (all patterns abound) plus an 8-cycle with chords (cycle-rich, clique-poor)
cycle = [(i, (i + 1) % 8) for i in range(8)]
chords = [(0, 3), (4, 7), (1, 6)]
edges = list(combinations(range(8, 13), 2)) + cycle + chords
g = Graph.from_edges(13, edges)
print(f"{g.n} vertices, {g.m} edges: K5 on 8..12 plus a chorded 8-cycle on 0..7")

print(f"\n{'pattern':>15}  instances  whole-graph density")
for name in PATTERN_NAMES:
    ps = enumerate_patterns(g, name)
    d = pattern_density(ps, range(g.n))
    print(f"{name:>15}  {len(ps.cliques):>9}  {d} ({float(d):.3f})")

for name in ("4loop", "diamond"):
    records = ippv_pattern(g, name, PipelineConfig(k=2))
    print(f"\ntop {name} regions:")
    for r in records:
        print(f"  #{r.rank}: {r.members} with {r.clique_count} instances, "
              f"density {r.density}")
