"""Ingest an edge list, enumerate h-cliques, and read off the initial bounds.

Bounds are exact: integer numerators over one denominator, printed here as
fractions.

Run: python3 demos/01_ingest_and_cliques.py
"""

from fractions import Fraction

from lhcds import (clique_core_numbers, enumerate_cliques, initialize_bounds,
                   parse_edge_list)

# Two tight communities sharing nothing but one middleman (vertex 104).
EDGE_LIST = """\
# community A: a K4 on 100..103
100 101
100 102
100 103
101 102
101 103
102 103
# middleman
103 104
104 200
# community B: a K4 on 200..203
200 201
200 202
200 203
201 202
201 203
202 203
"""

g = parse_edge_list(EDGE_LIST)
print(f"parsed: {g.n} vertices, {g.m} edges (external ids {g.labels})")

for h in (2, 3):
    cs = enumerate_cliques(g, h)
    print(f"\n{h}-cliques: {len(cs.cliques)}")
    for clique in cs.cliques:
        print("  ", tuple(g.labels[v] for v in clique))
    core = clique_core_numbers(cs)
    # any multiple of h makes core/h exact; the driver uses the weight
    # state's denominator
    bounds = initialize_bounds(core, h, h)
    print("per-vertex clique-core numbers and compact-number bounds:")
    for v in range(g.n):
        lower = Fraction(bounds.lower[v], bounds.den)
        upper = Fraction(bounds.upper[v], bounds.den)
        print(f"   vertex {g.labels[v]}: core={core[v]} "
              f"bounds=[{lower}, {upper}]")
