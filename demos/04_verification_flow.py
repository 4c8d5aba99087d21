"""The exact flow machinery, step by step.

derive_compact answers "which vertex sets survive at threshold rho" as one
exact min-cut; is_densest and the two verifiers are thin layers over it.
Capacities are integers over a shared denominator, so every comparison is
exact and the cut side is reproducible. A network reads cliques only, so the
flow functions take a clique set; a candidate's own network is built from
restrict_cliques(cs, candidate).

Run: python3 demos/04_verification_flow.py
"""

from fractions import Fraction
from itertools import combinations

from lhcds import (Graph, build_network, derive_compact, enumerate_cliques,
                   is_densest, min_cut, restrict_cliques, verify_basic)

# two K4s joined through a middleman vertex
edges = list(combinations(range(4), 2)) + list(combinations(range(5, 9), 2)) \
    + [(3, 4), (4, 5)]
g = Graph.from_edges(9, edges)
cs = enumerate_cliques(g, 3)
print(f"{g.n} vertices, {len(cs.cliques)} triangles")

rho = Fraction(1)
net = build_network(cs, rho - Fraction(1, g.n * g.n))
print(f"\nnetwork at rho = {rho} - 1/81: {len(net.arcs)} nodes, "
      f"shared denominator {net.den}")
print("first arcs (from to numerator denominator):")
# arc e runs to head[e]; its residual twin e ^ 1 runs back to e's tail
for e in range(0, 12, 2):
    print(net.head[e ^ 1], net.head[e], net.cap[e], net.den)

cut = min_cut(build_network(cs, rho - Fraction(1, g.n * g.n)))
print(f"\nmin-cut value {cut.flow_value}, surviving vertices {cut.source_side}")

for probe in (Fraction(1, 3), Fraction(1), Fraction(3, 2)):
    survivors = derive_compact(cs, probe - Fraction(1, g.n * g.n))
    print(f"threshold {probe}: {survivors or 'nothing'}")

print()
for candidate in ((0, 1, 2, 3), (0, 1, 2)):
    print(f"candidate {candidate}: self-densest? "
          f"{is_densest(restrict_cliques(cs, candidate))}; "
          f"maximal compact component? {verify_basic(g, cs, candidate)}")
