"""The exact flow machinery, step by step.

derive_compact answers "which vertex sets survive at threshold rho" as one
exact min-cut; is_densest and the two verifiers are thin layers over it.
Capacities are integers over a shared denominator, so every comparison is
exact and the cut side is reproducible.

Run: python3 demos/04_verification_flow.py
"""

from fractions import Fraction
from itertools import combinations

from lhcds import (Graph, build_network, derive_compact, enumerate_cliques,
                   is_densest, induced_subgraph, min_cut, restrict_cliques,
                   verify_basic)

# two K4s joined through a middleman vertex
edges = list(combinations(range(4), 2)) + list(combinations(range(5, 9), 2)) \
    + [(3, 4), (4, 5)]
g = Graph.from_edges(9, edges)
cs = enumerate_cliques(g, 3)
print(f"{g.n} vertices, {len(cs.cliques)} triangles")

rho = Fraction(1)
net = build_network(g, cs, rho - Fraction(1, g.n * g.n))
print(f"\nnetwork at rho = {rho} - 1/81: {len(net.arcs)} nodes, "
      f"shared denominator {net.den}")
print("first arcs (from to numerator denominator):")
# arc e runs to head[e]; its residual twin e ^ 1 runs back to e's tail
for e in range(0, 12, 2):
    print(net.head[e ^ 1], net.head[e], net.cap[e], net.den)

cut = min_cut(build_network(g, cs, rho - Fraction(1, g.n * g.n)))
print(f"\nmin-cut value {cut.flow_value}, surviving vertices {cut.source_side}")

for probe in (Fraction(1, 3), Fraction(1), Fraction(3, 2)):
    survivors = derive_compact(g, cs, probe - Fraction(1, g.n * g.n))
    print(f"threshold {probe}: {survivors or 'nothing'}")

candidate = (0, 1, 2, 3)
sub = induced_subgraph(g, candidate)
sub_cs = restrict_cliques(cs, candidate)
print(f"\ncandidate {candidate}: self-densest? {is_densest(sub, sub_cs)}; "
      f"maximal compact component? {verify_basic(g, cs, candidate)}")
too_small = (0, 1, 2)
sub2 = induced_subgraph(g, too_small)
print(f"candidate {too_small}: self-densest? "
      f"{is_densest(sub2, restrict_cliques(cs, too_small))}; "
      f"maximal compact component? {verify_basic(g, cs, too_small)}")
