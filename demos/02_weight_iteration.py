"""Watch the clique-weight iteration approach the exact compact numbers.

Each triangle spreads one unit of weight over its three vertices; every round
nudges weight toward each triangle's lightest member. The per-vertex totals
converge to the compact numbers, which the brute-force oracle provides
exactly for comparison.

Run: python3 demos/02_weight_iteration.py
"""

from itertools import combinations

from lhcds import (Graph, enumerate_cliques, objective, oracle_compact_numbers,
                   run_iterations)

# a K5 with a K4 grafted on (sharing vertex 4): two density levels
edges = sorted(set(combinations(range(5), 2)) | set(combinations(range(4, 8), 2)))
g = Graph.from_edges(8, edges)
cs = enumerate_cliques(g, 3)
phi = oracle_compact_numbers(g, 3)
print(f"{g.n} vertices, {len(cs.cliques)} triangles")
print("exact compact numbers:", [str(x) for x in phi])

print(f"\n{'rounds':>7} {'objective':>10}  loads")
for rounds in (0, 1, 5, 20, 100, 1000, 10000):
    ws = run_iterations(cs, rounds)
    loads = [x / ws.den for x in ws.load]
    print(f"{rounds:>7} {objective(ws):>10.4f}  "
          + " ".join(f"{x:6.3f}" for x in loads))

worst = max(abs(x - float(phi[v])) for v, x in enumerate(loads))
print(f"\nlargest deviation from the exact values after {rounds} rounds: {worst:.5f}")
