"""End-to-end top-k discovery on a graph with planted communities.

Three cliques of different sizes sit in a sea of random edges; the pipeline
returns them, each one verified maximal by the flow check and with its exact
density. The order follows the candidates' own densities, so a later record
can be denser than an earlier one. The run statistics show how much work
the propose and prune pass and the checks after it did.

Run: python3 demos/03_top_k_discovery.py
"""

import random
from itertools import combinations

from lhcds import Graph, PipelineConfig, RunStats, ippv

rng = random.Random(42)
n = 60
blocks = (range(0, 8), range(20, 26), range(40, 45))        # K8, K6, K5
block_of = {v: i for i, b in enumerate(blocks) for v in b}
edges = set()
for block in blocks:
    edges.update(combinations(block, 2))
while len(edges) < 170:
    u, v = rng.randrange(n), rng.randrange(n)
    # background noise may touch a community but must not tie two of them
    # together: a vertex adjacent to a strictly denser region stops being
    # locally densest, which is the definition doing its job
    if u != v and block_of.get(u, block_of.get(v, -1)) == block_of.get(v, block_of.get(u, -1)):
        edges.add((min(u, v), max(u, v)))

g = Graph.from_edges(n, sorted(edges))
print(f"{g.n} vertices, {g.m} edges, planted K8 / K6 / K5")

stats = RunStats()
records = ippv(g, PipelineConfig(h=3, k=3), stats=stats)
for r in records:
    print(f"  #{r.rank}: {len(r.members)} vertices {r.members}, "
          f"{r.clique_count} triangles, density {r.density} "
          f"({float(r.density):.3f})")

print(f"\ncandidates proposed: {stats.candidates_proposed}, "
      f"vertices pruned: {stats.pruned_vertices}")
print(f"self-densest checks: {stats.densest_checks}, "
      f"{stats.densest_certified} decided by equal clique degrees")
print(f"maximality checks: {stats.verify_calls} "
      f"({stats.verify_early_accept} accepted and "
      f"{stats.verify_early_reject} rejected by the bounds alone, "
      f"{stats.verify_flow} by flow)")
print(f"flow networks built: {stats.flow_calls}")
