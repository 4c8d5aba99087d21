"""Seeded graph generators and the benchmark's workload table.

Every generator takes its seed as an argument and draws only from
``random.Random(seed)``. The program never sees a generator: it receives
the edge-list text that ``edge_list_text`` writes.

The graphs are pinned. When the benchmark was written, the stall-doubling
livelock stopped most seeded noisy graphs from finishing, and most emit-all
runs of the planted family returned densities that rise with rank. A timed
workload must have no failing operation, so each timed workload uses a graph
seed on which the program finished and passed every output check. Two
defect workloads keep both choices from hiding anything: ``planted-all``
(graph seed 1, rank inversions) and ``stall-sweep`` (ten fixed seeds, half
of them livelock). They report their failures in ``correct``/``failed`` and
are not in ``BENCHMARK.json``'s workload list. The benchmark's
own ``--seed`` only shuffles the order and orientation of the edge lines;
``parse_edge_list`` sorts both away, so every seed gives the program
different bytes but the same graph and the same result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Callable

Edges = list[tuple[int, int]]


def criterion9(seed: int) -> Edges:
    """Three K8s on ids 0..23 plus uniform edges up to 50k in 10k vertices,
    the graph of acceptance criterion 9 at seed 99."""
    rng = random.Random(seed)
    n, target_m = 10_000, 50_000
    edges = set()
    for block in (range(0, 8), range(8, 16), range(16, 24)):
        edges.update(combinations(block, 2))
    while len(edges) < target_m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def planted(seed: int, n: int, m: int, blocks: int, size_lo: int,
            size_hi: int, p: float) -> Edges:
    """Disjoint blocks of size_lo..size_hi random vertices, each pair inside
    a block joined with probability p, then uniform edges until m edges."""
    rng = random.Random(seed)
    vertices = list(range(n))
    rng.shuffle(vertices)
    edges = set()
    at = 0
    for _ in range(blocks):
        size = rng.randint(size_lo, size_hi)
        block = sorted(vertices[at:at + size])
        at += size
        for u, v in combinations(block, 2):
            if rng.random() < p:
                edges.add((u, v))
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def edge_list_text(edges: Edges, seed: int) -> str:
    """The edge list as "u v" lines, shuffled and flipped by ``seed``."""
    rng = random.Random(seed)
    lines = [f"{v} {u}\n" if rng.random() < 0.5 else f"{u} {v}\n"
             for u, v in edges]
    rng.shuffle(lines)
    return "".join(lines)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a generator, the graph seeds it is run on (one
    operation each), and the query every operation makes."""

    name: str
    why: str
    generate: Callable[[int], Edges]
    graph_seeds: tuple[int, ...]
    k: int
    cap_s: float                 # per-operation wall cap
    emit_all: bool = False
    pattern: str | None = None
    cli: bool = True             # the CLI can express the query

    @property
    def mode(self) -> str:
        query = "emit-all" if self.emit_all else f"top-{self.k}"
        return f"{self.pattern or 'h=3'} {query}"


_PLANTED_ALL = partial(planted, n=10_000, m=40_000, blocks=20, size_lo=6,
                       size_hi=10, p=1.0)

# Each cap is at least 8x the slowest finishing call measured when the
# benchmark was written (2-core Xeon VM, Python 3.11): a livelocked call never
# finishes, so only the margin over the finishing calls matters.
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="sparse-topk",
        why="criterion-9 graph, seed 99, pinned: it finishes despite the "
            "livelock; per-vertex Python work (enumerate, prune, stable groups) "
            "dominates: the control for Frank-Wolfe and flow",
        generate=criterion9, graph_seeds=(99,), k=5, cap_s=10.0),
    Workload(
        name="dense-topk",
        why="8 K40s in 10k vertices plus 30k noise edges, seed 2, pinned: the "
            "first that finishes despite the livelock; flow and Frank-Wolfe "
            "dominate: the control for per-vertex work",
        generate=partial(planted, n=10_000, m=8 * 780 + 30_000, blocks=8,
                         size_lo=40, size_hi=40, p=1.0),
        graph_seeds=(2,), k=5, cap_s=60.0),
    Workload(
        name="emit-all",
        why="20 K6-K10 blocks in 10k vertices, 40k edges, emit_all, seed 27, "
            "pinned: first seed that finishes, stall-doubles to 320 and has no "
            "rank inversion; many rounds, many tiny flow networks",
        generate=_PLANTED_ALL, graph_seeds=(27,), k=5, emit_all=True,
        cap_s=20.0, cli=False),
    Workload(
        name="diamond-topk",
        why="the planted-all graph in diamond pattern mode, seed 1, pinned: "
            "it finishes despite the livelock; the only workload that runs "
            "patterns.py (4-wide, repeating instances)",
        generate=_PLANTED_ALL, graph_seeds=(1,), k=5, pattern="diamond",
        cap_s=20.0),
    Workload(
        name="planted-all",
        why="defect workload: the emit-all graph at seed 1, whose 4 rank "
            "inversions fail the output checks (as do 22 of graph seeds 1-30); "
            "the reason emit-all pins seed 27",
        generate=_PLANTED_ALL, graph_seeds=(1,), k=5, emit_all=True,
        cap_s=20.0, cli=False),
    Workload(
        name="stall-sweep",
        why="defect workload: ROADMAP planted family (300 vertices, 1500 "
            "edges, 10 blocks of 6-14 at p=0.7), graph seeds 1-10; measures "
            "termination: a seed that overruns the 5 s cap counts as failed",
        generate=partial(planted, n=300, m=1500, blocks=10, size_lo=6,
                         size_hi=14, p=0.7),
        graph_seeds=tuple(range(1, 11)), k=5, cap_s=5.0),
)}
