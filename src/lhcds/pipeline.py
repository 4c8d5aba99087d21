"""Iterative propose-prune-and-verify driver for top-k locally densest discovery.

One round proposes candidates on the current working graph (weight iteration,
tentative decomposition, stable groups), prunes provably invalid vertices,
and pushes the surviving candidates onto a stack so that the densest comes
off first. The popped candidate is accepted only if it is self-densest and a
maximal compact component of the whole input graph; a candidate that is
self-densest but fails maximality intersects no locally densest subgraph and
is discarded, while one that is not self-densest is split by its flow
witness and its pieces go back on the stack. Every emission is gated by the
exact flow verification, so the output is exact regardless of how
approximate the proposals are.

Deviations from a purely literal driver, both exactness-preserving:
stable groups are split into their connected components before stacking
(disconnected equal-density plateaus would otherwise cycle forever), and a
candidate S that is not self-densest is not proposed again. Instead the
connected components of T and of S - T go on the stack, where T is the set
of vertices whose compact number in G[S] exceeds the density of S
(``flow.denser_part``). Every locally densest subgraph inside S lies wholly
in one of those pieces, and each piece is strictly smaller than S. A popped
candidate is thus accepted, discarded or replaced by strictly smaller sets,
and a proposal on a working set yields subsets of it, so the driver ends on
every input at a fixed iteration count.

Bound bookkeeping: the global bound arrays always stay valid for the input
graph. Lower bounds tighten from every round (a lower bound on a subgraph's
compact number is one for the host), upper bounds only from full-graph
rounds; each round's pruning uses working-graph-valid local bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .cliques import Bounds, CliqueSet, clique_core_numbers, enumerate_cliques, \
    initialize_bounds, restrict_cliques
from .flow import denser_part, is_densest, verify_basic, verify_fast
from .graph import Graph, VertexSet, connected_components, induced_subgraph
from .patterns import enumerate_patterns
from .proposal import derive_stable_groups, tentative_decomposition
from .pruning import prune
from .weights import init_weights, run_iterations


@dataclass
class PipelineConfig:
    h: int = 3
    k: int = 5
    iterations: int = 20
    verify_mode: str = "fast"  # "basic" or "fast"
    emit_all: bool = False     # run until the stack empties; k is ignored
    cross_check: bool = False  # run both verifiers, count disagreements

    def validate(self) -> None:
        if self.h < 2:
            raise ValueError("h must be >= 2")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.verify_mode not in ("basic", "fast"):
            raise ValueError("verify_mode must be 'basic' or 'fast'")


@dataclass
class ResultRecord:
    """One verified locally densest subgraph.

    ``vertices`` holds external ids (the input file's), ``members`` the
    internal ids. Densities are exact and non-increasing with rank; member
    sets are pairwise disjoint.
    """

    rank: int
    vertices: VertexSet
    members: VertexSet
    clique_count: int
    density: Fraction
    verified: bool = True


@dataclass
class RunStats:
    clique_count: int = 0
    rounds: int = 0
    candidates_proposed: int = 0
    pruned_vertices: int = 0
    zero_density_dropped: int = 0
    densest_checks: int = 0
    verify_calls: int = 0
    verify_disagreements: int = 0
    emitted: int = 0
    max_iterations_used: int = 0  # cfg.iterations: the count never changes

    @property
    def flow_calls(self) -> int:
        return self.densest_checks + self.verify_calls


@dataclass
class RoundEvent:
    """Per-round trace for tests: working set, candidates after pruning, and
    snapshots of the global bound arrays."""

    index: int
    working: VertexSet
    candidates: list[VertexSet]
    pruned: VertexSet
    upper: list
    lower: list


@dataclass
class _Candidate:
    vertices: VertexSet
    clique_count: int
    density: Fraction


def ippv(g: Graph, cfg: PipelineConfig, *, stats: RunStats | None = None,
         on_round: Callable[[RoundEvent], None] | None = None
         ) -> list[ResultRecord]:
    """Top-k locally h-clique densest subgraphs of g, exactly.

    Returns fewer than k records when the graph has fewer locally densest
    subgraphs (an empty list when it has no h-clique at all). With
    cfg.emit_all the complete list is returned.
    """
    cfg.validate()
    return _run(g, enumerate_cliques(g, cfg.h), cfg, stats, on_round)


def ippv_pattern(g: Graph, pattern_id: str, cfg: PipelineConfig, *,
                 stats: RunStats | None = None,
                 on_round: Callable[[RoundEvent], None] | None = None
                 ) -> list[ResultRecord]:
    """Top-k locally pattern-densest subgraphs for a 4-vertex pattern.

    Identical control flow with pattern instances in place of h-cliques
    (cfg.h is ignored; the instance size 4 drives every formula).
    """
    cfg.validate()
    return _run(g, enumerate_patterns(g, pattern_id), cfg, stats, on_round)


def _run(g: Graph, cs: CliqueSet, cfg: PipelineConfig,
         stats: RunStats | None,
         on_round: Callable[[RoundEvent], None] | None) -> list[ResultRecord]:
    if stats is None:
        stats = RunStats()
    stats.clique_count = len(cs.cliques)
    n = g.n
    bounds = initialize_bounds(clique_core_numbers(g, cs), cs.h)
    emitted_flag = [False] * n
    results: list[ResultRecord] = []
    stack: list[_Candidate] = []
    work: VertexSet = tuple(range(n))
    k_left = cfg.k
    stats.max_iterations_used = cfg.iterations

    while cfg.emit_all or k_left > 0:
        stats.rounds += 1
        candidates, pruned = _propose_round(g, cs, work, cfg.iterations, bounds)
        stats.candidates_proposed += len(candidates)
        stats.pruned_vertices += len(pruned)

        if on_round is not None:
            on_round(RoundEvent(index=stats.rounds, working=work,
                                candidates=[c.vertices for c in candidates],
                                pruned=pruned,
                                upper=list(bounds.upper),
                                lower=list(bounds.lower)))

        stack.extend(reversed(candidates))
        current = _pop_positive(stack, stats)
        if current is None:
            break

        sub = induced_subgraph(g, current.vertices)
        sub_cs = restrict_cliques(cs, current.vertices)
        stats.densest_checks += 1
        if is_densest(sub, sub_cs):
            if _verify(g, cs, current.vertices, bounds, emitted_flag, cfg, stats):
                for v in current.vertices:
                    emitted_flag[v] = True
                results.append(ResultRecord(
                    rank=len(results) + 1,
                    vertices=tuple(sorted(g.labels[v] for v in current.vertices)),
                    members=current.vertices,
                    clique_count=current.clique_count,
                    density=current.density))
                stats.emitted += 1
                k_left -= 1
        else:
            inner = denser_part(sub, sub_cs)
            outer = set(range(sub.n)).difference(inner)
            stack.extend(reversed(_as_candidates(
                sub, sub_cs, current.vertices, (inner, outer))))
        nxt = _pop_positive(stack, stats)
        if nxt is None:
            break
        work = nxt.vertices
    return results


def _propose_round(g: Graph, cs: CliqueSet, work: VertexSet, t_rounds: int,
                   bounds: Bounds) -> tuple[list[_Candidate], VertexSet]:
    """One propose + prune round on the working vertex set.

    Returns the pruned candidates as connected components in the host graph's
    id space, ordered densest-first (ties by smallest vertex id), plus the
    vertices the pruning removed. Mutates the global bounds: lower bounds
    from any round, upper bounds only when the round covers the whole graph.
    """
    g_work = induced_subgraph(g, work)
    cs_work = restrict_cliques(cs, work)
    ws = run_iterations(init_weights(cs_work), t_rounds)
    partition, ws = tentative_decomposition(g_work, cs_work, ws)
    local = Bounds(upper=[bounds.upper[v] for v in work],
                   lower=[bounds.lower[v] for v in work])
    groups, local = derive_stable_groups(partition, ws, cs_work, local)

    whole = len(work) == g.n
    for i, v in enumerate(work):
        if local.lower[i] > bounds.lower[v]:
            bounds.lower[v] = local.lower[i]
        if whole and local.upper[i] < bounds.upper[v]:
            bounds.upper[v] = local.upper[i]

    kept, surviving = prune(g_work, groups, local, cs_work)
    survivor_set = set(surviving)
    pruned = tuple(work[i] for i in range(len(work)) if i not in survivor_set)

    return _as_candidates(g_work, cs_work, work, kept), pruned


def _as_candidates(g_work: Graph, cs_work: CliqueSet, work: VertexSet,
                   parts: Iterable[Iterable[int]]) -> list[_Candidate]:
    """The connected components of each part of the working graph, as
    candidates in the host graph's id space, densest-first (ties by smallest
    vertex id)."""
    out: list[_Candidate] = []
    for part in parts:
        for comp in connected_components(g_work, part):
            count = cs_work.count_within(set(comp))
            out.append(_Candidate(
                vertices=tuple(work[i] for i in comp),
                clique_count=count,
                density=Fraction(count, len(comp))))
    out.sort(key=lambda c: (-c.density, c.vertices))
    return out


def _pop_positive(stack: list[_Candidate], stats: RunStats) -> _Candidate | None:
    """Pop the next candidate that holds at least one clique.

    Clique-free candidates are degenerate (any connected clique-free graph is
    vacuously compact at density zero) and are dropped rather than emitted.
    """
    while stack:
        cand = stack.pop()
        if cand.clique_count > 0:
            return cand
        stats.zero_density_dropped += 1
    return None


def _verify(g: Graph, cs: CliqueSet, s: VertexSet, bounds: Bounds,
            emitted_flag: list[bool], cfg: PipelineConfig,
            stats: RunStats) -> bool:
    stats.verify_calls += 1
    if cfg.cross_check:
        basic = verify_basic(g, cs, s)
        fast = verify_fast(g, cs, s, bounds, emitted_flag)
        if basic != fast:
            stats.verify_disagreements += 1
        return basic
    if cfg.verify_mode == "basic":
        return verify_basic(g, cs, s)
    return verify_fast(g, cs, s, bounds, emitted_flag)
