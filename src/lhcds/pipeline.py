"""Top-k locally densest discovery: one propose and prune pass, then a worklist.

One pass over the clique support bounds each vertex's compact number and
prunes provably invalid vertices. The survivors' components go on a stack
so that the densest comes off first. The driver then works the stack. A
popped candidate S that is self-densest is accepted only if it is a maximal
compact component of the whole input graph; one that fails maximality
intersects no locally densest subgraph and is discarded. One that is not
self-densest is split by its flow witness and its pieces go back on the
stack. Every emission is gated by the exact flow verification, so the
output is exact regardless of how approximate the proposals are.

The bounds depend on one fact of the input: are the instances cliques?

- For h-cliques, the 4clique pattern included, the bounds come from clique
  cores alone: core / h below, core above. The paper's proposal (weight
  iteration, tentative decomposition, stable groups) tightens them, but
  on every clique input measured the output was the same without it, and
  on dense inputs it took more than half of the query's time.
- For every other pattern, the pass runs the proposal with
  ``cfg.iterations`` weight rounds. There its tighter bounds change the
  candidates and the output order, and the diamond query measured more
  than twice as fast with the proposal as with core bounds alone.

This departs on purpose from the paper's IPPV loop, where a candidate that
stays undecided goes back through propose and prune as a new working graph.
Two facts make that re-proposal unnecessary for exactness:

- A connected self-densest S holds no locally densest subgraph but S
  itself. No subset of S is denser, so removing any j members destroys at
  least d(S) * j of its cliques: S is d(S)-compact, hence d(L)-compact for
  every L inside it, as d(L) <= d(S). A proper subset L is then not maximal.
  So S needs only verification.
- If S is not self-densest, ``flow.denser_part`` splits it exactly: with T
  the vertices whose compact number in G[S] exceeds d(S), every locally
  densest subgraph inside S lies wholly in one connected piece of T or of
  S - T, and each piece is strictly smaller than S.

A popped candidate is thus accepted, discarded or replaced by strictly
smaller sets, so the driver ends on every input. The pass's candidates are
the connected components of the pruning survivors that hold a clique: a
locally densest subgraph is connected, and a clique-free one is vacuously
compact at density zero and not reported. With the proposal, stable groups
reach them only through the bounds they tighten, and no edge joins
survivors of two groups:

- Each group passes the separation test: the vertices with load in its
  range [lo, hi] are exactly its members. So group ranges are disjoint,
  and tightening gives each member ``lower >= lo`` and ``upper <= hi``.
- On an edge (a, b) with a's group A above b's group B,
  ``lower[a] >= lo_A > hi_B >= upper[b]``. The edge rule reads every
  neighbour, dead or alive, so it drops b.

A candidate S whose members all lie in the same number of S's cliques is
self-densest by that count alone (the certificate in
``flow.denser_part``'s docstring), so it costs no restriction and no flow
network. Any other candidate costs one flow solve on its restricted cliques:
the witness ``flow.denser_part`` is empty iff S is self-densest, and
otherwise it is the split. Each candidate and piece carries its members'
clique degrees inside it and its clique count, their sum over h. The
equal-degree test reads the degrees, and ``flow.verify_fast`` takes the
count, the numerator of the density it verifies. A split piece counts its
degrees in one ``CliqueSet.degrees_within`` walk. The pass's candidates take
theirs from ``prune``, which keeps each vertex's degree among the survivors
as its cascade kills cliques. That is the degree inside the candidate: a
clique is connected, so a clique with every member a survivor lies inside
one component of the survivors.

The pass and the worklist run on the clique support: G[sup], with sup the
vertices in some clique, and the cliques relabelled onto it
(``cliques.onto_support``). That loses nothing:

- A clique-free vertex w is in no rho-compact set for rho > 0, because
  removing w destroys 0 < rho cliques. So every maximal compact
  set of G lies inside sup, and maximality in G[sup] is maximality in G.
- A locally densest subgraph is connected and all its members are in sup,
  so it stays connected in G[sup].
- The relabel is monotone and every clique lies in sup, so clique order,
  clique ids, Frank-Wolfe tie-breaks and candidate order do not change.
  Core numbers and the core bounds of a clique query do not change either.

Records and the pass's event are mapped back to the ids of G.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .cliques import Bounds, CliqueSet, clique_core_numbers, enumerate_cliques, \
    initialize_bounds, onto_support, restrict_cliques
from .flow import denser_part, verify_basic, verify_fast
from .flow import is_densest  # noqa: F401  (perfbench traces it here)
from .graph import Graph, VertexSet, connected_components, induced_subgraph
from .patterns import enumerate_patterns
from .proposal import derive_stable_groups, tentative_decomposition
from .pruning import prune
from .weights import init_weights  # noqa: F401  (perfbench traces it here)
from .weights import run_iterations


@dataclass(frozen=True)
class PipelineConfig:
    """Settings of one query; a config with a bad setting cannot be built."""

    h: int = 3
    k: int = 5
    iterations: int = 20
    verify_mode: str = "fast"  # "basic" or "fast"
    emit_all: bool = False     # run until the stack empties; k is ignored
    cross_check: bool = False  # run both verifiers, count disagreements

    def __post_init__(self) -> None:
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
    internal ids of the whole graph. Every record is verified, its density
    is exact, and member sets are pairwise disjoint. Ranks follow the
    candidates' own densities, so a later record can be denser than an
    earlier one, and a top-k query can miss a set that ``emit_all`` finds.
    """

    rank: int
    vertices: VertexSet
    members: VertexSet
    clique_count: int
    density: Fraction


@dataclass
class RunStats:
    clique_count: int = 0
    rounds: int = 0  # propose and prune passes: one per query
    candidates_proposed: int = 0
    # vertices that are not pruning survivors, clique-free ones included:
    # len(RoundEvent.pruned)
    pruned_vertices: int = 0
    densest_checks: int = 0
    densest_certified: int = 0  # densest checks decided by equal degrees
    verify_calls: int = 0
    # how verifications decided: verify_fast without a network (early
    # accept, early reject), or by a flow network (every verify_basic call)
    verify_early_accept: int = 0
    verify_early_reject: int = 0
    verify_flow: int = 0
    verify_disagreements: int = 0
    emitted: int = 0
    # weight rounds run: cfg.iterations for a pattern query, 0 for cliques
    max_iterations_used: int = 0
    fw_updates: int = 0  # instance steps of the weight iteration

    @property
    def flow_calls(self) -> int:
        """Flow networks built: one per densest check that equal degrees did
        not decide, and one per verification that took the flow."""
        return self.densest_checks - self.densest_certified + self.verify_flow


@dataclass
class RoundEvent:
    """Trace of the propose and prune pass for tests, in the ids of the
    whole graph: candidates after pruning, every vertex that is not a
    pruning survivor (each clique-free one included), and the pass's
    bounds, 0/0 for a clique-free vertex. The pass runs on the clique
    support, so ``bounds`` is a fresh whole-graph copy that the driver
    never reads; the driver does not change its own bounds after
    pruning."""

    candidates: list[VertexSet]
    pruned: VertexSet
    bounds: Bounds


@dataclass
class _Candidate:
    vertices: VertexSet
    clique_count: int
    density: Fraction
    degrees: list[int]  # degrees[i]: cliques inside the set that hold vertices[i]


def ippv(g: Graph, cfg: PipelineConfig, *, stats: RunStats | None = None,
         on_round: Callable[[RoundEvent], None] | None = None
         ) -> list[ResultRecord]:
    """Top-k locally h-clique densest subgraphs of g, exactly.

    Returns fewer than k records when the graph has fewer locally densest
    subgraphs (an empty list when it has no h-clique at all). With
    cfg.emit_all the complete list is returned.
    """
    return _run(g, enumerate_cliques(g, cfg.h), True, cfg, stats, on_round)


def ippv_pattern(g: Graph, pattern_id: str, cfg: PipelineConfig, *,
                 stats: RunStats | None = None,
                 on_round: Callable[[RoundEvent], None] | None = None
                 ) -> list[ResultRecord]:
    """Top-k locally pattern-densest subgraphs for a 4-vertex pattern.

    Identical control flow with pattern instances in place of h-cliques
    (cfg.h is ignored; the instance size 4 drives every formula).
    """
    return _run(g, enumerate_patterns(g, pattern_id),
                pattern_id == "4clique", cfg, stats, on_round)


def _run(g: Graph, cs: CliqueSet, cliques: bool, cfg: PipelineConfig,
         stats: RunStats | None,
         on_round: Callable[[RoundEvent], None] | None) -> list[ResultRecord]:
    """The pass and the worklist over the instances cs of g; ``cliques``
    says whether they are g's h-cliques, whose bounds come from cores
    alone."""
    if stats is None:
        stats = RunStats()
    stats.clique_count = len(cs.cliques)
    stats.rounds += 1

    # from here on g is G[sup] and every id is a support id
    sup, cs = onto_support(cs)
    n, g = g.n, induced_subgraph(g, sup)
    core = clique_core_numbers(cs)
    if cliques:
        bounds = initialize_bounds(core, cs.h, cs.h)
    else:
        stats.max_iterations_used = cfg.iterations
        ws = run_iterations(cs, cfg.iterations)
        stats.fw_updates += cfg.iterations * len(cs.cliques)
        _, bounds = derive_stable_groups(tentative_decomposition(ws), ws, core)
    surviving, degree = prune(g, bounds, cs, core)
    candidates = _as_candidates(g, cs, (surviving,), degree)
    stats.candidates_proposed += len(candidates)
    stats.pruned_vertices += n - len(surviving)
    if on_round is not None:
        on_round(_whole_graph_event(n, sup, candidates, surviving, bounds))

    results: list[ResultRecord] = []
    stack = candidates[::-1]
    while stack and (cfg.emit_all or len(results) < cfg.k):
        cand = stack.pop()
        stats.densest_checks += 1
        if _all_equal(cand.degrees):
            stats.densest_certified += 1
            inner = ()
        else:
            inner = denser_part(restrict_cliques(cs, cand.vertices))
        if inner:
            inside = [cand.vertices[i] for i in inner]
            outside = set(cand.vertices).difference(inside)
            stack.extend(reversed(_as_candidates(g, cs, (inside, outside))))
        elif _verify(g, cs, cand, bounds, cfg, stats):
            results.append(ResultRecord(
                rank=len(results) + 1,
                vertices=tuple(sorted(g.labels[v] for v in cand.vertices)),
                members=tuple(map(sup.__getitem__, cand.vertices)),
                clique_count=cand.clique_count,
                density=cand.density))
            stats.emitted += 1
    return results


def _whole_graph_event(n: int, sup: VertexSet, candidates: list[_Candidate],
                       surviving: VertexSet, bounds: Bounds) -> RoundEvent:
    """The pass's event in the ids of the whole graph on n vertices, from
    the pass on G[sup]: a clique-free vertex is pruned, with bounds 0/0."""
    upper, lower = [0] * n, [0] * n
    for i, v in enumerate(sup):
        upper[v] = bounds.upper[i]
        lower[v] = bounds.lower[i]
    alive = set(map(sup.__getitem__, surviving))
    return RoundEvent(
        candidates=[tuple(map(sup.__getitem__, c.vertices))
                    for c in candidates],
        pruned=tuple(v for v in range(n) if v not in alive),
        bounds=Bounds(upper=upper, lower=lower, den=bounds.den))


def _as_candidates(g: Graph, cs: CliqueSet, parts: Iterable[Iterable[int]],
                   degree: list[int] | None = None) -> list[_Candidate]:
    """The connected components of each part in g that hold a clique, as
    candidates, densest-first (ties by smallest vertex id). ``degree``, when
    given, holds each vertex's clique degree inside its own component;
    otherwise each component's degrees are counted."""
    out: list[_Candidate] = []
    for part in parts:
        for comp in connected_components(g, part):
            degrees = (cs.degrees_within(comp) if degree is None
                       else list(map(degree.__getitem__, comp)))
            count = sum(degrees) // cs.h
            if count == 0:
                continue
            out.append(_Candidate(vertices=comp, clique_count=count,
                                  density=Fraction(count, len(comp)),
                                  degrees=degrees))
    out.sort(key=lambda c: (-c.density, c.vertices))
    return out


def _all_equal(degrees: list[int]) -> bool:
    """Whether a candidate with these clique degrees is self-densest by the
    equal-degree certificate of ``flow.denser_part``."""
    return min(degrees) == max(degrees)


def _verify(g: Graph, cs: CliqueSet, cand: _Candidate, bounds: Bounds,
            cfg: PipelineConfig, stats: RunStats) -> bool:
    stats.verify_calls += 1
    s = cand.vertices
    if cfg.verify_mode == "basic" or cfg.cross_check:
        basic = verify_basic(g, cs, s)
        stats.verify_flow += 1
        if not cfg.cross_check:
            return basic
    paths: Counter[str] = Counter()
    fast = verify_fast(g, cs, s, bounds, count=cand.clique_count, paths=paths)
    stats.verify_early_accept += paths["early_accept"]
    stats.verify_early_reject += paths["early_reject"]
    stats.verify_flow += paths["flow"]
    if cfg.cross_check:
        if basic != fast:
            stats.verify_disagreements += 1
        return basic
    return fast
