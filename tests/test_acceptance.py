"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1, 2, 4 and 5 share one instrumented sweep over 200 seeded random
graphs (n in [4, 10], edge probability in {0.3, 0.5, 0.7}) at h in {2, 3, 4},
comparing every run against the subset-enumeration oracle. A clique query's
bounds come from cores, so criterion 4 also checks the bounds of the
proposal that pattern queries run (20 weight rounds) on the same graphs.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import random
import resource
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import pytest

from lhcds import (PipelineConfig, RunStats, enumerate_cliques, ippv,
                   ippv_pattern, is_densest, derive_compact,
                   oracle_compact_numbers, oracle_lhcds, Graph)
from lhcds.cli import main as cli_main
from lhcds.oracle import _mask_to_tuple, compact_table
from helpers import (clique_edges, gnp, k_n, lds_bruteforce, proposal,
                     suite_graphs, thirteen_triangles, two_k4_bridge_vertex)


def _report(num: int, name: str, ok: bool) -> None:
    print(f"CRITERION {num} ({name}): {'PASS' if ok else 'FAIL'}")


@dataclass
class SuiteOutcome:
    runs: int = 0
    mismatches: list = field(default_factory=list)
    disagreements: int = 0
    verify_calls: int = 0
    bound_violations: int = 0
    proposal_bound_violations: int = 0
    prune_violations: int = 0
    elapsed: float = 0.0
    h2_results: dict = field(default_factory=dict)
    graphs: list = field(default_factory=list)


@pytest.fixture(scope="module")
def suite() -> SuiteOutcome:
    out = SuiteOutcome()
    out.graphs = suite_graphs(seed=20260810, count=200)
    started = time.monotonic()
    for gi, g in enumerate(out.graphs):
        for h in (2, 3, 4):
            out.runs += 1
            phi = oracle_compact_numbers(g, h)
            expected = oracle_lhcds(g, h)
            member_union = set().union(*[set(vs) for vs, _ in expected]) \
                if expected else set()
            events = []
            stats = RunStats()
            got = ippv(g, PipelineConfig(h=h, k=1, emit_all=True,
                                         cross_check=True),
                       stats=stats, on_round=events.append)
            out.disagreements += stats.verify_disagreements
            out.verify_calls += stats.verify_calls
            for ev in events:
                b = ev.bounds
                for u in range(g.n):
                    # exact: the bounds are numerators over b.den
                    if not (b.lower[u] <= phi[u] * b.den <= b.upper[u]):
                        out.bound_violations += 1
                for v in ev.pruned:
                    if v in member_union:
                        out.prune_violations += 1
            _, b = proposal(enumerate_cliques(g, h), 20)
            out.proposal_bound_violations += sum(
                not (b.lower[u] <= phi[u] * b.den <= b.upper[u])
                for u in range(g.n))
            produced = sorted((r.members, r.density) for r in got)
            if produced != sorted(expected):
                out.mismatches.append((gi, h, produced, sorted(expected)))
            if h == 2:
                out.h2_results[gi] = sorted((r.members, r.density) for r in got)
    out.elapsed = time.monotonic() - started
    return out


def test_criterion_01_oracle_exactness(suite):
    ok = not suite.mismatches and suite.runs == 600 and suite.elapsed < 300
    _report(1, "oracle exactness over the random suite", ok)
    assert suite.runs == 600
    assert suite.mismatches == []
    assert suite.elapsed < 300


def test_criterion_02_verification_equivalence(suite):
    ok = suite.disagreements == 0 and suite.verify_calls > 0
    _report(2, "fast and basic verification agree on every popped candidate", ok)
    assert suite.verify_calls > 0
    assert suite.disagreements == 0


def test_criterion_03_derive_compact_exactness():
    rng = random.Random(424242)
    checks = 0
    for _ in range(40):
        g = gnp(rng, rng.randint(4, 10), rng.choice([0.3, 0.5, 0.7]))
        n = g.n
        for h in (2, 3, 4):
            cs = enumerate_cliques(g, h)
            count, compact = compact_table(g, cs.cliques)
            densities = {Fraction(count[m], m.bit_count())
                         for m in compact if count[m] > 0}
            for rho in densities:
                checks += 1
                got = set(derive_compact(cs, rho - Fraction(1, n * n)))
                want = set()
                for m, c in compact.items():
                    if c >= rho:
                        want |= set(_mask_to_tuple(m))
                assert got == want, (sorted(g.adj), h, rho)
    _report(3, f"derive_compact equals the subset oracle ({checks} probes)", True)
    assert checks > 200


def test_criterion_04_bound_soundness(suite):
    ok = suite.bound_violations == suite.proposal_bound_violations == 0
    _report(4, "bounds sandwich the exact compact numbers at every round", ok)
    assert suite.bound_violations == 0
    assert suite.proposal_bound_violations == 0


def test_criterion_05_pruning_safety(suite):
    ok = suite.prune_violations == 0
    _report(5, "no pruned vertex belongs to any locally densest subgraph", ok)
    assert suite.prune_violations == 0


def test_criterion_06_convergence():
    from lhcds import run_iterations
    fixtures = {
        "K4": k_n(4),
        "K5": k_n(5),
        "two-K4-bridge": two_k4_bridge_vertex(),
    }
    ok = True
    for name, g in fixtures.items():
        cs = enumerate_cliques(g, 3)
        phi = oracle_compact_numbers(g, 3)
        errs = []
        for rounds in (100, 1000, 10000):
            ws = run_iterations(cs, rounds)
            errs.append(max(abs(Fraction(x, ws.den) - phi[v])
                            for v, x in enumerate(ws.load)))
        ok = ok and errs[2] <= Fraction(5, 100)
        ok = ok and errs[0] >= errs[1] >= errs[2]
        assert errs[2] <= Fraction(5, 100), (name, errs)
        assert errs[0] >= errs[1] >= errs[2], (name, errs)
    _report(6, "weight iteration converges to the compact numbers", ok)


def test_criterion_07_paper_micro_values():
    k5 = k_n(5)
    top = ippv(k5, PipelineConfig(h=4, k=1))
    assert top[0].density == Fraction(1) and top[0].clique_count == 5

    g13 = thirteen_triangles()
    cs13 = enumerate_cliques(g13, 3)
    assert len(cs13.cliques) == 13
    # oracle cross-check first: the construction is its own densest subgraph
    assert is_densest(cs13)
    assert oracle_lhcds(g13, 3)[0] == ((0, 1, 2, 3, 4, 5), Fraction(13, 6))
    got = ippv(g13, PipelineConfig(h=3, k=1))
    assert got[0].density == Fraction(13, 6)
    _report(7, "micro-values: density 1 on K5 (h=4) and 13/6 on 6 vertices", True)


def test_criterion_08_special_case_reductions(suite):
    for gi, g in enumerate(suite.graphs):
        assert suite.h2_results[gi] == sorted(lds_bruteforce(g)), gi
    for g in suite.graphs[:60]:
        a = ippv_pattern(g, "4clique", PipelineConfig(k=1, emit_all=True))
        b = ippv(g, PipelineConfig(h=4, k=1, emit_all=True))
        assert [(r.members, r.density) for r in a] == \
            [(r.members, r.density) for r in b]
    _report(8, "h=2 matches an independent brute force; 4clique pattern "
               "matches h=4", True)


def test_criterion_09_performance_smoke():
    rng = random.Random(99)
    n, target_m = 10_000, 50_000
    edges = set()
    for block in (range(0, 8), range(8, 16), range(16, 24)):
        edges.update(combinations(block, 2))
    while len(edges) < target_m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    g = Graph.from_edges(n, sorted(edges))

    t0 = time.monotonic()
    fast = ippv(g, PipelineConfig(h=3, k=5, verify_mode="fast"))
    fast_elapsed = time.monotonic() - t0
    t0 = time.monotonic()
    basic = ippv(g, PipelineConfig(h=3, k=5, verify_mode="basic"))
    basic_elapsed = time.monotonic() - t0

    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ok = (fast_elapsed < 60 and peak_mb < 2048
          and fast_elapsed <= basic_elapsed * 1.2 + 1.0)
    _report(9, f"50k-edge run: fast {fast_elapsed:.2f}s vs basic "
               f"{basic_elapsed:.2f}s, peak {peak_mb:.0f} MB", ok)
    assert [(r.members, r.density) for r in fast] == \
        [(r.members, r.density) for r in basic]
    assert fast_elapsed < 60
    assert peak_mb < 2048
    # directional: the reduced network must not make verification slower
    assert fast_elapsed <= basic_elapsed * 1.2 + 1.0


def test_criterion_10_determinism(tmp_path, capsys):
    g = two_k4_bridge_vertex()
    cfg = PipelineConfig(h=3, k=2)
    first = [(r.members, r.density) for r in ippv(g, cfg)]
    second = [(r.members, r.density) for r in ippv(g, cfg)]
    assert first == second

    path = tmp_path / "g.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in
                            clique_edges(range(4)) + clique_edges(range(5, 9))
                            + [(3, 4), (4, 5)]))
    args = ["--input", str(path), "--h", "3", "--k", "2"]
    assert cli_main(args) == 0
    out1 = capsys.readouterr().out
    assert cli_main(args) == 0
    out2 = capsys.readouterr().out
    ok = out1.encode() == out2.encode() and first == second
    _report(10, "repeated runs are byte-identical", ok)
    assert out1.encode() == out2.encode()
