"""Completeness of emit_all past the oracle's 12-vertex limit.

The reference is built here from the flow layer alone, apart from the
driver's proposal, pruning and verification:

- exact compact numbers, one level at a time: starting from the vertices of
  all denser levels, a Dinkelbach iteration with ``derive_compact`` finds
  the next level's density and, as the largest maximizer at that density,
  the nested set of all vertices at or above it;
- the locally densest subgraphs: each connected component of
  {phi >= x} whose members all have phi = x, whose density is x and which
  is self-densest.

The reference is checked against the brute-force oracle on tiny graphs and
then compared with ``emit_all``, and with top-k queries, on seeded planted
graphs of 30-300 vertices. Its compact numbers also check the driver's
bounds there, exactly.
"""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from lhcds import flow, pipeline
from lhcds import (PipelineConfig, RunStats, connected_components,
                   derive_compact, enumerate_cliques, enumerate_patterns,
                   induced_subgraph, ippv, ippv_pattern, is_densest,
                   oracle_compact_numbers, oracle_lhcds, restrict_cliques,
                   verify_basic)
from lhcds.flow import denser_part
from helpers import gnp, planted


def _compact_numbers(g, cs):
    """Every vertex's compact number, exactly, from nested flow cuts.

    With ``inner`` the vertices of the levels found so far, the next level's
    density is the largest (cliques gained) / (vertices gained) over
    supersets of ``inner``. The largest maximizer of cliques - x * size at
    any x below the levels found contains ``inner``, so the Dinkelbach step
    "x := ratio of the largest maximizer at x" climbs to that density, and
    its fixed point is the set of all vertices with phi >= x.
    """
    phi = [None] * g.n
    inner: set[int] = set()
    inner_count = 0
    while len(inner) < g.n:
        x = Fraction(len(cs.cliques) - inner_count, g.n - len(inner))
        while True:
            level = set(derive_compact(cs, x))
            ratio = Fraction(cs.count_within(level) - inner_count,
                             len(level) - len(inner))
            if ratio == x:
                break
            x = ratio
        for v in level - inner:
            phi[v] = x
        inner = level
        inner_count = cs.count_within(inner)
    return phi


def _reference_lhcds(g, cs):
    """Sorted (members, density) of every locally densest subgraph."""
    phi = _compact_numbers(g, cs)
    found = []
    for x in sorted(set(phi)):
        if x == 0:
            continue
        for comp in connected_components(
                g, [v for v in range(g.n) if phi[v] >= x]):
            if any(phi[v] != x for v in comp):
                continue
            if Fraction(cs.count_within(set(comp)), len(comp)) != x:
                continue
            if is_densest(restrict_cliques(cs, comp)):
                found.append((comp, x))
    return sorted(found)


def _tiny_graphs(seed, count):
    rng = random.Random(seed)
    return [gnp(rng, rng.randint(4, 10), rng.choice([0.3, 0.5, 0.7]))
            for _ in range(count)]


def test_reference_matches_oracle():
    for g in _tiny_graphs(seed=31, count=40):
        for h in (2, 3, 4):
            cs = enumerate_cliques(g, h)
            assert _compact_numbers(g, cs) == oracle_compact_numbers(g, h)
            assert _reference_lhcds(g, cs) == sorted(oracle_lhcds(g, h))


def test_denser_part_is_the_vertices_above_the_density():
    rng = random.Random(32)
    checks = 0
    for g in _tiny_graphs(seed=33, count=40):
        for h in (2, 3, 4):
            for comp in connected_components(g):
                s = [v for v in comp if rng.random() < 0.8] or list(comp)
                sub = induced_subgraph(g, s)
                sub_cs = restrict_cliques(enumerate_cliques(g, h), s)
                d = Fraction(len(sub_cs.cliques), sub.n)
                phi = oracle_compact_numbers(sub, h)
                want = tuple(v for v in range(sub.n) if phi[v] > d)
                assert denser_part(sub_cs) == want
                assert is_densest(sub_cs) == (want == ())
                checks += 1
    assert checks > 100


def _planted_case(seed):
    """A 30-300-vertex planted graph: blocks of 5-9 vertices at p=0.8 and
    about n uniform edges besides."""
    rng = random.Random(seed)
    n = rng.randint(30, 300)
    blocks = max(1, n // 25)
    return planted(seed, n=n, m=blocks * 17 + n, blocks=blocks, size_lo=5,
                   size_hi=9, p=0.8), rng.choice([2, 3, 4])


@pytest.mark.time_limit(20)  # each case took 0.02-1.8 s when measured
@pytest.mark.parametrize("seed, mode", [
    *((seed, h) for h in (3, 4) for seed in range(1, 9)),
    *((seed, "diamond") for seed in range(1, 4))])
def test_bounds_hold_compact_numbers_exactly(seed, mode):
    # the propose and prune pass's bounds against the reference's compact
    # numbers, on 150-vertex graphs past the oracle's cap, with no tolerance
    g = planted(seed, n=150, m=600, blocks=6, size_lo=5, size_hi=12, p=0.7)
    events = []
    cfg = PipelineConfig(h=3 if mode == "diamond" else mode, k=1)
    if mode == "diamond":
        ippv_pattern(g, mode, cfg, on_round=events.append)
        cs = enumerate_patterns(g, mode)
    else:
        ippv(g, cfg, on_round=events.append)
        cs = enumerate_cliques(g, mode)
    phi = _compact_numbers(g, cs)
    (ev,) = events
    b = ev.bounds
    for v in range(g.n):
        assert Fraction(b.lower[v], b.den) <= phi[v] <= \
            Fraction(b.upper[v], b.den)


@pytest.mark.time_limit(10)  # each case took under 1 s when measured
@pytest.mark.parametrize("seed", range(40))
def test_emit_all_matches_reference(seed):
    g, h = _planted_case(seed)
    stats = RunStats()
    got = ippv(g, PipelineConfig(h=h, k=1, emit_all=True, cross_check=True),
               stats=stats)
    assert sorted((r.members, r.density) for r in got) == \
        _reference_lhcds(g, enumerate_cliques(g, h))
    assert stats.verify_disagreements == 0


@pytest.mark.time_limit(10)
@pytest.mark.parametrize("seed", range(40))
def test_top_k_records_are_reference_lhcds(seed):
    # below the number of locally densest subgraphs a query stops early:
    # each record it returns must still be one of them, and they must not
    # overlap
    g, h = _planted_case(seed)
    reference = _reference_lhcds(g, enumerate_cliques(g, h))
    for k in (1, 2, 3, 5):
        got = ippv(g, PipelineConfig(h=h, k=k))
        assert len(got) == min(k, len(reference))
        assert all((r.members, r.density) in reference for r in got)
        members = [v for r in got for v in r.members]
        assert len(members) == len(set(members))


@pytest.mark.time_limit(10)
@pytest.mark.parametrize("seed", range(40))
def test_equal_degree_certificate_changes_nothing(seed, monkeypatch):
    # the same run with every densest check decided by a flow network
    g, h = _planted_case(seed)
    cfg = PipelineConfig(h=h, k=1, emit_all=True)
    stats = RunStats()
    got = ippv(g, cfg, stats=stats)
    monkeypatch.setattr(pipeline, "_all_equal", lambda degrees: False)
    forced = RunStats()
    assert ippv(g, cfg, stats=forced) == got
    assert forced == replace(stats, densest_certified=0)


@pytest.mark.time_limit(60)
def test_driver_verifications_agree(monkeypatch):
    # Every fast verification the driver makes on the 40 planted graphs,
    # run again without the driver's clique count and by the whole-graph
    # flow. All three verdicts agree, and the call without the count decides
    # by the same path.
    real_verify = flow.verify_fast
    seen = Counter()

    def checking(g, cs, s, bounds, *, count, paths):
        got = real_verify(g, cs, s, bounds, count=count, paths=paths)
        plain = Counter()
        assert real_verify(g, cs, s, bounds, paths=plain) == got
        assert plain == paths
        assert verify_basic(g, cs, s) == got
        seen.update(plain)
        return got

    monkeypatch.setattr(pipeline, "verify_fast", checking)
    for seed in range(40):
        g, h = _planted_case(seed)
        ippv(g, PipelineConfig(h=h, k=1, emit_all=True))
    assert sum(seen.values()) > 100
    assert all(seen[path] for path in ("early_accept", "early_reject", "flow"))


@pytest.mark.time_limit(60)  # took about 3 s when measured
def test_fast_equals_basic_past_the_reference():
    # a 3000-vertex planted graph, ten times the reference cases above: fast
    # and basic verification must emit the same records, each must pass the
    # whole-graph verify_basic, and flow networks must decide enough densest
    # checks and fast verifications to matter
    g = planted(5, n=3000, m=9000, blocks=20, size_lo=10, size_hi=30, p=0.7)
    cs = enumerate_cliques(g, 3)
    cfg = PipelineConfig(h=3, k=1, emit_all=True)
    fast = RunStats()
    got = ippv(g, cfg, stats=fast)
    assert ippv(g, replace(cfg, verify_mode="basic")) == got
    assert got and all(verify_basic(g, cs, r.members) for r in got)
    assert fast.densest_checks - fast.densest_certified >= 20
    assert fast.verify_flow >= 5
