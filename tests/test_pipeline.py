import random
from fractions import Fraction

import pytest

from lhcds import (PipelineConfig, RunStats, enumerate_cliques, ippv,
                   ippv_pattern, oracle_lhcds, verify_basic)
from helpers import (gnp, k_n, path_n, planted, star, thirteen_triangles,
                     triangle, two_k4_bridge_vertex)


def _members(records):
    return [(r.members, r.density) for r in records]


def test_two_k4s_top2():
    got = ippv(two_k4_bridge_vertex(), PipelineConfig(h=3, k=2))
    assert _members(got) == [((0, 1, 2, 3), Fraction(1)),
                             ((5, 6, 7, 8), Fraction(1))]
    assert [r.rank for r in got] == [1, 2]
    assert all(r.verified for r in got)


def test_k5_top1_four_cliques():
    got = ippv(k_n(5), PipelineConfig(h=4, k=1))
    assert _members(got) == [((0, 1, 2, 3, 4), Fraction(1))]
    assert got[0].clique_count == 5


def test_triangle_free_graph_empty():
    assert ippv(path_n(5), PipelineConfig(h=3, k=3)) == []


def test_thirteen_sixths():
    got = ippv(thirteen_triangles(), PipelineConfig(h=3, k=1))
    assert got[0].density == Fraction(13, 6)
    assert got[0].members == (0, 1, 2, 3, 4, 5)


def test_k_larger_than_result_count():
    got = ippv(two_k4_bridge_vertex(), PipelineConfig(h=3, k=50))
    assert len(got) == 2


def test_emit_all_matches_oracle():
    rng = random.Random(8)
    for _ in range(15):
        g = gnp(rng, rng.randint(4, 9), 0.5)
        for h in (2, 3):
            got = ippv(g, PipelineConfig(h=h, k=1, emit_all=True))
            assert sorted(_members(got)) == sorted(oracle_lhcds(g, h))


def test_modes_agree():
    rng = random.Random(14)
    for _ in range(10):
        g = gnp(rng, 8, 0.6)
        fast = ippv(g, PipelineConfig(h=3, k=3, verify_mode="fast"))
        basic = ippv(g, PipelineConfig(h=3, k=3, verify_mode="basic"))
        assert _members(fast) == _members(basic)


def test_deterministic_repetition():
    g = gnp(random.Random(5), 9, 0.5)
    cfg = PipelineConfig(h=3, k=4, emit_all=True)
    assert _members(ippv(g, cfg)) == _members(ippv(g, cfg))


def test_records_disjoint_and_sorted():
    g = gnp(random.Random(100), 10, 0.6)
    got = ippv(g, PipelineConfig(h=3, k=1, emit_all=True))
    seen = set()
    last = None
    for r in got:
        assert not (set(r.members) & seen)
        seen |= set(r.members)
        if last is not None:
            assert r.density <= last
        last = r.density
        assert r.density == Fraction(r.clique_count, len(r.members))


def test_stats_counters():
    st = RunStats()
    ippv(two_k4_bridge_vertex(), PipelineConfig(h=3, k=2), stats=st)
    assert st.clique_count == 8
    assert st.rounds >= 1
    assert st.emitted == 2
    assert st.flow_calls == st.densest_checks + st.verify_calls > 0


def test_config_validation():
    with pytest.raises(ValueError):
        ippv(triangle(), PipelineConfig(h=1))
    with pytest.raises(ValueError):
        ippv(triangle(), PipelineConfig(k=0))
    with pytest.raises(ValueError):
        ippv(triangle(), PipelineConfig(iterations=0))
    with pytest.raises(ValueError):
        ippv(triangle(), PipelineConfig(verify_mode="other"))


def test_pattern_4clique_equals_h4():
    rng = random.Random(21)
    for _ in range(10):
        g = gnp(rng, 8, 0.65)
        a = ippv_pattern(g, "4clique", PipelineConfig(k=1, emit_all=True))
        b = ippv(g, PipelineConfig(h=4, k=1, emit_all=True))
        assert _members(a) == _members(b)


def test_pattern_4loop_on_k4():
    got = ippv_pattern(k_n(4), "4loop", PipelineConfig(k=1))
    assert _members(got) == [((0, 1, 2, 3), Fraction(3, 4))]


def test_pattern_star():
    got = ippv_pattern(star(3), "3star", PipelineConfig(k=1))
    assert _members(got) == [((0, 1, 2, 3), Fraction(1, 4))]


def test_pattern_unsupported():
    with pytest.raises(ValueError):
        ippv_pattern(triangle(), "hexagon", PipelineConfig())


def _assert_terminates(g, cfg):
    """Runs the query (its caller's 10 s limit is about 20x the measured
    time); every emitted set must pass whole-graph verification, and every
    round must have fired on_round."""
    stats = RunStats()
    events = []
    got = ippv(g, cfg, stats=stats, on_round=events.append)
    assert got
    cs = enumerate_cliques(g, cfg.h)
    assert all(verify_basic(g, cs, r.members) for r in got)
    assert len(events) == stats.rounds
    assert stats.max_iterations_used == cfg.iterations


@pytest.mark.time_limit(10)
def test_terminates_on_non_self_densest_working_set():
    # Here the proposal returns an 87-vertex working set of density 52/29,
    # which is not self-densest, as one stable group at any iteration count;
    # only splitting it by its flow witness gets past it.
    g = planted(1, n=1500, m=10_000, blocks=20, size_lo=6, size_hi=14, p=0.7)
    _assert_terminates(g, PipelineConfig(h=3, k=10))


@pytest.mark.time_limit(10)
@pytest.mark.parametrize("seed", [1, 4, 5, 8, 9])
def test_terminates_emit_all_planted(seed):
    g = planted(seed, n=300, m=1500, blocks=10, size_lo=6, size_hi=14, p=0.7)
    _assert_terminates(g, PipelineConfig(h=3, k=1, emit_all=True))
