import dataclasses
import random
from fractions import Fraction

import pytest

from lhcds import (Graph, PipelineConfig, RunStats, connected_components,
                   enumerate_cliques, enumerate_patterns, flow, ippv,
                   ippv_pattern, oracle_compact_numbers, oracle_lhcds, prune,
                   verify_basic)
from helpers import (clique_edges, core_bounds, gnp, k_n, path_n, planted,
                     proposal, star, thirteen_triangles, triangle,
                     two_k4_bridge_vertex)


def _members(records):
    return [(r.members, r.density) for r in records]


def test_two_k4s_top2():
    got = ippv(two_k4_bridge_vertex(), PipelineConfig(h=3, k=2))
    assert _members(got) == [((0, 1, 2, 3), Fraction(1)),
                             ((5, 6, 7, 8), Fraction(1))]
    assert [r.rank for r in got] == [1, 2]


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


@pytest.mark.time_limit(60)  # took about 4 s when measured
def test_emit_all_matches_oracle_at_its_cap():
    # the acceptance suite stops at 10 vertices; these are 11 and 12, the
    # oracle's cap. Every set emit_all finds with cross_check is the
    # oracle's, and the bounds of every round bracket the compact numbers,
    # as do the proposal's after 20 weight rounds
    rng = random.Random(1122)
    runs = 0
    for i in range(10):
        g = gnp(rng, 11 + i % 2, (0.3, 0.5, 0.7)[i % 3])
        for h in (2, 3, 4):
            phi = oracle_compact_numbers(g, h)
            events = []
            stats = RunStats()
            got = ippv(g, PipelineConfig(h=h, k=1, emit_all=True,
                                         cross_check=True),
                       stats=stats, on_round=events.append)
            assert sorted(_members(got)) == sorted(oracle_lhcds(g, h))
            assert stats.verify_disagreements == 0
            _, tightened = proposal(enumerate_cliques(g, h), 20)
            for b in [ev.bounds for ev in events] + [tightened]:
                assert all(b.lower[v] <= phi[v] * b.den <= b.upper[v]
                           for v in range(g.n))
            runs += bool(got)
    assert runs > 20


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
    # both K4s have equal triangle degrees: no densest check builds a
    # network, and the bounds settle both verifications without one
    assert st.densest_certified == st.densest_checks == 2
    assert st.verify_early_accept == st.verify_calls == 2
    assert st.verify_early_reject == st.verify_flow == st.flow_calls == 0


def test_fw_updates_counts_every_round():
    # a pattern query's one pass runs one instance step per instance, per
    # weight round, and the worklist after it runs no weight iteration; a
    # clique query, the 4clique pattern too, runs no weight round at all
    g = planted(1, n=300, m=1500, blocks=10, size_lo=6, size_hi=14, p=0.7)
    cfg = PipelineConfig(h=3, k=3)
    for kind, rounds in ((3, 0), ("4clique", 0), ("diamond", cfg.iterations)):
        cs = _instances(g, kind)
        stats = RunStats()
        events = []
        _query(g, kind, cfg, stats=stats, on_round=events.append)
        assert len(events) == stats.rounds == 1
        assert stats.max_iterations_used == rounds
        assert stats.fw_updates == rounds * len(cs.cliques)
        assert cs.cliques, kind


@pytest.mark.time_limit(10)
def test_flow_calls_counts_every_network(monkeypatch):
    # Every densest check builds one network unless equal clique degrees
    # decide it; every basic verification builds one, and a fast one only
    # when its bounds do not decide. A split must not build its candidate's
    # network again.
    built = []
    real = flow.build_network

    def counting(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(flow, "build_network", counting)
    for mode in ("basic", "fast"):
        certified = []
        for p in (0.7, 1.0):
            built.clear()
            g = planted(1, n=300, m=1500, blocks=10, size_lo=6, size_hi=14,
                        p=p)
            stats = RunStats()
            ippv(g, PipelineConfig(h=3, k=1, emit_all=True, verify_mode=mode),
                 stats=stats)
            # a densest check that passes leads to one verification, one
            # that fails to a split
            assert stats.densest_checks > stats.verify_calls
            assert len(built) == stats.flow_calls == stats.densest_checks - \
                stats.densest_certified + stats.verify_flow
            assert stats.verify_early_accept + stats.verify_early_reject + \
                stats.verify_flow == stats.verify_calls
            if mode == "basic":
                assert stats.verify_flow == stats.verify_calls
            else:  # some fast verification still needs its network
                assert 0 < stats.verify_flow < stats.verify_calls
            certified.append(stats.densest_certified)
        # blocks at p=0.7 are not regular; complete blocks are
        assert certified[0] == 0 < certified[1]


def test_config_validation():
    with pytest.raises(ValueError):
        ippv(triangle(), PipelineConfig(h=1))
    with pytest.raises(ValueError):
        ippv(triangle(), PipelineConfig(k=0))
    with pytest.raises(ValueError):
        ippv(triangle(), PipelineConfig(iterations=0))
    with pytest.raises(ValueError):
        ippv(triangle(), PipelineConfig(verify_mode="other"))


def test_config_is_checked_when_built_and_frozen():
    with pytest.raises(ValueError, match="k must be >= 1"):
        PipelineConfig(k=0)
    cfg = PipelineConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.k = 3


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
    time); every emitted set must pass whole-graph verification, and the
    one propose pass must have fired on_round."""
    stats = RunStats()
    events = []
    got = ippv(g, cfg, stats=stats, on_round=events.append)
    assert got
    cs = enumerate_cliques(g, cfg.h)
    assert all(verify_basic(g, cs, r.members) for r in got)
    assert stats.rounds == 1 == len(events)
    assert stats.max_iterations_used == stats.fw_updates == 0


@pytest.mark.time_limit(10)
def test_terminates_on_non_self_densest_working_set():
    # Here the pass proposes a 179-vertex candidate of density 968/179,
    # which is not self-densest (the proposal's bounds at 20 weight rounds
    # propose it too); only splitting it by its flow witness gets past it.
    g = planted(1, n=1500, m=10_000, blocks=20, size_lo=6, size_hi=14, p=0.7)
    _assert_terminates(g, PipelineConfig(h=3, k=10))


@pytest.mark.time_limit(10)
@pytest.mark.parametrize("seed", [1, 4, 5, 8, 9])
def test_terminates_emit_all_planted(seed):
    g = planted(seed, n=300, m=1500, blocks=10, size_lo=6, size_hi=14, p=0.7)
    _assert_terminates(g, PipelineConfig(h=3, k=1, emit_all=True))


@pytest.mark.time_limit(10)  # took about 0.2 s when measured
@pytest.mark.parametrize("seed", [9, 14])
def test_clique_answers_ignore_iterations(seed):
    # With the proposal's bounds, the top-5 answers on these two graphs of
    # ROADMAP item 1's family moved with the weight rounds (5, 20, 100). A
    # clique query takes its bounds from cores, so the rounds cannot move
    # them
    g = planted(seed, n=3000, m=12000, blocks=20, size_lo=6, size_hi=10,
                p=1.0)
    got = [_members(ippv(g, PipelineConfig(h=3, k=5, iterations=rounds)))
           for rounds in (5, 20, 100)]
    assert len(got[0]) == 5
    assert got[0] == got[1] == got[2]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("seed", [9, 12, 14])
def test_top1_is_densest_of_emit_all(seed):
    # The driver ranks candidates by their own density, but a sparser
    # candidate can hold a denser LhCDS: here top-1 is a 28/3 set while
    # emit_all finds a density-12 one.
    g = planted(seed, n=3000, m=12000, blocks=20, size_lo=6, size_hi=10,
                p=1.0)
    everything = ippv(g, PipelineConfig(h=3, k=1, emit_all=True))
    top = ippv(g, PipelineConfig(h=3, k=1))
    assert top[0].density == max(r.density for r in everything)


def _instances(g, kind):
    if isinstance(kind, int):
        return enumerate_cliques(g, kind)
    return enumerate_patterns(g, kind)


def _query(g, kind, cfg, **kwargs):
    if isinstance(kind, int):
        return ippv(g, dataclasses.replace(cfg, h=kind), **kwargs)
    return ippv_pattern(g, kind, cfg, **kwargs)


def _support_run(g, kind, cfg=PipelineConfig(emit_all=True)):
    """Runs the query and checks its pass against one rebuilt from
    whole-graph calls: each clique-free vertex pruned with bounds 0/0, the
    same bounds (core bounds for cliques, the 4clique pattern included, and
    the proposal's for other patterns), and as candidates the
    clique-bearing components of the whole-graph survivors, densest first.
    Every record must pass whole-graph verification. Returns the records
    and the event."""
    cs = _instances(g, kind)
    stats = RunStats()
    events = []
    got = _query(g, kind, cfg, stats=stats, on_round=events.append)
    (ev,) = events
    for v in range(g.n):
        if not cs.degree[v]:
            assert v in ev.pruned
            assert ev.bounds.upper[v] == ev.bounds.lower[v] == 0
    assert stats.pruned_vertices == len(ev.pruned)

    if isinstance(kind, int) or kind == "4clique":
        bounds = core_bounds(cs)
        assert stats.fw_updates == 0
    else:
        _, bounds = proposal(cs, cfg.iterations)
        assert stats.fw_updates == cfg.iterations * len(cs.cliques)
    assert ev.bounds == bounds
    surviving = prune(g, bounds, cs)
    # a clique-free vertex with no clique-bearing neighbour survives the
    # whole-graph rules, but no candidate holds it
    alive = set(surviving)
    assert ev.pruned == tuple(v for v in range(g.n)
                              if v not in alive or not cs.degree[v])
    comps = [(-Fraction(count, len(comp)), comp)
             for comp in connected_components(g, surviving)
             if (count := cs.count_within(comp))]
    assert ev.candidates == [comp for _, comp in sorted(comps)]

    for r in got:
        assert verify_basic(g, cs, r.members)
        assert r.vertices == tuple(sorted(g.labels[v] for v in r.members))
    return got, ev


@pytest.mark.time_limit(20)  # all seven kinds took about 1 s when measured
@pytest.mark.parametrize("kind", [2, 3, 4, "4clique", "diamond", "4loop",
                                  "tailed-triangle"])
def test_pass_on_the_clique_support(kind):
    # the pass runs on the vertices in some clique (or instance); its event
    # and records must read as a pass over the whole graph would
    for seed in range(1, 4):
        g = planted(seed, n=400, m=1200, blocks=6, size_lo=5, size_hi=8,
                    p=0.8)
        got, ev = _support_run(g, kind)
        assert got and len(ev.pruned) < g.n


def test_pass_on_an_empty_support():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (4, 5)])
    got, ev = _support_run(g, 3)
    assert got == [] and ev.candidates == []
    assert ev.pruned == tuple(range(6))


def test_pass_on_a_support_of_every_vertex():
    g = thirteen_triangles()
    assert all(enumerate_cliques(g, 3).degree)
    got, _ = _support_run(g, 3)
    assert [r.members for r in got] == [(0, 1, 2, 3, 4, 5)]


def test_pass_on_the_support_keeps_whole_graph_ids_and_labels():
    # isolated vertices 2 and 8, a pendant path 0-7-9 and a K4 on
    # {1, 3, 5, 6}, with labels in no order
    labels = [70, 10, 60, 20, 50, 30, 40, 0, 90, 80]
    g = Graph.from_edges(10, [*clique_edges((1, 3, 5, 6)), (0, 7), (7, 9),
                              (9, 1)], labels=labels)
    for kind in (3, 4):
        got, ev = _support_run(g, kind)
        assert [(r.members, r.vertices) for r in got] == \
            [((1, 3, 5, 6), (10, 20, 30, 40))]
        assert ev.pruned == (0, 2, 4, 7, 8, 9)


def test_pass_on_the_support_keeps_blocks_joined_by_a_clique_free_path():
    # two K5s joined by the path 4-5-6-7-8, whose inner vertices lie in no
    # triangle: the K5s stay two candidates and two records
    g = Graph.from_edges(13, [*clique_edges(range(5)), (4, 5), (5, 6),
                              (6, 7), (7, 8), *clique_edges(range(8, 13))])
    got, ev = _support_run(g, 3)
    assert ev.candidates == [(0, 1, 2, 3, 4), (8, 9, 10, 11, 12)]
    assert [r.members for r in got] == ev.candidates
