import random
from fractions import Fraction

import pytest

from lhcds import (Graph, enumerate_cliques, enumerate_patterns,
                   init_weights, initialize_bounds, clique_core_numbers,
                   derive_stable_groups, run_iterations,
                   tentative_decomposition)
from helpers import (clique_edges, gnp, is_stable_group, k_n, planted,
                     share_rows, share_sums, stable_groups_reference,
                     triangle, two_k4_bridge_vertex)


def _propose(g, h, rounds):
    cs = enumerate_cliques(g, h)
    ws = run_iterations(cs, rounds)
    partition = tentative_decomposition(ws)
    groups, bounds = derive_stable_groups(partition, ws,
                                          clique_core_numbers(cs))
    return cs, ws, partition, groups, bounds


def _interval(bounds, v):
    return Fraction(bounds.lower[v], bounds.den), \
        Fraction(bounds.upper[v], bounds.den)


def test_triangle_single_group_bounds_pin_third():
    # the load oscillation shrinks like 1/rounds, so 20k rounds pin the
    # group range (and with it both bounds) tightly around 1/3
    g = triangle()
    cs, ws, partition, groups, bounds = _propose(g, 3, 20_000)
    assert groups == [(0, 1, 2)]
    third = Fraction(1, 3)
    for v in range(3):
        lower, upper = _interval(bounds, v)
        assert lower <= third <= upper
        assert upper - lower < Fraction(1, 1000)


def test_two_plateaus_two_groups():
    # disjoint K5 and K4: loads settle near 2 and 1
    g = Graph.from_edges(9, clique_edges(range(5)) + clique_edges(range(5, 9)))
    cs, ws, partition, groups, bounds = _propose(g, 3, 200)
    assert groups == [(0, 1, 2, 3, 4), (5, 6, 7, 8)]
    assert min(ws.load[v] for v in groups[0]) > \
        max(ws.load[v] for v in groups[1])
    for v in range(9):
        lower, upper = _interval(bounds, v)
        assert lower <= (2 if v < 5 else 1) <= upper


def test_bridge_vertex_separated():
    g = two_k4_bridge_vertex()
    cs, ws, partition, groups, bounds = _propose(g, 3, 20)
    assert groups[0] == (0, 1, 2, 3, 5, 6, 7, 8)
    assert groups[1] == (4,)


def test_partition_blocks_cover_and_order():
    rng = random.Random(31)
    for _ in range(20):
        g = gnp(rng, rng.randint(3, 9), 0.5)
        cs = enumerate_cliques(g, 3)
        ws = run_iterations(cs, 20)
        sort_load = ws.load[:]  # the exact loads the sort reads
        partition = tentative_decomposition(ws)
        flat = [v for grp in partition.groups for v in grp]
        assert sorted(flat) == list(range(g.n))
        # blocks follow the sort-time load order
        seq = [v for grp in partition.groups for v in
               sorted(grp, key=lambda u: (-sort_load[u], u))]
        assert seq == sorted(range(g.n), key=lambda u: (-sort_load[u], u))


def test_reassignment_conserves_mass():
    # exact: every clique keeps den, and each load is the sum of its shares
    rng = random.Random(77)
    for _ in range(25):
        g = gnp(rng, rng.randint(4, 9), 0.6)
        for h in (3, 4):
            cs = enumerate_cliques(g, h)
            ws = run_iterations(cs, 7)
            tentative_decomposition(ws)
            for row in share_rows(ws):
                assert sum(row) == ws.den
                assert all(x >= 0 for x in row)
            assert ws.load == share_sums(ws)
            assert sum(ws.load) == len(cs.cliques) * ws.den


def test_whole_set_always_stable():
    g = k_n(5)
    cs = enumerate_cliques(g, 3)
    ws = run_iterations(cs, 5)
    tentative_decomposition(ws)
    assert is_stable_group(tuple(range(5)), ws)


def test_outward_share_blocks_stability():
    # K4 plus vertex 4 on the triangle (0, 1, 4); with untouched uniform
    # shares the clique {0,1,4} still carries weight on vertex 0, so {4}
    # cannot be split off
    g = Graph.from_edges(5, clique_edges(range(4)) + [(0, 4), (1, 4)])
    cs = enumerate_cliques(g, 3)
    assert not is_stable_group((4,), init_weights(cs))


def _decomposed_groups_match_reference(cs, rounds):
    ws = run_iterations(cs, rounds)
    partition = tentative_decomposition(ws)
    core = clique_core_numbers(cs)
    got = derive_stable_groups(partition, ws, core)
    assert got == stable_groups_reference(partition, ws, core)
    return ws, partition, got[0]


def test_reassignment_settles_the_inward_condition():
    # the same graph and a clique-free vertex 5, from the other side: in the
    # uniform state the K4 is separated in load from the lighter 4 and no
    # vertex is heavier, but the triangle (0, 1, 4) carries weight on 0 and
    # 1, so the reference's condition (3) alone rejects the K4. The library
    # tests separation and (2) only, which is exact on the partitions the
    # decomposition makes; here it puts the K4 and 4 in one block
    g = Graph.from_edges(6, clique_edges(range(4)) + [(0, 4), (1, 4)])
    cs = enumerate_cliques(g, 3)
    assert not is_stable_group((0, 1, 2, 3), init_weights(cs))
    for rounds in range(6):
        _decomposed_groups_match_reference(cs, rounds)
    # K5 less the edge (1, 5), the lighter 2 on the triangle (2, 3, 5) and
    # 6 hanging off 2: the decomposition splits off 2, so the triangle
    # spans two blocks. Before its reassignment it carries weight on 3 and
    # 5 and (3) fails for the K5's block; after it, its weight is all on 2
    edges = [(u, v) for u in (0, 1, 3, 4, 5) for v in (0, 1, 3, 4, 5)
             if u < v and (u, v) != (1, 5)] + [(2, 3), (2, 5), (2, 6)]
    cs = enumerate_cliques(Graph.from_edges(7, edges), 3)
    for rounds in range(6):
        ws, partition, groups = _decomposed_groups_match_reference(cs, rounds)
        assert partition.groups == [(0, 1, 3, 4, 5), (2,), (6,)]
        assert partition.spanning == [cs.cliques.index((2, 3, 5))]
        if rounds:
            assert not is_stable_group((0, 1, 3, 4, 5),
                                       run_iterations(cs, rounds))
            assert is_stable_group((0, 1, 3, 4, 5), ws)
            assert groups == partition.groups


def test_derived_groups_disjoint_and_stable():
    rng = random.Random(5)
    for _ in range(25):
        g = gnp(rng, rng.randint(4, 9), 0.5)
        cs = enumerate_cliques(g, 3)
        ws = run_iterations(cs, 20)
        partition = tentative_decomposition(ws)
        core = clique_core_numbers(cs)
        bounds = initialize_bounds(core, 3, ws.den)
        groups, tightened = derive_stable_groups(partition, ws, core)
        seen = set()
        for grp in groups:
            assert not (set(grp) & seen)
            seen |= set(grp)
            assert is_stable_group(grp, ws)
        assert seen == set(range(g.n))
        for v in range(g.n):
            assert tightened.upper[v] <= bounds.upper[v]
            assert tightened.lower[v] >= bounds.lower[v]
            assert tightened.lower[v] <= tightened.upper[v]


def _seeded_clique_sets(mode):
    """Clique sets of seeded gnp and planted graphs, at h=3, at h=4 or in
    a non-clique pattern mode, each with a few weight rounds and with 20."""
    rng = random.Random(41)
    graphs = [gnp(rng, rng.randint(6, 14), rng.choice([0.4, 0.6, 0.8]))
              for _ in range(10)]
    graphs += [planted(seed, n=200, m=700, blocks=8, size_lo=5, size_hi=10,
                       p=0.8) for seed in range(1, 7)]
    for g in graphs:
        if mode in ("h3", "h4"):
            cs = enumerate_cliques(g, int(mode[1]))
        else:
            cs = enumerate_patterns(g, mode)
        for rounds in (3, 20):
            yield cs, run_iterations(cs, rounds)


@pytest.mark.parametrize("mode", ["h3", "h4", "diamond"])
def test_spanning_lists_cliques_across_blocks(mode):
    spanned = 0
    for cs, ws in _seeded_clique_sets(mode):
        partition = tentative_decomposition(ws)
        block_of = {v: b for b, grp in enumerate(partition.groups)
                    for v in grp}
        want = [cid for cid, members in enumerate(cs.cliques)
                if len({block_of[v] for v in members}) >= 2]
        assert partition.spanning == want
        spanned += len(want)
    assert spanned > 0


@pytest.mark.parametrize("mode", ["h3", "h4", "diamond", "tailed-triangle",
                                  "4loop", "3star", "4path"])
def test_stable_groups_match_full_incidence_scan(mode):
    # testing separation and condition (2) over the spanning cliques that
    # touch a group gives the same groups, and exactly the same bounds, as
    # testing the full definition over every clique incident to it
    for cs, ws in _seeded_clique_sets(mode):
        partition = tentative_decomposition(ws)
        core = clique_core_numbers(cs)
        got = derive_stable_groups(partition, ws, core)
        assert got == stable_groups_reference(partition, ws, core)


@pytest.mark.time_limit(60)  # took about 2 s when measured
def test_stable_groups_match_the_definition_on_random_cases():
    # random gnp and planted graphs at h = 3, 4 and 5 and in every
    # non-clique pattern mode, after 0 to 25 weight rounds; the exactness
    # argument of derive_stable_groups rests on the reassignment leaving
    # each spanning clique positive shares in its last block and 0 elsewhere
    rng = random.Random(20261022)
    modes = [3, 4, 5, "diamond", "tailed-triangle", "4loop", "3star", "4path"]
    spanned = 0
    for case in range(400):
        if case % 4:
            g = gnp(rng, rng.randint(4, 12), rng.choice([0.4, 0.6, 0.8]))
        else:
            n = rng.randint(30, 120)
            g = planted(rng.randrange(10**6), n=n, m=3 * n, blocks=4,
                        size_lo=4, size_hi=8, p=0.8)
        mode = rng.choice(modes)
        cs = (enumerate_cliques(g, mode) if isinstance(mode, int)
              else enumerate_patterns(g, mode))
        ws = run_iterations(cs, rng.randint(0, 25))
        partition = tentative_decomposition(ws)
        spanned += bool(partition.spanning)
        block_of = {v: b for b, grp in enumerate(partition.groups)
                    for v in grp}
        for cid in partition.spanning:
            members = cs.cliques[cid]
            last = max(map(block_of.__getitem__, members))
            row = ws.share[cid * cs.h:(cid + 1) * cs.h]
            assert all((x > 0) == (block_of[v] == last)
                       for v, x in zip(members, row)), (case, mode, cid)
        core = clique_core_numbers(cs)
        assert derive_stable_groups(partition, ws, core) == \
            stable_groups_reference(partition, ws, core), (case, mode)
    assert spanned >= 100


def _checked_stable_groups(n, edges, rounds):
    """derive_stable_groups on a triangle set, checked against the
    reference."""
    cs = enumerate_cliques(Graph.from_edges(n, edges), 3)
    ws = run_iterations(cs, rounds)
    partition = tentative_decomposition(ws)
    core = clique_core_numbers(cs)
    groups, got = derive_stable_groups(partition, ws, core)
    assert (groups, got) == stable_groups_reference(partition, ws, core)
    return ws, partition, groups


def test_separated_block_fails_a_share_condition():
    # K4 plus a diamond: after one round the diamond's tip 6 is the only
    # vertex at its load, so its block passes the separation test, but the
    # triangle (4, 5, 6) still carries share on the heavier 4 and 5
    edges = clique_edges(range(4)) + [(4, 5), (4, 6), (5, 6), (4, 7), (5, 7)]
    ws, partition, groups = _checked_stable_groups(8, edges, 1)
    assert partition.groups == [(0, 1, 2, 3), (6,), (4, 5, 7)]
    assert ws.load.count(ws.load[6]) == 1
    assert not is_stable_group((6,), ws)
    assert groups == [(0, 1, 2, 3), (4, 5, 6, 7)]


def test_unstable_tail_merges_backward():
    # K4 with a triangle hanging off 3, and a separate triangle: after two
    # rounds (4, 5) closes a stable group, (6,) passes separation and fails
    # a share condition, and the tail (6, 7, 8) spans (4, 5)'s load, so the
    # backward merge takes (4, 5) back into the last group
    edges = clique_edges(range(4)) + clique_edges([3, 4, 5]) \
        + clique_edges([6, 7, 8])
    ws, partition, groups = _checked_stable_groups(9, edges, 2)
    assert partition.groups == [(0, 1, 2, 3), (4, 5), (6,), (7, 8)]
    assert is_stable_group((4, 5), ws)
    assert ws.load.count(ws.load[6]) == 1
    assert not is_stable_group((6,), ws)
    assert not is_stable_group((6, 7, 8), ws)
    assert groups == [(0, 1, 2, 3), (4, 5, 6, 7, 8)]
