import random
from fractions import Fraction

from lhcds import (Graph, enumerate_cliques, init_weights, initialize_bounds,
                   clique_core_numbers, derive_stable_groups,
                   run_iterations, tentative_decomposition)
from helpers import (clique_edges, gnp, is_stable_group, k_n, triangle,
                     two_k4_bridge_vertex)


def _propose(g, h, rounds):
    cs = enumerate_cliques(g, h)
    ws = run_iterations(init_weights(cs), rounds)
    partition, ws = tentative_decomposition(g, cs, ws)
    bounds = initialize_bounds(clique_core_numbers(g, cs), h)
    groups, bounds = derive_stable_groups(partition, ws, cs, bounds)
    return cs, ws, partition, groups, bounds


def test_triangle_single_group_bounds_pin_third():
    # the load oscillation shrinks like 1/rounds, so 20k rounds pin the
    # group range (and with it both bounds) tightly around 1/3
    g = triangle()
    cs, ws, partition, groups, bounds = _propose(g, 3, 20_000)
    assert groups == [(0, 1, 2)]
    third = Fraction(1, 3)
    for v in range(3):
        assert bounds.lower[v] <= third <= bounds.upper[v]
        assert abs(float(bounds.upper[v]) - 1 / 3) < 1e-3
        assert abs(float(bounds.lower[v]) - 1 / 3) < 1e-3


def test_two_plateaus_two_groups():
    # disjoint K5 and K4: loads settle near 2 and 1
    g = Graph.from_edges(9, clique_edges(range(5)) + clique_edges(range(5, 9)))
    cs, ws, partition, groups, bounds = _propose(g, 3, 200)
    assert groups == [(0, 1, 2, 3, 4), (5, 6, 7, 8)]
    assert min(ws.load[v] for v in groups[0]) > \
        max(ws.load[v] for v in groups[1])
    for v in range(5):
        assert bounds.lower[v] <= Fraction(2) <= bounds.upper[v]
    for v in range(5, 9):
        assert bounds.lower[v] <= Fraction(1) <= bounds.upper[v]


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
        ws = run_iterations(init_weights(cs), 20)
        sort_load = list(ws.load)
        partition, ws = tentative_decomposition(g, cs, ws)
        flat = [v for grp in partition.groups for v in grp]
        assert sorted(flat) == list(range(g.n))
        # blocks follow the sort-time load order
        seq = [v for grp in partition.groups for v in
               sorted(grp, key=lambda u: (-sort_load[u], u))]
        assert seq == partition.order


def test_reassignment_conserves_mass():
    rng = random.Random(77)
    for _ in range(25):
        g = gnp(rng, rng.randint(4, 9), 0.6)
        cs = enumerate_cliques(g, 3)
        ws = run_iterations(init_weights(cs), 7)
        _, ws = tentative_decomposition(g, cs, ws)
        for row in ws.share:
            assert abs(sum(row) - 1.0) <= 1e-9
            assert all(x >= 0.0 for x in row)


def test_whole_set_always_stable():
    g = k_n(5)
    cs = enumerate_cliques(g, 3)
    ws = run_iterations(init_weights(cs), 5)
    partition, ws = tentative_decomposition(g, cs, ws)
    assert is_stable_group(tuple(range(5)), partition, ws, cs)


def test_outward_share_blocks_stability():
    # K4 plus vertex 4 on the triangle (0, 1, 4); with untouched uniform
    # shares the clique {0,1,4} still carries weight on vertex 0, so {4}
    # cannot be split off
    g = Graph.from_edges(5, clique_edges(range(4)) + [(0, 4), (1, 4)])
    cs = enumerate_cliques(g, 3)
    ws = init_weights(cs)
    partition = _single_blocks_partition(g, ws)
    assert not is_stable_group((4,), partition, ws, cs)


def _single_blocks_partition(g, ws):
    from lhcds.proposal import Partition
    order = sorted(range(g.n), key=lambda v: (-ws.load[v], v))
    return Partition(groups=[(v,) for v in order], order=order)


def test_derived_groups_disjoint_and_stable():
    rng = random.Random(5)
    for _ in range(25):
        g = gnp(rng, rng.randint(4, 9), 0.5)
        cs = enumerate_cliques(g, 3)
        ws = run_iterations(init_weights(cs), 20)
        partition, ws = tentative_decomposition(g, cs, ws)
        bounds = initialize_bounds(clique_core_numbers(g, cs), 3)
        groups, tightened = derive_stable_groups(partition, ws, cs, bounds)
        seen = set()
        for grp in groups:
            assert not (set(grp) & seen)
            seen |= set(grp)
            assert is_stable_group(grp, partition, ws, cs)
        assert seen == set(range(g.n))
        for v in range(g.n):
            assert tightened.upper[v] <= bounds.upper[v]
            assert tightened.lower[v] >= bounds.lower[v]
            assert tightened.lower[v] <= tightened.upper[v] + 1e-12
