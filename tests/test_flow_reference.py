"""Differential check of the flow layer against networkx, past the oracle's
12-vertex limit.

The reference network is built here from the capacities documented on
build_network, not through it, and solved with networkx's preflow-push. Its
largest min-cut source side is the set of vertices with no residual path to
the sink, found by a reverse BFS from the sink; its smallest is the residual
reach from the source. Cases where the two differ show that min_cut returns
the largest.
"""

import random
from fractions import Fraction
from math import lcm

import networkx as nx
import pytest
from networkx.algorithms.flow import preflow_push

from lhcds import (Graph, build_network,
                   derive_compact, enumerate_cliques, induced_subgraph,
                   min_cut, restrict_cliques)


def _planted(rng, n):
    """Dense blocks of 5-9 vertices at p=0.8 plus sparse uniform edges."""
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    start = 0
    while start + 9 <= n // 2:
        size = rng.randint(5, 9)
        block = order[start:start + size]
        start += size
        for i, u in enumerate(block):
            for w in block[i + 1:]:
                if rng.random() < 0.8:
                    edges.add((min(u, w), max(u, w)))
    while len(edges) < 2 * n + start * 3:
        u, w = rng.sample(range(n), 2)
        edges.add((min(u, w), max(u, w)))
    return Graph.from_edges(n, sorted(edges)), order[:start]


def _working_set(g, start, size):
    """The first ``size`` vertices a BFS from ``start`` reaches."""
    seen = {start}
    queue = [start]
    for v in queue:
        for w in g.adj[v]:
            if len(seen) < size and w not in seen:
                seen.add(w)
                queue.append(w)
    return sorted(seen)


def _reference(sub, sub_cs, rho, boundary):
    """Max-flow value (as a numerator over den), largest and smallest
    min-cut source side of the documented network, by networkx."""
    h = sub_cs.h
    rho_h = rho * h
    den = lcm(rho_h.denominator, *map(len, boundary))
    net = nx.DiGraph()
    net.add_node("s")
    net.add_node("t")
    mass = [sub_cs.degree[v] * den for v in range(sub.n)]
    for cid, members in enumerate(sub_cs.cliques):
        for v in members:
            net.add_edge(("v", v), ("c", cid), capacity=den)
            net.add_edge(("c", cid), ("v", v), capacity=(h - 1) * den)
    for i, inside in enumerate(boundary):
        for v in inside:
            net.add_edge(("v", v), ("b", i), capacity=h * den // len(inside))
            net.add_edge(("b", i), ("v", v), capacity=(h - 1) * den)
            mass[v] += h * den // len(inside)
    sink = max(0, rho_h * den)
    for v in range(sub.n):
        net.add_edge("s", ("v", v), capacity=mass[v])
        net.add_edge(("v", v), "t", capacity=int(sink))
    res = preflow_push(net, "s", "t")
    reaches_sink = {"t"}
    queue = ["t"]
    for x in queue:
        for y in res.pred[x]:
            arc = res[y][x]
            if y not in reaches_sink and arc["capacity"] - arc["flow"] > 0:
                reaches_sink.add(y)
                queue.append(y)
    side = tuple(v for v in range(sub.n) if ("v", v) not in reaches_sink)
    from_source = {"s"}
    queue = ["s"]
    for x in queue:
        for y, arc in res[x].items():
            if y not in from_source and arc["capacity"] - arc["flow"] > 0:
                from_source.add(y)
                queue.append(y)
    smallest = tuple(v for v in range(sub.n) if ("v", v) in from_source)
    return res.graph["flow_value"], den, side, smallest


def _value(sub_cs, boundary, side):
    """Cliques inside side, counting a boundary entry whose inside vertices
    all lie in side as one whole clique: the network's min cut maximizes
    this minus rho * |side|."""
    inside = set(side)
    whole = sum(all(v in inside for v in c) for c in sub_cs.cliques)
    return whole + sum(set(b) <= inside for b in boundary)


def _ties(sub, sub_cs, boundary, planted):
    """Exact densities where the min cut is tied: the whole working graph,
    a planted block, and the maximum, found by Dinkelbach iteration on the
    reference."""
    ties = {Fraction(_value(sub_cs, boundary, range(sub.n)), sub.n)}
    if len(planted) > 1:
        ties.add(Fraction(_value(sub_cs, boundary, planted), len(planted)))
    rho = min(ties)
    while True:
        side = _reference(sub, sub_cs, rho, boundary)[2]
        if not side:
            break
        denser = Fraction(_value(sub_cs, boundary, side), len(side))
        if denser <= rho:
            break
        rho = denser
    ties.add(rho)
    return sorted(ties)


def _cases(n, h):
    """(working graph, its cliques, boundary entries, rho): the whole graph
    and a BFS ball with its border cliques, each probed at exact tied
    densities and their +-1/n^2 shifts."""
    rng = random.Random(1000 * n + h)
    g, planted = _planted(rng, n)
    cs = enumerate_cliques(g, h)
    t_sorted = _working_set(g, planted[3], n // 2)
    pos = {v: i for i, v in enumerate(t_sorted)}
    border = []
    for members in cs.cliques:
        inside = tuple(pos[w] for w in members if w in pos)
        if 0 < len(inside) < h:
            border.append(inside)
    block = planted[:9]
    for sub, sub_cs, boundary, sub_block in (
            (g, cs, [], block),
            (induced_subgraph(g, t_sorted), restrict_cliques(cs, t_sorted),
             border, [pos[v] for v in block if v in pos])):
        shift = Fraction(1, sub.n * sub.n)
        for tie in _ties(sub, sub_cs, boundary, sub_block):
            for rho in (tie - shift, tie, tie + shift):
                yield sub, sub_cs, boundary, rho


@pytest.mark.parametrize("h", [3, 4])
@pytest.mark.parametrize("n", [30, 80, 300])
def test_min_cut_matches_networkx(n, h):
    checked = bordered = nonempty = tied = 0
    for sub, sub_cs, boundary, rho in _cases(n, h):
        flow, den, side, smallest = _reference(sub, sub_cs, rho, boundary)
        assert derive_compact(sub_cs, rho, boundary) == side
        got = min_cut(build_network(sub_cs, rho, boundary))
        assert got.flow_value == Fraction(flow, den)
        checked += 1
        bordered += bool(boundary)
        nonempty += bool(side)
        tied += smallest != side
    assert bordered and nonempty and tied and checked >= 12
