"""Exact max-flow machinery for compact-subgraph derivation and verification.

Every capacity is an integer numerator over one shared denominator, so cuts
are exact and the 1/|V|^2 density separation argument survives; floating
point never touches the flow. The min cut is read off as the largest optimal
source side (vertices with no residual path to the sink), which is what the
"largest subgraph maximizing clique count minus rho times size" contract
requires; the residual-reachable-from-source set would give the smallest.

Networks are flat lists indexed by arc id. Arcs are created in pairs: arc
``e`` runs to node ``head[e]`` with remaining capacity ``cap[e]``, and its
residual twin ``e ^ 1`` runs back with the capacity flow has freed, so the
tail of ``e`` is ``head[e ^ 1]``. ``arcs[u]`` lists the ids of the arcs
leaving node ``u``, residual twins included. Dinic and the min-cut scan walk
these lists of ints instead of one list object per arc.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from math import inf, lcm, nextafter
from typing import Sequence

from .cliques import Bounds, CliqueSet, restrict_cliques
from .graph import Graph, VertexSet, induced_subgraph


@dataclass
class BoundaryClique:
    """A clique straddling the working subgraph's border: its id in the host
    clique set, the number of its vertices inside (1 <= cnt <= h-1), and those
    inside vertices in the working graph's id space."""

    clique_id: int
    cnt: int
    inside: tuple[int, ...]


@dataclass
class FlowNetwork:
    """Directed network with integer capacities over a shared denominator.

    Node layout: 0 = source, 1 = sink, then one node per working-graph vertex
    (``vertex_node[v] = 2 + v``), then clique and boundary nodes. Arc layout:
    arc ``e`` goes to node ``head[e]`` and has remaining capacity ``cap[e]``;
    arcs are added in pairs, so the even id ``2i`` is the i-th arc added and
    ``2i + 1`` its residual twin (in general the twin of ``e`` is ``e ^ 1``).
    ``arcs[u]`` lists the ids of the arcs leaving ``u``, twins included: the
    node count is ``len(arcs)`` and the arc count ``len(head) // 2``.
    min_cut consumes the network.
    """

    num_vertices: int
    den: int
    head: list[int] = field(default_factory=list)
    cap: list[int] = field(default_factory=list)
    arcs: list[list[int]] = field(default_factory=list)

    SOURCE = 0
    SINK = 1

    def __post_init__(self):
        if not self.arcs:
            self.arcs = [[] for _ in range(2 + self.num_vertices)]

    def vertex_node(self, v: int) -> int:
        return 2 + v

    def add_node(self) -> int:
        self.arcs.append([])
        return len(self.arcs) - 1

    def add_arc(self, u: int, v: int, cap: int) -> None:
        if cap < 0:
            raise ValueError(f"negative capacity {cap}")
        e = len(self.head)
        self.head += (v, u)
        self.cap += (cap, 0)
        self.arcs[u].append(e)
        self.arcs[v].append(e + 1)


@dataclass
class CutResult:
    source_side: VertexSet
    flow_value: Fraction


def build_network(g: Graph, cs: CliqueSet, rho: Fraction,
                  boundary: Sequence[BoundaryClique] = ()) -> FlowNetwork:
    """Assemble the verification network for the working graph g.

    Interior cliques (all members in g): member -> clique with capacity 1 and
    clique -> member with capacity h-1. A boundary clique with cnt inside
    members uses capacity h/cnt inward and adds h/cnt to each inside member's
    source-arc mass. Every vertex gets source -> v with its (augmented)
    clique-degree mass and v -> t with capacity rho*h, clamped at zero for
    negative rho. All capacities are exact multiples of 1/den.
    """
    h = cs.h
    rho_h = Fraction(rho) * h
    den = lcm(rho_h.denominator, *(b.cnt for b in boundary)) if boundary \
        else rho_h.denominator
    n = g.n
    net = FlowNetwork(num_vertices=n, den=den)
    head, cap, arcs = net.head, net.cap, net.arcs

    extra_mass = [0] * n
    for b in boundary:
        if not (1 <= b.cnt <= h - 1):
            raise ValueError(f"boundary count {b.cnt} outside [1, {h - 1}]")
        for v in b.inside:
            extra_mass[v] += h * den // b.cnt

    sink_cap_num = rho_h * den
    assert sink_cap_num.denominator == 1
    sink_cap = max(0, int(sink_cap_num))
    # Terminal arcs come first, so a vertex node tries its sink arc before
    # its cliques. Vertex v owns ids 4v..4v+3: v -> t, its twin, s -> v, its
    # twin.
    for v in range(n):
        vn = 2 + v
        head += (net.SINK, vn, vn, net.SOURCE)
        cap += (sink_cap, 0, cs.degree[v] * den + extra_mass[v], 0)
        arcs[vn] += (4 * v, 4 * v + 3)
    arcs[net.SOURCE].extend(range(2, 4 * n, 4))
    arcs[net.SINK].extend(range(1, 4 * n, 4))

    # Interior cliques in bulk: clique c gets node 2 + n + c, and its j-th
    # member v owns the 4 ids from base + 4(hc + j): v -> clique (capacity
    # 1), its twin, clique -> v (capacity h-1), its twin.
    base = len(head)
    per_clique = 4 * h
    head.extend([x for c, members in enumerate(cs.cliques, len(arcs))
                 for v in members for x in (c, v + 2, v + 2, c)])
    cap.extend([den, 0, (h - 1) * den, 0] * (h * len(cs.cliques)))
    leaving = [o for j in range(0, per_clique, 4) for o in (j + 1, j + 2)]
    arcs.extend([b + o for o in leaving]
                for b in range(base, len(head), per_clique))
    e = base
    for members in cs.cliques:
        for v in members:
            arcs[v + 2] += (e, e + 3)
            e += 4

    for b in boundary:
        node = net.add_node()
        inward = h * den // b.cnt
        for v in b.inside:
            net.add_arc(net.vertex_node(v), node, inward)
            net.add_arc(node, net.vertex_node(v), (h - 1) * den)
    return net


def _max_flow(net: FlowNetwork) -> int:
    """Dinic's algorithm: shortest augmenting level graphs + blocking flow.

    The level search stops as soon as it labels the sink: nodes at the
    sink's depth other than the sink lie on no shortest path, so they are
    unlabelled again. The blocking-flow walk is iterative (explicit stack of
    arc ids) and, after each augmentation, resumes from the tail of the first
    saturated arc; recursion would overflow on whole-graph networks.
    """
    head, cap, arcs = net.head, net.cap, net.arcs
    n = len(arcs)
    s, t = net.SOURCE, net.SINK
    total = 0
    while True:
        level = [-1] * n
        level[s] = 0
        queue = [s]
        for u in queue:
            depth = level[u] + 1
            for e in arcs[u]:
                if cap[e]:
                    w = head[e]
                    if level[w] < 0:
                        level[w] = depth
                        queue.append(w)
            if level[t] >= 0:
                break
        else:
            return total
        for w in queue:
            if level[w] == depth and w != t:
                level[w] = -1

        it = [0] * n
        path: list[int] = []  # arc ids from the source to u
        u = s
        while True:
            if u == t:
                push = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= push
                    cap[e ^ 1] += push
                total += push
                for i, e in enumerate(path):
                    if not cap[e]:
                        break
                del path[i:]
                u = head[e ^ 1]
                continue
            lst = arcs[u]
            i = it[u]
            want = level[u] + 1
            while i < len(lst):
                e = lst[i]
                if cap[e] and level[head[e]] == want:
                    break
                i += 1
            it[u] = i
            if i < len(lst):
                path.append(e)
                u = head[e]
                continue
            if u == s:
                break  # blocking flow for this level graph is complete
            level[u] = -1
            u = head[path.pop() ^ 1]
            it[u] += 1


def min_cut(net: FlowNetwork) -> CutResult:
    """Exact minimum s-t cut; the source side is the largest optimal one.

    After the max flow, a node belongs to the largest min-cut source side iff
    it has no residual path to the sink; that set is computed by a reverse
    scan from the sink over residual arcs, which stops early once every
    vertex node is known to reach the sink. Consumes the network.
    """
    flow = _max_flow(net)
    head, cap, arcs = net.head, net.cap, net.arcs
    first, stop = net.vertex_node(0), net.vertex_node(net.num_vertices)
    unreached = net.num_vertices
    reaches_sink = [False] * len(arcs)
    reaches_sink[net.SINK] = True
    queue = [net.SINK]
    for x in queue:
        if not unreached:
            break
        for e in arcs[x]:
            # e runs x -> head[e]; the residual arc head[e] -> x is its twin
            if cap[e ^ 1]:
                w = head[e]
                if not reaches_sink[w]:
                    reaches_sink[w] = True
                    queue.append(w)
                    if first <= w < stop:
                        unreached -= 1
    side = tuple(v for v in range(net.num_vertices)
                 if not reaches_sink[net.vertex_node(v)])
    return CutResult(source_side=side, flow_value=Fraction(flow, net.den))


def derive_compact(g: Graph, cs: CliqueSet, rho: Fraction,
                   boundary: Sequence[BoundaryClique] = ()) -> VertexSet:
    """Largest vertex set maximizing (cliques inside) - rho * size.

    The caller supplies rho already shifted (e.g. by -1/|V|^2); with that
    shift the result is exactly the union of all maximal compact subgraphs at
    the unshifted density.
    """
    return min_cut(build_network(g, cs, rho, boundary)).source_side


def _is_component(g: Graph, inside: set[int], s: set[int]) -> bool:
    """Is the nonempty set s exactly a connected component of g restricted
    to ``inside``?"""
    if not s or not s <= inside:
        return False
    start = min(s)
    comp = {start}
    queue = [start]
    for v in queue:
        for w in g.adj[v]:
            if w in inside and w not in comp:
                comp.add(w)
                queue.append(w)
    return comp == s


def denser_part(g_s: Graph, cs_s: CliqueSet) -> VertexSet:
    """The vertices of g_s whose compact number in g_s exceeds its density.

    Distinct densities over at most |S| vertices differ by at least 1/|S|^2,
    so the compact union T at the probe density + 1/(2|S|^2) is exactly that
    set, and it is empty iff g_s is self-densest.

    T splits a candidate S that is not self-densest without losing any
    locally densest subgraph of the host graph G:

    - Let R be an LhCDS of G inside S. Every member of R has compact number
      d(R) in G.
    - In G[S] its members' compact numbers are at most d(R), because G[S] is
      a subgraph of G. They are at least d(R), because R is inside S. So
      they equal d(R).
    - R therefore lies wholly in T or wholly in S - T, since no density falls
      strictly between d(S) and the probe.
    - Every piece of the split is strictly smaller than S (T is nonempty,
      and it is not all of S because compact numbers in G[S] average to
      d(S)), so a driver that replaces S by its pieces ends.
    """
    if g_s.n == 0:
        raise ValueError("empty candidate")
    d = Fraction(len(cs_s.cliques), g_s.n)
    probe = d + Fraction(1, 2 * g_s.n * g_s.n)
    return derive_compact(g_s, cs_s, probe, ())


def is_densest(g_s: Graph, cs_s: CliqueSet) -> bool:
    """No proper subgraph of g_s has strictly larger h-clique density."""
    return not denser_part(g_s, cs_s)


def _candidate_set(g: Graph, s: Sequence[int]) -> set[int]:
    """The candidate's vertex set; rejects an empty or disconnected one."""
    s_set = set(s)
    if not s_set:
        raise ValueError("empty candidate")
    if not _is_component(g, s_set, s_set):
        raise ValueError("candidate is not connected")
    return s_set


def _float_bracket(rho: Fraction) -> tuple[float, float]:
    """(dead_at, hot_at): the largest float below rho and the smallest float
    above it. For a float x, x < rho iff x <= dead_at and x > rho iff
    x >= hot_at."""
    f = float(rho)
    if f < rho:
        return f, nextafter(f, inf)
    if f > rho:
        return nextafter(f, -inf), f
    return nextafter(f, -inf), nextafter(f, inf)


def verify_basic(g: Graph, cs: CliqueSet, s: Sequence[int]) -> bool:
    """Whole-graph verification that G[s] is a maximal compact component.

    Derives every maximal rho-compact subgraph of g at rho = density of G[s]
    (shifted by -1/|V|^2) and accepts iff G[s] is exactly one of the connected
    components of the result.
    """
    s_set = _candidate_set(g, s)
    rho = Fraction(cs.count_within(s_set), len(s_set))
    compact = derive_compact(g, cs, rho - Fraction(1, g.n * g.n), ())
    return _is_component(g, set(compact), s_set)


def verify_fast(g: Graph, cs: CliqueSet, s: Sequence[int], bounds: Bounds,
                output_membership: Sequence[bool] | None = None) -> bool:
    """Verification on a bound-guided expansion of the candidate.

    A breadth-first search grows T from s through cliques and edges that the
    compact-number bounds cannot rule out (any neighbor whose upper bound
    reaches the candidate density is taken: one sitting exactly at it can
    still extend a compact superset). If the walk closes inside s itself with
    nothing suspicious, the candidate is accepted outright. A neighbor of the
    candidate whose lower bound exceeds the candidate density, or clique
    contact from the candidate with an already-output result, certifies
    rejection (such a vertex always extends a compact superset). Otherwise
    the flow check runs on G[T] with border cliques compensated at capacity
    h/cnt, and must return G[s] as a connected component. Agrees with
    verify_basic on every input.

    The float bounds are compared with the exact density rho through two
    thresholds computed once per call: a vertex is dead (upper bound below
    rho) when its upper bound is at most the largest float below rho, and
    hot (lower bound above rho) when its lower bound is at least the
    smallest float above rho. For float bounds these are the exact compares.
    """
    s_set = _candidate_set(g, s)
    if output_membership is None:
        output_membership = [False] * g.n
    rho = Fraction(cs.count_within(s_set), len(s_set))
    dead_at, hot_at = _float_bracket(rho)
    upper, lower = bounds.upper, bounds.lower
    cliques = cs.cliques
    h = cs.h

    in_t = bytearray(g.n)
    t_list: list[int] = []
    queue: deque[int] = deque()
    visited = bytearray(len(cliques))  # cliques already processed
    suspected: list[int] = []      # cliques flagged as possibly straddling
    clean = True                   # nothing suspicious seen: early accept
    rejected = False               # certificate anchored at the candidate

    for u in sorted(s_set):
        if in_t[u]:
            continue
        queue.append(u)
        in_t[u] = 1
        t_list.append(u)
        while queue:
            v = queue.popleft()
            v_in_s = v in s_set
            for cid in cs.incidence[v]:
                if visited[cid]:
                    continue
                visited[cid] = 1
                members = cliques[cid]
                if any(upper[w] <= dead_at for w in members):
                    continue  # a member can never sit in a rho-compact set
                cnt = 1
                for w in members:
                    if w == v:
                        continue
                    if not in_t[w] and output_membership[w]:
                        clean = False
                        if v_in_s:
                            rejected = True
                    if lower[w] < hot_at:
                        if not in_t[w]:
                            in_t[w] = 1
                            t_list.append(w)
                            queue.append(w)
                        cnt += 1
                if cnt != h:
                    suspected.append(cid)
                    clean = False
            for w in g.adj[v]:
                if in_t[w]:
                    continue
                if lower[w] >= hot_at:
                    clean = False
                    if v_in_s:
                        rejected = True
                elif upper[w] > dead_at:
                    in_t[w] = 1
                    t_list.append(w)
                    queue.append(w)
    if clean and len(t_list) == len(s_set):
        return True
    if rejected:
        return False

    t_sorted = sorted(t_list)
    pos = {v: i for i, v in enumerate(t_sorted)}
    sub = induced_subgraph(g, t_sorted)
    sub_cs = restrict_cliques(cs, t_sorted)
    border: list[BoundaryClique] = []
    for cid in sorted(set(suspected)):
        inside = tuple(pos[w] for w in cliques[cid] if in_t[w])
        if len(inside) < h:  # cnt == h means the clique ended up interior
            border.append(BoundaryClique(clique_id=cid, cnt=len(inside),
                                         inside=inside))
    shifted = rho - Fraction(1, len(t_sorted) * len(t_sorted))
    compact = derive_compact(sub, sub_cs, shifted, border)
    inside_orig = {t_sorted[i] for i in compact}
    return _is_component(g, inside_orig, s_set)
