"""Exact max-flow machinery for compact-subgraph derivation and verification.

Every capacity is an integer numerator over one shared denominator, so cuts
are exact and the 1/|V|^2 density separation argument survives; floating
point never touches the flow. The min cut is read off as the largest optimal
source side (vertices with no residual path to the sink), which is what the
"largest subgraph maximizing clique count minus rho times size" contract
requires; the residual-reachable-from-source set would give the smallest.
Dinic counts its levels as distances to the sink, so its last level search,
which no longer reaches the source, marks exactly the nodes with a residual
path to the sink. That set is the same for every maximum flow.

Networks are flat lists indexed by arc id. Arcs are created in pairs: arc
``e`` runs to node ``head[e]`` with remaining capacity ``cap[e]``, and its
residual twin ``e ^ 1`` runs back with the capacity flow has freed, so the
tail of ``e`` is ``head[e ^ 1]``. ``arcs[u]`` lists the ids of the arcs
leaving node ``u``, residual twins included. Dinic walks these lists of ints
instead of one list object per arc.

A network reads cliques, never edges, so all but the verifiers take a clique
set alone and work on its vertices 0..len(cs.degree)-1; a subproblem on S is
``restrict_cliques(cs, S)``, whose local id i is S's i-th smallest member.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterator, Sequence

from .cliques import Bounds, CliqueSet, restrict_cliques
from .graph import Graph, VertexSet, connected_components, reach
from .graph import induced_subgraph  # noqa: F401  (perfbench traces it here)


@dataclass
class FlowNetwork:
    """Directed network with integer capacities over a shared denominator.

    Node layout: 0 = source, 1 = sink, then one node per working-set vertex
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


@dataclass
class CutResult:
    source_side: VertexSet
    flow_value: Fraction


def build_network(cs: CliqueSet, rho: Fraction,
                  boundary: Sequence[tuple[int, ...]] = ()) -> FlowNetwork:
    """Assemble the verification network on the vertices of cs.

    Interior cliques (all members inside): member -> clique with capacity 1 and
    clique -> member with capacity h-1. A boundary entry is a clique that
    straddles the border, given as the tuple of its cnt = len(entry) inside
    members (1 <= cnt <= h-1, local ids); it gets a node of its own after the
    clique nodes, member -> node with capacity h/cnt and node -> member with
    capacity h-1, and adds h/cnt to each inside member's source-arc mass.
    Every vertex gets source -> v with its (augmented) clique-degree mass and
    v -> t with capacity rho*h, clamped at zero for negative rho. All
    capacities are exact multiples of 1/den.
    """
    h = cs.h
    rho_h = Fraction(rho) * h
    den = lcm(rho_h.denominator, *map(len, boundary))
    n = len(cs.degree)
    net = FlowNetwork(num_vertices=n, den=den)
    head, cap, arcs = net.head, net.cap, net.arcs

    extra_mass = [0] * n
    for inside in boundary:
        if not 1 <= len(inside) < h:
            raise ValueError(f"boundary count {len(inside)} outside [1, {h - 1}]")
        for v in inside:
            extra_mass[v] += h * den // len(inside)

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

    # Each boundary entry then gets the next node and the same per-member
    # layout, with inward capacity h/cnt.
    for inside in boundary:
        node = len(arcs)
        out = []
        inward = h * den // len(inside)
        for v in inside:
            e = len(head)
            head += (node, v + 2, v + 2, node)
            cap += (inward, 0, (h - 1) * den, 0)
            arcs[v + 2] += (e, e + 3)
            out += (e + 1, e + 2)
        arcs.append(out)
    return net


def _max_flow(net: FlowNetwork) -> tuple[int, list[int]]:
    """Dinic's algorithm with levels counted as residual distance to the
    sink: returns the flow value and the levels of the last search.

    Each level search runs back from the sink and stops once it labels the
    source. The blocking-flow walk starts at the source and steps from level
    d to d - 1 only, so it never enters the other nodes at the source's
    depth. It is iterative (explicit stack of arc ids) and, after each
    augmentation, resumes from the tail of the first saturated arc;
    recursion would overflow on whole-graph networks. The last search never
    labels the source, so it labels exactly the nodes that reach the sink.
    """
    head, cap, arcs = net.head, net.cap, net.arcs
    n = len(arcs)
    s, t = net.SOURCE, net.SINK
    total = 0
    while True:
        level = [-1] * n
        level[t] = 0
        queue = [t]
        for x in queue:
            depth = level[x] + 1
            for e in arcs[x]:
                # e runs x -> head[e]; the residual arc head[e] -> x is its twin
                if cap[e ^ 1]:
                    w = head[e]
                    if level[w] < 0:
                        level[w] = depth
                        queue.append(w)
            if level[s] >= 0:
                break
        else:
            return total, level

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
            want = level[u] - 1
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

    It holds the vertices whose nodes have no residual path to the sink:
    those the max flow's last level search leaves unlabelled. That set is
    the same for every maximum flow (Picard and Queyranne 1980), so it does
    not depend on which one Dinic finds. Consumes the network.
    """
    flow, level = _max_flow(net)
    first = net.vertex_node(0)
    side = tuple(v for v, d in enumerate(level[first:first + net.num_vertices])
                 if d < 0)
    return CutResult(source_side=side, flow_value=Fraction(flow, net.den))


def derive_compact(cs: CliqueSet, rho: Fraction,
                   boundary: Sequence[tuple[int, ...]] = ()) -> VertexSet:
    """Largest vertex set maximizing (cliques inside) - rho * size.

    The caller supplies rho already shifted (e.g. by -1/|V|^2); with that
    shift the result is exactly the union of all maximal compact subgraphs at
    the unshifted density.
    """
    return min_cut(build_network(cs, rho, boundary)).source_side


def denser_part(cs_s: CliqueSet) -> VertexSet:
    """The vertices of G[S] whose compact number in G[S] exceeds its density,
    from and in the local ids of S's cliques ``cs_s``.

    Distinct densities over at most |S| vertices differ by at least 1/|S|^2,
    so the compact union T at the probe density + 1/(2|S|^2) is exactly that
    set, and it is empty iff G[S] is self-densest.

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

    T is empty without any flow when every member of S lies in the same
    number of S's cliques (instances, for patterns), so a driver may skip
    the network for such an S:

    - Let every member have clique degree D in G[S]. The degrees sum to h
      times the clique count, so D / h = d(S).
    - Give each clique a share 1/h at each of its h distinct members. Every
      member then carries exactly D / h = d(S). This holds for repeated
      pattern instances too: each is still one unit over its 4 members.
    - Each clique inside a subset R of S puts all its shares on R, so
      c(R) <= (sum of the shares on R) = |R| d(S), and d(R) <= d(S).
      This is the fractional orientation bound that the flow certifies
      (Goldberg 1984; Danisch et al., WWW 2017).
    - No subgraph of G[S] is denser than S, so no compact number in G[S]
      exceeds d(S) and T is empty.
    """
    n = len(cs_s.degree)
    if n == 0:
        raise ValueError("empty candidate")
    probe = Fraction(len(cs_s.cliques), n) + Fraction(1, 2 * n * n)
    return derive_compact(cs_s, probe, ())


def is_densest(cs_s: CliqueSet) -> bool:
    """No proper subgraph of G[S] has strictly larger h-clique density."""
    return not denser_part(cs_s)


def _candidate_set(g: Graph, s: Sequence[int]) -> VertexSet:
    """The candidate's vertices as a VertexSet; rejects an empty or
    disconnected one, and one with an id outside 0..g.n-1."""
    comps = connected_components(g, s)
    if len(comps) != 1:
        raise ValueError("candidate is not connected" if comps
                         else "empty candidate")
    return comps[0]


def _thresholds(num: int, size: int, den: int) -> tuple[int, int]:
    """(dead_at, hot_at) for rho = num / size and bound numerators over den:
    x / den < rho iff x <= dead_at, and x / den > rho iff x >= hot_at."""
    return (num * den - 1) // size, num * den // size + 1


def verify_basic(g: Graph, cs: CliqueSet, s: Sequence[int]) -> bool:
    """Whole-graph verification that G[s] is a maximal compact component.

    Derives every maximal rho-compact subgraph of g at rho = density of G[s]
    (shifted by -1/|V|^2) and accepts iff G[s] is exactly one of the connected
    components of the result.
    """
    cand = _candidate_set(g, s)
    rho = Fraction(cs.count_within(cand), len(cand))
    compact = derive_compact(cs, rho - Fraction(1, g.n * g.n), ())
    return cand in connected_components(g, compact)


def verify_fast(g: Graph, cs: CliqueSet, s: Sequence[int], bounds: Bounds,
                *, count: int | None = None,
                paths: Counter[str] | None = None) -> bool:
    """Verification on a bound-guided expansion T of the candidate.

    With rho the density of G[s], a vertex is dead when its upper bound is
    below rho and hot when its lower bound is above it. T starts as
    ``graph.reach`` from s through the vertices that are neither dead nor
    hot: s plus every such vertex that an edge path through such vertices
    reaches (one whose bound sits exactly at rho can still extend a compact
    superset). Three rules decide, in this order:

    - a hot neighbor of a member of s, in s or not, rejects the candidate;
    - otherwise T equal to s accepts it;
    - otherwise a second ``graph.reach`` from T, through the same vertices,
      steps from each vertex both along its edges and to the members of
      each of its cliques with no dead member ("live"). That is the smallest
      superset of s closed under both kinds of step, and it becomes T. The
      flow then runs on the cliques inside T, with every live clique that
      leaves T compensated as a border entry of capacity h/cnt, and must
      return s as a connected component.

    The third rule adds nothing for h-cliques, whose members are
    neighbors; it is there for pattern instances, whose members need not
    be adjacent. Neither early rule walks a clique.

    The rules agree with verify_basic when the bounds are valid and G[s] is
    self-densest (no subset of s is denser), as every candidate the driver
    verifies is; on other sets the call can accept where verify_basic
    rejects. Such an s is d(s)-compact, and two sets, each compact at rho or
    more, that share a vertex or are joined by an edge have a rho-compact
    union, by supermodularity of the clique count (Qin et al., "Locally
    Densest Subgraph Discovery", KDD 2015, for edges; the proof carries over
    to h-cliques and to pattern instances). So:

    - A hot w lies in a connected set W compact above d(s), so denser than
      s; W is not inside s, as no subset of s is denser. A hot neighbor w
      outside s joins W to s by an edge, and one in s (every member is
      another member's neighbor, as s is connected and holds a clique) is
      shared by both. Either way the union is d(s)-compact and larger than
      s, so s is not maximal.
    - If T is s, suppose a connected d(s)-compact U larger than s exists.
      U has a vertex u outside s adjacent to s. u's compact number is at
      least d(s), so u is not dead; u is not hot either, or the first rule
      had rejected. So u is in T, which contradicts T = s.
    - In the flow, every member outside T of a border clique is hot, so it
      lies in the maximal rho-compact subgraph and the entry rightly counts
      the clique as whole. With T closed by edges alone, a pattern member
      reached only through hot members would stay outside T and still be
      counted as present, and the flow could wrongly reject.

    The bound numerators are compared with the exact density rho through
    two integer thresholds computed once per call: a vertex is dead when its
    upper numerator is at most the largest numerator below rho, and hot when
    its lower numerator is at least the smallest numerator above it.

    ``count`` is the number of cliques inside s
    (``CliqueSet.count_within(s)``); it is computed when not given.

    When ``paths`` is given, its key ``"early_accept"``, ``"early_reject"``
    or ``"flow"`` is incremented by how the call decided.
    """
    cand = _candidate_set(g, s)
    if paths is None:
        paths = Counter()
    if count is None:
        count = cs.count_within(cand)
    rho = Fraction(count, len(cand))
    dead_at, hot_at = _thresholds(count, len(cand), bounds.den)
    upper, lower = bounds.upper, bounds.lower

    if any(lower[w] >= hot_at for v in cand for w in g.adj[v]):
        paths["early_reject"] += 1
        return False

    def admit(w: int) -> bool:
        return lower[w] < hot_at and upper[w] > dead_at

    t_list = reach(g.adj.__getitem__, cand, admit)
    if len(t_list) == len(cand):
        paths["early_accept"] += 1
        return True
    paths["flow"] += 1

    # The third rule: T grows from the first T through edges and live
    # cliques alike. ``reach`` runs ``steps`` on every vertex of the final
    # T, so ``live`` ends up deciding, once each, the cliques that meet T.
    live: dict[int, bool] = {}

    def steps(v: int) -> Iterator[int]:
        yield from g.adj[v]
        for cid in cs.incidence[v]:
            if cid not in live:
                live[cid] = all(upper[w] > dead_at for w in cs.cliques[cid])
            if live[cid]:
                yield from cs.cliques[cid]

    t_sorted = sorted(reach(steps, t_list, admit))
    pos = {v: i for i, v in enumerate(t_sorted)}
    border = []
    for cid in sorted(live):
        if live[cid]:
            inside = tuple(pos[w] for w in cs.cliques[cid] if w in pos)
            if len(inside) < cs.h:
                border.append(inside)
    shifted = rho - Fraction(1, len(t_sorted) * len(t_sorted))
    compact = derive_compact(restrict_cliques(cs, t_sorted), shifted, border)
    return cand in connected_components(g, [t_sorted[i] for i in compact])
