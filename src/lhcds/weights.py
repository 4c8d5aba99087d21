"""Sequential Frank-Wolfe weight distribution over h-cliques.

Each clique owns one unit of weight split among its h member vertices; the
iteration repeatedly shifts weight toward each clique's currently lightest
member with step size 1/(t+1), driving the per-vertex totals toward the
compact numbers. Updates are sequential over cliques in id order and read
totals written earlier in the same round, so a state must not be iterated
from two threads at once.

Shares live in one flat list, clique ``cid``'s at offsets ``cid*h`` to
``cid*h + h - 1``, so a round rescales all of them in one list
comprehension instead of a loop per clique. Triangles (h = 3) take an
unrolled argmin step; larger cliques and pattern instances take the
generic one. Every share and load is the result of the same float
operations in the same order as the plain per-clique update: which member
a clique tops up is decided by strict ``<`` on those floats, so a single
reordered rounding can move a tie, and with it the stable groups and the
output.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cliques import CliqueSet


@dataclass
class WeightState:
    """Weight shares per (clique, position) and per-vertex totals.

    ``share[cid*h + i]`` is the share of ``cs.cliques[cid][i]``: one flat
    list, clique after clique in id order.

    Invariants (up to float drift, checked in tests at 1e-9):
    each clique's shares sum to 1; ``load[u]`` equals the sum of u's shares;
    the loads sum to the clique count. The simplex constraint is maintained
    by construction (scale-and-add updates only), never renormalized.
    """

    cs: CliqueSet
    share: list[float]
    load: list[float]
    rounds_done: int = 0

    def copy(self) -> "WeightState":
        return WeightState(cs=self.cs, share=self.share[:],
                           load=self.load[:], rounds_done=self.rounds_done)


def init_weights(cs: CliqueSet) -> WeightState:
    """Uniform start: every share is 1/h, so load(u) = degree(u)/h."""
    h = cs.h
    share = [1.0 / h] * (h * len(cs.cliques))
    load = [d / h for d in cs.degree]
    return WeightState(cs=cs, share=share, load=load)


def run_iterations(ws: WeightState, rounds: int) -> WeightState:
    """Run ``rounds`` sequential Frank-Wolfe rounds and return ws.

    Round t (starting at rounds_done+1) scales all shares and loads by
    1 - 1/(t+1), then walks cliques in id order adding 1/(t+1) to the share
    and load of each clique's minimum-load member. Ties pick the smallest
    vertex id (member tuples are sorted). T=0 is the identity. ``ws.share``
    and ``ws.load`` are replaced by rescaled lists each round, so earlier
    references to them go stale.
    """
    cliques = ws.cs.cliques
    h = ws.cs.h
    share = ws.share
    load = ws.load
    for t in range(ws.rounds_done + 1, ws.rounds_done + rounds + 1):
        gamma = 1.0 / (t + 1)
        keep = 1.0 - gamma
        load = [x * keep for x in load]
        share = [x * keep for x in share]
        base = 0
        if h == 3:
            for a, b, c in cliques:
                la = load[a]
                lb = load[b]
                lc = load[c]
                if lb < la:
                    if lc < lb:
                        share[base + 2] += gamma
                        load[c] = lc + gamma
                    else:
                        share[base + 1] += gamma
                        load[b] = lb + gamma
                elif lc < la:
                    share[base + 2] += gamma
                    load[c] = lc + gamma
                else:
                    share[base] += gamma
                    load[a] = la + gamma
                base += 3
        else:
            for members in cliques:
                best_pos = 0
                best = load[members[0]]
                for i in range(1, h):
                    li = load[members[i]]
                    if li < best:
                        best = li
                        best_pos = i
                share[base + best_pos] += gamma
                load[members[best_pos]] = best + gamma
                base += h
    ws.share = share
    ws.load = load
    ws.rounds_done += rounds
    return ws


def objective(ws: WeightState) -> float:
    """Sum of squared per-vertex loads, the quantity the iteration minimizes."""
    return sum(x * x for x in ws.load)
