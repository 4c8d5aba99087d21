"""Sequential Frank-Wolfe weight distribution over h-cliques.

Each clique owns one unit of weight split among its h member vertices; the
iteration repeatedly shifts weight toward each clique's currently lightest
member with step size 1/(t+1), driving the per-vertex totals toward the
compact numbers. Updates are sequential over cliques in id order and read
totals written earlier in the same round, so a state must not be iterated
from two threads at once.

Shares live in one flat list, clique ``cid``'s at offsets ``cid*h`` to
``cid*h + h - 1``. Only the loads steer the iteration, so only they are
rescaled every round. Each step counts a pick for the position it tops up,
in h count lists indexed by clique id (``picks[i][cid]`` for position i), so
a step indexes by the clique id it already holds and computes no flat
offset. The shares are written once per call from those counts. Round t
maps a share x to ``x * t/(t+1)``, plus ``1/(t+1)`` when picked, so
``(t+1) * x_t = t * x_(t-1) + [picked]`` telescopes from ``x_0 = 1/h`` to

    x_T = (1 + h*c) / (h*(T+1)),  c = rounds that picked the position,

the sequential update of KClist++ (Sun et al., VLDB 2020). Every share is
therefore stored exactly, as an integer numerator over the state's one
denominator ``den = h*(T+1)*lcm(1..h-1)``. The ``lcm`` factor lets the
tentative decomposition split a clique's weight equally among any 1 to h-1
of its members by exact integer division.

The loads that steer the iteration are the only floats: the plain
per-clique float update, operation for operation. Which member a clique
tops up is decided by strict ``<`` on them, so a single reordered rounding
can move a tie, and with it the stable groups and the output; integer
steering waits until the output's tie order no longer depends on them.
Triangles (h = 3) take an unrolled argmin step; larger cliques and pattern
instances take the generic one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import lcm

from .cliques import CliqueSet


@dataclass
class WeightState:
    """Weight shares per (clique, position) and per-vertex totals.

    ``share[cid*h + i]`` is the share of ``cs.cliques[cid][i]`` as an
    integer numerator over ``den``: one flat list, clique after clique in id
    order. Each clique's shares sum to exactly ``den``. ``picks[i][cid]``
    counts the rounds that topped that share up: one list per position,
    indexed by clique id. ``picks`` is None once ``tentative_decomposition``
    has reassigned the shares, as the counts no longer describe them.

    ``load[u]`` is u's float steering load while the iteration runs, within
    float round-off of u's shares over ``den``. The decomposition replaces
    the loads by the exact integer sums of the shares, which then total the
    clique count times ``den``.
    """

    cs: CliqueSet
    share: list[int]
    load: list[float] | list[int]
    picks: list[list[int]] | None
    den: int
    rounds_done: int = 0

    def copy(self) -> "WeightState":
        picks = None if self.picks is None else [p[:] for p in self.picks]
        return WeightState(cs=self.cs, share=self.share[:], load=self.load[:],
                           picks=picks, den=self.den,
                           rounds_done=self.rounds_done)


def init_weights(cs: CliqueSet) -> WeightState:
    """Uniform start: every share is 1/h, so load(u) = degree(u)/h."""
    h = cs.h
    m = len(cs.cliques)
    scale = lcm(*range(1, h))
    load = [d / h for d in cs.degree]
    return WeightState(cs=cs, share=[scale] * (h * m), load=load,
                       picks=[[0] * m for _ in range(h)], den=h * scale)


def run_iterations(ws: WeightState, rounds: int) -> WeightState:
    """Run ``rounds`` sequential Frank-Wolfe rounds and return ws.

    Round t (starting at rounds_done+1) scales all loads by 1 - 1/(t+1),
    then walks cliques in id order adding 1/(t+1) to the load of each
    clique's minimum-load member. Ties pick the smallest vertex id (member
    tuples are sorted). T=0 is the identity. ``ws.load`` and ``ws.share``
    are replaced by new lists, so earlier references to them go stale, and
    ``ws.den`` becomes h*(T+1)*lcm(1..h-1) for the T rounds done in all.

    Raises ValueError for negative ``rounds`` and for a state whose shares
    ``tentative_decomposition`` has reassigned.
    """
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    if ws.picks is None:
        raise ValueError("shares were reassigned by the decomposition; "
                         "the iteration cannot resume from them")
    cliques = ws.cs.cliques
    h = ws.cs.h
    load = ws.load[:]
    # a vertex in no clique keeps load 0.0, which scaling leaves 0.0
    in_cliques = [v for v, d in enumerate(ws.cs.degree) if d]
    picks = ws.picks
    last = ws.rounds_done + rounds
    for t in range(ws.rounds_done + 1, last + 1):
        gamma = 1.0 / (t + 1)
        keep = 1.0 - gamma
        for v in in_cliques:
            load[v] *= keep
        if h == 3:
            p0, p1, p2 = picks
            for cid, (a, b, c) in enumerate(cliques):
                la = load[a]
                lb = load[b]
                lc = load[c]
                if lb < la:
                    if lc < lb:
                        load[c] = lc + gamma
                        p2[cid] += 1
                    else:
                        load[b] = lb + gamma
                        p1[cid] += 1
                elif lc < la:
                    load[c] = lc + gamma
                    p2[cid] += 1
                else:
                    load[a] = la + gamma
                    p0[cid] += 1
        else:
            for cid, members in enumerate(cliques):
                best_pos = 0
                best = load[members[0]]
                for i in range(1, h):
                    li = load[members[i]]
                    if li < best:
                        best = li
                        best_pos = i
                load[members[best_pos]] = best + gamma
                picks[best_pos][cid] += 1
    # one int object per distinct count, shared by every equal share
    scale = lcm(*range(1, h))
    value = [(1 + h * c) * scale for c in range(last + 1)]
    ws.share = list(map(value.__getitem__,
                        chain.from_iterable(zip(*picks))))
    ws.den = h * (last + 1) * scale
    ws.load = load
    ws.rounds_done = last
    return ws


def objective(ws: WeightState) -> float:
    """Sum of squared per-vertex loads, the quantity the iteration minimizes.
    After ``tentative_decomposition`` the loads are numerators over den."""
    return sum(x * x for x in ws.load)
