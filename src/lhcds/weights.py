"""Sequential Frank-Wolfe weight distribution over h-cliques.

Each clique owns one unit of weight split among its h member vertices; the
iteration repeatedly shifts weight toward each clique's currently lightest
member with step size 1/(t+1), driving the per-vertex totals toward the
compact numbers. Updates are sequential over cliques in id order and read
totals written earlier in the same round.

A ``WeightState`` holds only the exact result. Round t maps a share x to
``x * t/(t+1)``, plus ``1/(t+1)`` when picked, so
``(t+1) * x_t = t * x_(t-1) + [picked]`` telescopes from ``x_0 = 1/h`` to

    x_T = (1 + h*c) / (h*(T+1)),  c = rounds that picked the position,

the sequential update of KClist++ (Sun et al., VLDB 2020). Every share is
therefore an integer numerator over the state's one denominator
``den = h*(T+1)*lcm(1..h-1)``, and every load is the exact sum of its
vertex's shares over the same ``den``. The ``lcm`` factor lets the
tentative decomposition split a clique's weight equally among any 1 to h-1
of its members by exact integer division.

The steering that decides the picks is float, and lives only inside
``run_iterations``: float loads, rescaled every round, and per-position
pick counts indexed by clique id. Which member a clique tops up is decided
by strict ``<`` on the float loads, so a single reordered rounding can move
a tie, and with it the stable groups and the output. Exact integer
steering (N starts at the degrees, +h per pick) was measured and is not
used: it sends every exact tie to the first position, where the float
roundings spread ties among positions, and on the diamond bench graph
that loosened the bounds, cost more densest checks and flows, and ranked
an 84-density set ahead of denser ones.

The library runs the iteration only for pattern queries: a clique query
takes its bounds from clique cores alone (see ``pipeline``). Each round's
argmin has two forms, with the same picks. Pattern instances and h = 4
cliques, all 4 wide, take an unrolled running minimum over the four
members. Every other width takes the generic loop over positions. Both
replace the minimum only on a strictly smaller load, in member order, so a
tie goes to the first position in both.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import lcm

from .cliques import CliqueSet


@dataclass
class WeightState:
    """Exact weight shares per (clique, position) and per-vertex loads.

    ``share[cid*h + i]`` is the share of ``cs.cliques[cid][i]`` as an
    integer numerator over ``den``: one flat list, clique after clique in id
    order. Each clique's shares sum to ``den``, and ``load[v]`` is the sum
    of v's shares, so the loads total the clique count times ``den``.
    """

    cs: CliqueSet
    share: list[int]
    load: list[int]
    den: int


def init_weights(cs: CliqueSet) -> WeightState:
    """Uniform start: every share is 1/h, so load(u) = degree(u)/h."""
    return run_iterations(cs, 0)


def run_iterations(cs: CliqueSet, rounds: int) -> WeightState:
    """The exact weight state after ``rounds`` sequential Frank-Wolfe rounds
    over cs from the uniform start.

    Round t (starting at 1) scales all float loads by 1 - 1/(t+1), then
    walks cliques in id order adding 1/(t+1) to the float load of each
    clique's minimum-load member. Ties pick the smallest vertex id (member
    tuples are sorted). The argmin is a running minimum at h = 4 and a
    loop over positions otherwise; both pick alike. The state's ``den`` is
    h*(T+1)*lcm(1..h-1). Raises ValueError for negative ``rounds``.
    """
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    cliques = cs.cliques
    degree = cs.degree
    h = cs.h
    load = [d / h for d in degree]
    picks = [[0] * len(cliques) for _ in range(h)]
    for t in range(1, rounds + 1):
        gamma = 1.0 / (t + 1)
        keep = 1.0 - gamma
        load = [x * keep for x in load]
        if h == 4:
            p0, p1, p2, p3 = picks
            for cid, (a, b, c, d) in enumerate(cliques):
                x, v, p = load[a], a, p0
                if (y := load[b]) < x:
                    x, v, p = y, b, p1
                if (y := load[c]) < x:
                    x, v, p = y, c, p2
                if (y := load[d]) < x:
                    x, v, p = y, d, p3
                load[v] = x + gamma
                p[cid] += 1
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
    value = [(1 + h * c) * scale for c in range(rounds + 1)]
    share = list(map(value.__getitem__, chain.from_iterable(zip(*picks))))
    exact = [0] * len(degree)
    for v, x in zip(chain.from_iterable(cliques), share):
        exact[v] += x
    return WeightState(cs=cs, share=share, load=exact,
                       den=h * (rounds + 1) * scale)


def objective(ws: WeightState) -> float:
    """Sum of squared per-vertex loads, the quantity the iteration minimizes."""
    return sum(x * x for x in ws.load) / ws.den ** 2
