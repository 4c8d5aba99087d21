"""Sequential Frank-Wolfe weight distribution over h-cliques.

Each clique owns one unit of weight split among its h member vertices; the
iteration repeatedly shifts weight toward each clique's currently lightest
member with step size 1/(t+1), driving the per-vertex totals toward the
compact numbers. Updates are sequential over cliques in id order and read
totals written earlier in the same round, so a state must not be iterated
from two threads at once.

Shares live in one flat list, clique ``cid``'s at offsets ``cid*h`` to
``cid*h + h - 1``. Only the loads steer the iteration, so only they are
rescaled every round; a round records which position each clique tops up,
and the shares are written once every ``_REPLAY_ROUNDS`` rounds (once per
call at the default 20), so what a call holds for the writing does not
grow with its rounds. Cliques that start from the same shares and make the
same picks end with the same shares, so each such class is replayed once:
the 79,085 triangles of eight K40s in sparse noise fall into 21,892
classes over 20 rounds. Triangles (h = 3) take an unrolled argmin step;
larger cliques and pattern instances take the generic one. Every share and
load is the result of the same float operations in the same order as the
plain per-clique update: which member a clique tops up is decided by
strict ``<`` on those floats, so a single reordered rounding can move a
tie, and with it the stable groups and the output.
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


# Rounds recorded before the shares are written. The picks and the class
# keys grow with it, and so does the memory of a long call.
_REPLAY_ROUNDS = 20


def run_iterations(ws: WeightState, rounds: int) -> WeightState:
    """Run ``rounds`` sequential Frank-Wolfe rounds and return ws.

    Round t (starting at rounds_done+1) scales all shares and loads by
    1 - 1/(t+1), then walks cliques in id order adding 1/(t+1) to the share
    and load of each clique's minimum-load member. Ties pick the smallest
    vertex id (member tuples are sorted). T=0 is the identity. ``ws.load``
    is replaced by a rescaled list each round and ``ws.share`` once every
    ``_REPLAY_ROUNDS`` rounds (see ``_replay``), so earlier references to
    them go stale.
    """
    h = ws.cs.h
    load = ws.load
    share = ws.share
    last = ws.rounds_done + rounds
    for first in range(ws.rounds_done + 1, last + 1, _REPLAY_ROUNDS):
        stop = min(first + _REPLAY_ROUNDS, last + 1)
        load, picks = _steer(ws.cs, load, first, stop)
        share = _replay(share, h, picks, first, stop)
    ws.share = share
    ws.load = load
    ws.rounds_done += rounds
    return ws


def _steer(cs: CliqueSet, load: list[float], first: int, stop: int
           ) -> tuple[list[float], bytes]:
    """Rounds ``first`` to ``stop - 1`` on the loads alone.

    Returns the new loads and the picks: byte ``k*m + cid`` (m cliques) is
    the position that clique cid topped up in round ``first + k``.
    """
    cliques = cs.cliques
    h = cs.h
    picks = bytearray()
    put = picks.append
    for t in range(first, stop):
        gamma = 1.0 / (t + 1)
        keep = 1.0 - gamma
        load = [x * keep for x in load]
        if h == 3:
            for a, b, c in cliques:
                la = load[a]
                lb = load[b]
                lc = load[c]
                if lb < la:
                    if lc < lb:
                        load[c] = lc + gamma
                        put(2)
                    else:
                        load[b] = lb + gamma
                        put(1)
                elif lc < la:
                    load[c] = lc + gamma
                    put(2)
                else:
                    load[a] = la + gamma
                    put(0)
        else:
            for members in cliques:
                best_pos = 0
                best = load[members[0]]
                for i in range(1, h):
                    li = load[members[i]]
                    if li < best:
                        best = li
                        best_pos = i
                load[members[best_pos]] = best + gamma
                put(best_pos)
    return load, bytes(picks)


def _replay(share: list[float], h: int, picks: bytes, first: int, stop: int
            ) -> list[float]:
    """The flat shares after rounds ``first`` to ``stop - 1``, whose picks
    ``_steer`` recorded.

    Round t scales every share by ``keep = 1 - 1/(t+1)`` and then adds
    ``gamma = 1/(t+1)`` to the picked position: in one expression,
    ``x * keep + gamma``, which rounds twice exactly as the eager
    ``x *= keep; x += gamma`` does. Cliques with the same start shares and
    the same picks are one class, keyed by a bytes of picks, and each class
    is replayed once: one round at a time, one comprehension per position
    over all classes.
    """
    m = len(share) // h
    classes: dict[tuple[tuple[float, ...], bytes], int] = {}
    ids = [classes.setdefault(key, len(classes))
           for key in zip(zip(*[iter(share)] * h),
                          (picks[cid::m] for cid in range(m)))]
    keys = list(classes)
    del classes
    rounds = stop - first
    by_class = b"".join(p for _, p in keys)  # class c's picks at c*rounds
    cols = [by_class[k::rounds] for k in range(rounds)]
    out = [0.0] * len(share)
    for j in range(h):
        xs = [start[j] for start, _ in keys]
        for t, col in zip(range(first, stop), cols):
            gamma = 1.0 / (t + 1)
            keep = 1.0 - gamma
            xs = [x * keep + gamma if p == j else x * keep
                  for x, p in zip(xs, col)]
        out[j::h] = map(xs.__getitem__, ids)
    return out


def objective(ws: WeightState) -> float:
    """Sum of squared per-vertex loads, the quantity the iteration minimizes."""
    return sum(x * x for x in ws.load)
