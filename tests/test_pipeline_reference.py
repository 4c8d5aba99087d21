"""Completeness of emit_all past the oracle's 12-vertex limit.

The reference is built here from the flow layer alone, apart from the
driver's proposal, pruning and verification:

- exact compact numbers, one level at a time: starting from the vertices of
  all denser levels, a Dinkelbach iteration with ``derive_compact`` finds
  the next level's density and, as the largest maximizer at that density,
  the nested set of all vertices at or above it;
- the locally densest subgraphs: each connected component of
  {phi >= x} whose members all have phi = x, whose density is x and which
  is self-densest.

The reference is checked against the brute-force oracle on tiny graphs and
then compared with ``emit_all`` on seeded planted graphs of 30-300 vertices.
"""

import random
from fractions import Fraction

import pytest

from lhcds import (PipelineConfig, RunStats, connected_components,
                   derive_compact, enumerate_cliques, induced_subgraph,
                   ippv, is_densest, oracle_compact_numbers, oracle_lhcds,
                   restrict_cliques)
from lhcds.flow import denser_part
from helpers import gnp, planted


def _compact_numbers(g, cs):
    """Every vertex's compact number, exactly, from nested flow cuts.

    With ``inner`` the vertices of the levels found so far, the next level's
    density is the largest (cliques gained) / (vertices gained) over
    supersets of ``inner``. The largest maximizer of cliques - x * size at
    any x below the levels found contains ``inner``, so the Dinkelbach step
    "x := ratio of the largest maximizer at x" climbs to that density, and
    its fixed point is the set of all vertices with phi >= x.
    """
    phi = [None] * g.n
    inner: set[int] = set()
    inner_count = 0
    while len(inner) < g.n:
        x = Fraction(len(cs.cliques) - inner_count, g.n - len(inner))
        while True:
            level = set(derive_compact(g, cs, x))
            ratio = Fraction(cs.count_within(level) - inner_count,
                             len(level) - len(inner))
            if ratio == x:
                break
            x = ratio
        for v in level - inner:
            phi[v] = x
        inner = level
        inner_count = cs.count_within(inner)
    return phi


def _reference_lhcds(g, cs):
    """Sorted (members, density) of every locally densest subgraph."""
    phi = _compact_numbers(g, cs)
    found = []
    for x in sorted(set(phi)):
        if x == 0:
            continue
        for comp in connected_components(
                g, [v for v in range(g.n) if phi[v] >= x]):
            if any(phi[v] != x for v in comp):
                continue
            if Fraction(cs.count_within(set(comp)), len(comp)) != x:
                continue
            if is_densest(induced_subgraph(g, comp), restrict_cliques(cs, comp)):
                found.append((comp, x))
    return sorted(found)


def _tiny_graphs(seed, count):
    rng = random.Random(seed)
    return [gnp(rng, rng.randint(4, 10), rng.choice([0.3, 0.5, 0.7]))
            for _ in range(count)]


def test_reference_matches_oracle():
    for g in _tiny_graphs(seed=31, count=40):
        for h in (2, 3, 4):
            cs = enumerate_cliques(g, h)
            assert _compact_numbers(g, cs) == oracle_compact_numbers(g, h)
            assert _reference_lhcds(g, cs) == sorted(oracle_lhcds(g, h))


def test_denser_part_is_the_vertices_above_the_density():
    rng = random.Random(32)
    checks = 0
    for g in _tiny_graphs(seed=33, count=40):
        for h in (2, 3, 4):
            for comp in connected_components(g):
                s = [v for v in comp if rng.random() < 0.8] or list(comp)
                sub = induced_subgraph(g, s)
                sub_cs = restrict_cliques(enumerate_cliques(g, h), s)
                d = Fraction(len(sub_cs.cliques), sub.n)
                phi = oracle_compact_numbers(sub, h)
                want = tuple(v for v in range(sub.n) if phi[v] > d)
                assert denser_part(sub, sub_cs) == want
                assert is_densest(sub, sub_cs) == (want == ())
                checks += 1
    assert checks > 100


def _planted_case(seed):
    """A 30-300-vertex planted graph: blocks of 5-9 vertices at p=0.8 and
    about n uniform edges besides."""
    rng = random.Random(seed)
    n = rng.randint(30, 300)
    blocks = max(1, n // 25)
    return planted(seed, n=n, m=blocks * 17 + n, blocks=blocks, size_lo=5,
                   size_hi=9, p=0.8), rng.choice([2, 3, 4])


@pytest.mark.time_limit(10)  # each case took under 1 s when measured
@pytest.mark.parametrize("seed", range(40))
def test_emit_all_matches_reference(seed):
    g, h = _planted_case(seed)
    stats = RunStats()
    got = ippv(g, PipelineConfig(h=h, k=1, emit_all=True, cross_check=True),
               stats=stats)
    assert sorted((r.members, r.density) for r in got) == \
        _reference_lhcds(g, enumerate_cliques(g, h))
    assert stats.verify_disagreements == 0
