"""The benchmark tracer's seams: the module attributes it wraps by name.

``perfbench/tracing.installed`` looks up every seam when it is built, so a
renamed function or a dropped re-export breaks the traced benchmark. The
untraced benchmark never builds it; this test does.
"""

import importlib.util
from pathlib import Path

import lhcds
from helpers import two_k4_bridge_vertex

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_seam_is_wrapped_inside_and_restored_after():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    seams = tracing.installed(tracer, lhcds)  # looks every seam up
    plan = seams._plan
    assert plan
    originals = [getattr(module, attr) for module, attr, _ in plan]
    with seams:
        for (module, attr, wrapper), original in zip(plan, originals):
            assert getattr(module, attr) is wrapper, f"{module.__name__}.{attr}"
            assert wrapper.__wrapped__ is original
        got = lhcds.ippv(two_k4_bridge_vertex(), lhcds.PipelineConfig(k=2))
    assert len(got) == 2
    assert tracer.counts["cliques.count"] == 8  # the two K4s' triangles
    for (module, attr, _), original in zip(plan, originals):
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"


def test_pattern_query_runs_the_proposal_through_the_seams():
    # only a non-clique pattern query runs the weight iteration, and the
    # tracer reads its round count from the second positional argument
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    with tracing.installed(tracer, lhcds):
        got = lhcds.ippv_pattern(two_k4_bridge_vertex(), "diamond",
                                 lhcds.PipelineConfig(k=2))
    assert len(got) == 2
    instances = tracer.counts["patterns.instances"]
    assert instances == 12  # six diamonds in each K4
    assert tracer.counts["weights.fw_rounds"] == 20
    assert tracer.counts["weights.fw_updates"] == 20 * instances
    assert tracer.self_s["proposal.decompose"] > 0
    assert tracer.self_s["proposal.stable"] > 0
