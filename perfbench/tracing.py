"""Per-layer spans and counts, taken by wrapping the library's public functions.

Wrappers are installed on the names each module actually calls: the pipeline,
pruning and flow modules import their helpers by name, so patching only the
defining module would miss those calls. A span's self time is its duration
minus the time its child spans cover, so the self times of one operation add
up to its root span. Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from functools import wraps
from typing import Any, Callable

# layer span name -> per-layer metric that receives its self time
SELF_METRICS = {
    "pipeline": "pipeline.self_s",
    "graph.induced": "graph.induced_s",
    "cliques.enumerate": "cliques.enumerate_s",
    "cliques.restrict": "cliques.restrict_s",
    "cliques.core": "cliques.core_s",
    "cliques.bounds_init": "cliques.bounds_init_s",
    "patterns.enumerate": "patterns.enumerate_s",
    "weights.init": "weights.init_s",
    "weights.fw": "weights.fw_s",
    "proposal.decompose": "proposal.decompose_s",
    "proposal.stable": "proposal.stable_s",
    "pruning.prune": "pruning.prune_s",
    "flow.build": "flow.build_s",
    "flow.maxflow": "flow.maxflow_s",
    "flow.densest": "flow.densest_s",
    "flow.verify": "flow.verify_s",
}

COUNT_METRICS = (
    "graph.induced_calls", "cliques.count", "cliques.restrict_calls",
    "cliques.core_calls", "patterns.instances", "weights.fw_rounds",
    "weights.fw_updates", "pruning.cascade_passes", "pruning.bound_compares",
    "flow.networks", "flow.nodes", "flow.arcs", "flow.verify_no_flow",
)


class Tracer:
    """Span stack, self times and counters for the operations of one run."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [op, name, start, end, parent]
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.op = ""
        self._stack: list[list[Any]] = []  # [span index, child seconds]

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append([self.op, name, time.perf_counter(), None, parent])
        self._stack.append([len(self.spans) - 1, 0.0])

    def leave(self) -> float:
        end = time.perf_counter()
        index, child = self._stack.pop()
        span = self.spans[index]
        span[3] = end
        duration = end - span[2]
        self.self_s[span[1]] += duration - child
        if self._stack:
            self._stack[-1][1] += duration
        return duration

    def unwind(self) -> None:
        """Close every open span, after an operation was cut off."""
        while self._stack:
            self.leave()


def _span(tracer: Tracer, name: str, fn: Callable,
          after: Callable[[tuple, Any], None] | None = None) -> Callable:
    @wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave()
        if after is not None:
            after(args, result)
        return result
    return wrapper


def _install_plan(tracer: Tracer, lh) -> list[tuple[Any, str, Callable]]:
    """(module, attribute, wrapper) for every call boundary that is traced."""
    counts = tracer.counts

    def count(key: str, amount: int = 1) -> None:
        counts[key] += amount

    def induced(fn):
        return _span(tracer, "graph.induced", fn,
                     lambda a, r: count("graph.induced_calls"))

    def restrict(fn):
        return _span(tracer, "cliques.restrict", fn,
                     lambda a, r: count("cliques.restrict_calls"))

    def enumerate_cliques(fn):
        return _span(tracer, "cliques.enumerate", fn,
                     lambda a, r: count("cliques.count", len(r.cliques)))

    def core(fn, extra=None):
        def after(a, r):
            count("cliques.core_calls")
            if extra:
                count(extra)
        return _span(tracer, "cliques.core", fn, after)

    def fw_after(args, ws):
        rounds = args[1]
        count("weights.fw_rounds", rounds)
        count("weights.fw_updates", rounds * len(ws.cs.cliques))

    def build_after(args, net):
        count("flow.networks")
        count("flow.nodes", len(net.arcs))
        count("flow.arcs", sum(map(len, net.arcs)) // 2)  # arc + residual twin

    def verify(fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            networks = counts["flow.networks"]
            tracer.enter("flow.verify")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.leave()
                if counts["flow.networks"] == networks:
                    count("flow.verify_no_flow")
        return wrapper

    def bound_compares(fn):
        @wraps(fn)
        def wrapper(a, b):
            counts["pruning.bound_compares"] += 1
            return fn(a, b)
        return wrapper

    pipeline, pruning, flow, patterns = lh.pipeline, lh.pruning, lh.flow, lh.patterns
    return [
        (pipeline, "enumerate_cliques", enumerate_cliques(pipeline.enumerate_cliques)),
        (pipeline, "enumerate_patterns", _span(
            tracer, "patterns.enumerate", pipeline.enumerate_patterns,
            lambda a, r: count("patterns.instances", len(r.cliques)))),
        (pipeline, "clique_core_numbers", core(pipeline.clique_core_numbers)),
        (pipeline, "initialize_bounds", _span(
            tracer, "cliques.bounds_init", pipeline.initialize_bounds)),
        (pipeline, "restrict_cliques", restrict(pipeline.restrict_cliques)),
        (pipeline, "induced_subgraph", induced(pipeline.induced_subgraph)),
        (pipeline, "init_weights", _span(tracer, "weights.init",
                                         pipeline.init_weights)),
        (pipeline, "run_iterations", _span(tracer, "weights.fw",
                                           pipeline.run_iterations, fw_after)),
        (pipeline, "tentative_decomposition", _span(
            tracer, "proposal.decompose", pipeline.tentative_decomposition)),
        (pipeline, "derive_stable_groups", _span(
            tracer, "proposal.stable", pipeline.derive_stable_groups)),
        (pipeline, "prune", _span(tracer, "pruning.prune", pipeline.prune)),
        (pipeline, "is_densest", _span(tracer, "flow.densest",
                                       pipeline.is_densest)),
        (pipeline, "verify_fast", verify(pipeline.verify_fast)),
        (pipeline, "verify_basic", verify(pipeline.verify_basic)),
        (pruning, "enumerate_cliques", enumerate_cliques(pruning.enumerate_cliques)),
        (pruning, "clique_core_numbers", core(pruning.clique_core_numbers,
                                              "pruning.cascade_passes")),
        (pruning, "restrict_cliques", restrict(pruning.restrict_cliques)),
        (pruning, "induced_subgraph", induced(pruning.induced_subgraph)),
        (pruning, "definitely_less", bound_compares(pruning.definitely_less)),
        (patterns, "enumerate_cliques", enumerate_cliques(patterns.enumerate_cliques)),
        (flow, "build_network", _span(tracer, "flow.build", flow.build_network,
                                      build_after)),
        (flow, "min_cut", _span(tracer, "flow.maxflow", flow.min_cut)),
        (flow, "restrict_cliques", restrict(flow.restrict_cliques)),
        (flow, "induced_subgraph", induced(flow.induced_subgraph)),
    ]


class installed:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self, tracer: Tracer, lh) -> None:
        self._plan = _install_plan(tracer, lh)
        self._saved: list[tuple[Any, str, Callable]] = []

    def __enter__(self) -> None:
        for module, attr, wrapper in self._plan:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def write_spans(tracer: Tracer, path: str) -> None:
    """One JSON object per span: op, name, start, end, parent span index."""
    with open(path, "w", encoding="utf-8") as fp:
        for i, (op, name, start, end, parent) in enumerate(tracer.spans):
            fp.write(json.dumps({"id": i, "op": op, "name": name,
                                 "start": start, "end": end,
                                 "parent": parent}) + "\n")
