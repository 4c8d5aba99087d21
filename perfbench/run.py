#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of the lhcds library.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

One run generates the workload's graphs (outside every timed region), then
repeats passes of ``ippv``/``ippv_pattern`` over the workload's operations
for ``--seconds``; before each call it times ``parse_edge_list`` on the
operation's edge-list text. ``query_s`` is the median over passes of the
time of the calls that finished, and ``setup_s`` the parse time; both are
normalized to a reference speed sampled inside the timed code (see
``REF_NOMINAL_S``), and the raw wall times are printed beside them. Every
operation runs under a wall cap enforced from outside the library by
SIGALRM, so a livelocked run counts as failed instead of hanging the
benchmark. An operation that overran the cap
counts as failed once and is not run again in that run, and time spent in
capped calls does not count towards ``--seconds``. After the timed passes
the run checks the outputs and runs the CLI in-process on the same edge
list.

With ``--trace 1`` untraced passes alternate with passes that run with
wrappers around each layer's public functions, and the run reports per-layer
self times and counts (means per traced pass) plus the tracing overhead.
Spans are written to ``.perfbench_out/`` when the run ends.

Every run compares each operation's result digest and the SHA-256 of the
CLI's stdout with the values committed in ``perfbench/expected.json``, so a
change that alters results or CLI output fails the run until it updates
that file. The other output checks are expensive (whole-graph flow for
every emitted set and a ``cross_check`` run), so their verdicts are cached
in the checkout per program version and result digest. The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any

from tracing import COUNT_METRICS, SELF_METRICS, Tracer, installed, write_spans
from workloads import WORKLOADS, Workload, edge_list_text

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
STATE_PATH = os.path.join(OUT_DIR, "state.json")
EXPECTED_PATH = os.path.join(HERE, "expected.json")
# Before every timed call the operation's text is parsed again until the
# parses fill max(SETUP_SLICE_S, SETUP_SHARE * the op's last query time), so
# set-up samples spread over the whole run as the query samples do.
SETUP_SLICE_S = 0.05
SETUP_SHARE = 0.1
# Reported times are normalized to a reference speed: raw times are scaled by
# REF_NOMINAL_S over the median time of a fixed pure-Python reference routine
# that a SIGPROF handler runs inside the timed code, every PROBE_INTERVAL_S of
# its CPU time. The speed of the shared host changes by up to ~1.7x within
# seconds, faster than one long call lasts. Sampled inside the calls, the
# reference tracks the program (time ratio about 1:1, correlation 0.97); timed
# right before each call it did not (correlation 0.6-0.7).
REF_NOMINAL_S = 0.0004
PROBE_INTERVAL_S = 0.025
MIN_PASS_SAMPLES = 5
CROSS_CHECK_CAP_FACTOR = 2  # cross_check runs both verifiers


class WallCapExceeded(BaseException):
    """Raised inside an operation that overran its wall cap. A BaseException,
    so that no ``except Exception`` in the library can swallow it."""


@contextlib.contextmanager
def wall_cap(seconds: float):
    def on_alarm(signum, frame):
        raise WallCapExceeded
    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def import_program():
    """Import lhcds from this checkout's ``src``, and only from there."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import lhcds
    import lhcds.cli
    if not os.path.abspath(lhcds.__file__).startswith(src + os.sep):
        raise ImportError(f"lhcds imported from {lhcds.__file__}, not {src}")
    return lhcds


def code_digest() -> str:
    """Digest of the program and benchmark sources: cached checks are only
    reused for the exact code that produced them."""
    h = hashlib.sha256()
    for base in (os.path.join(ROOT, "src", "lhcds"), HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fp:
                    h.update(name.encode() + b"\0" + fp.read())
    return h.hexdigest()


def reference_work() -> int:
    """Fixed pure-Python work that shares nothing with the program: dict, set,
    tuple and sort churn with integer arithmetic, the library's kind of work,
    small enough to leave the peak RSS and the caches alone."""
    table = {}
    for i in range(1_000):
        table[i] = (i * 7919) % 10_007
    odd = set()
    for k, v in table.items():
        if v & 1:
            odd.add((k, v))
    total = len(sorted(table.values()))
    for a, b in odd:
        total += a ^ b
    return total


def reference_seconds() -> float:
    """Time of one run of the reference work, with gc paused (a collection
    of the program's heap would swamp it)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Times the reference work every PROBE_INTERVAL_S of CPU time spent
    inside ``running`` blocks, so the machine's speed is sampled during the
    timed code itself. The CPU time left to the next sample carries over
    from one block to the next. A block too short for the kernel's timer to
    fire in takes the sample that fell due in it when it ends. The time of
    every sample is kept, to be taken off the timed code's time."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._left = PROBE_INTERVAL_S
        self._fired_at: float | None = None

    def _on_signal(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(reference_seconds())
        self.spent += time.perf_counter() - start
        self._fired_at = time.process_time()

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGPROF, self._on_signal)
        self._fired_at = None
        begin = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, self._left, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)
            if self._fired_at is None:
                left = self._left - (time.process_time() - begin)
            else:
                left = PROBE_INTERVAL_S - (time.process_time() - self._fired_at)
            if left <= 0:
                self._on_signal(signal.SIGPROF, None)
                left = PROBE_INTERVAL_S
            self._left = max(left, 0.001)  # 0 would disarm the timer


# One probe for the timed calls and one for the set-up parses, per run.
CALL_PROBE = SpeedProbe()
PARSE_PROBE = SpeedProbe()


@dataclass
class Op:
    """One operation: a pinned graph and the workload's query on it."""

    key: str
    graph_seed: int
    text: str
    n: int = 0
    m: int = 0
    graph: Any = None
    parse_s: list[float] = field(default_factory=list)   # raw
    last_query_s: float = 0.0

    def parse(self, lh) -> None:
        """Ingest the text, timed, as set-up for the next call."""
        times: list[float] = []
        budget = max(SETUP_SLICE_S, SETUP_SHARE * self.last_query_s)
        while sum(times) < budget:
            self.graph = None
            gc.collect()
            spent = PARSE_PROBE.spent
            start = time.perf_counter()
            with PARSE_PROBE.running():
                g = lh.parse_edge_list(self.text)
            seconds = time.perf_counter() - start
            times.append(seconds - (PARSE_PROBE.spent - spent))
            self.graph, self.n, self.m = g, g.n, g.m
        self.parse_s += times


@dataclass
class Execution:
    seconds: float               # raw wall time of the call, probes excluded
    ref_times: list[float]       # reference times sampled during it
    status: str                  # "ok", "cap" or "raised"
    results: list = field(default_factory=list)
    stats: Any = None
    digest: str = ""
    error: str = ""


def config(lh, w: Workload, **extra):
    return lh.PipelineConfig(h=3, k=w.k, emit_all=w.emit_all, **extra)


def query(lh, w: Workload, g, cfg, stats):
    if w.pattern:
        return lh.ippv_pattern(g, w.pattern, cfg, stats=stats)
    return lh.ippv(g, cfg, stats=stats)


def result_digest(results) -> str:
    rows = [[list(r.vertices), r.clique_count,
             f"{r.density.numerator}/{r.density.denominator}"] for r in results]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def execute(lh, w: Workload, op: Op, tracer: Tracer | None = None) -> Execution:
    """One timed call under the wall cap, after its set-up parses; the clock
    covers the call only. The speed probe runs only in untraced calls: its
    time would fall into the spans."""
    op.parse(lh)
    probe = CALL_PROBE
    first, spent = len(probe.samples), probe.spent
    stats = lh.RunStats()
    cfg = config(lh, w)
    results, status, error = [], "ok", ""
    gc.collect()
    if tracer is not None:
        tracer.op = op.key
    start = time.perf_counter()
    try:
        with wall_cap(w.cap_s):
            start = time.perf_counter()
            if tracer is None:
                with probe.running():
                    results = query(lh, w, op.graph, cfg, stats)
            else:
                tracer.enter("pipeline")
                try:
                    results = query(lh, w, op.graph, cfg, stats)
                finally:
                    tracer.leave()
            seconds = time.perf_counter() - start
    except WallCapExceeded:
        seconds, status = time.perf_counter() - start, "cap"
    except Exception:  # the benchmark must survive a failing operation
        seconds, status = time.perf_counter() - start, "raised"
        error = traceback.format_exc(limit=3)
    if tracer is not None:
        tracer.unwind()
    seconds -= probe.spent - spent
    if status == "ok":  # a capped call would inflate the next set-up slice
        op.last_query_s = seconds
    ref_times = probe.samples[first:]
    digest = result_digest(results) if status == "ok" else ""
    return Execution(seconds, ref_times, status, results, stats, digest, error)


Pass = list[Execution | None]  # aligned with the ops; None: not run


def run_pass(lh, w: Workload, ops: list[Op], capped: set[str],
             tracer: Tracer | None = None) -> tuple[Pass, float]:
    """One pass over the operations, skipping those in ``capped``, which
    receives every operation that overruns its cap. Also returns the wall
    time of the pass without the capped calls: a livelocked call is a
    failure, not a measurement, and must not use up the run's time."""
    start = time.perf_counter()
    p: Pass = []
    excluded = 0.0
    for op in ops:
        if op.key in capped:
            p.append(None)
            continue
        e = execute(lh, w, op, tracer)
        if e.status == "cap":
            capped.add(op.key)
            excluded += e.seconds
        p.append(e)
    return p, time.perf_counter() - start - excluded


# --- output checks --------------------------------------------------------

def rank_inversions(results) -> int:
    """Pairs of ranks i < j whose densities increase (the README promises
    non-increasing densities)."""
    d = [r.density for r in results]
    return sum(1 for i in range(len(d)) for j in range(i + 1, len(d))
               if d[j] > d[i])


def check_outputs(lh, w: Workload, op: Op, results) -> dict:
    g = op.graph
    cs = lh.enumerate_patterns(g, w.pattern) if w.pattern \
        else lh.enumerate_cliques(g, 3)
    seen: set[int] = set()
    disjoint = True
    for r in results:
        if seen.intersection(r.members):
            disjoint = False
        seen.update(r.members)
    checks = {
        "verify_basic": all(lh.verify_basic(g, cs, r.members) for r in results),
        "disjoint": disjoint,
        "rank_inversions": rank_inversions(results),
        "cross_check_disagreements": None,
        "cross_check_same_result": False,
    }
    stats = lh.RunStats()
    try:
        with wall_cap(w.cap_s * CROSS_CHECK_CAP_FACTOR):
            cross = query(lh, w, g, config(lh, w, cross_check=True), stats)
        checks["cross_check_disagreements"] = stats.verify_disagreements
        checks["cross_check_same_result"] = \
            result_digest(cross) == result_digest(results)
    except WallCapExceeded:
        pass
    return checks


def checks_pass(checks: dict) -> bool:
    return (checks["verify_basic"] and checks["disjoint"]
            and checks["rank_inversions"] == 0
            and checks["cross_check_disagreements"] == 0
            and checks["cross_check_same_result"])


def run_cli(lh, w: Workload, op: Op) -> tuple[str, list | None]:
    """SHA-256 of the CLI's stdout on the edge list, and its rows (None when
    it failed or overran the cap)."""
    path = os.path.join(OUT_DIR, f"{w.name}-{op.graph_seed}.txt")
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(op.text)
    argv = ["--input", path, "--h", "3", "--k", str(w.k)]
    if w.pattern:
        argv += ["--pattern", w.pattern]
    out = io.StringIO()
    try:
        with wall_cap(w.cap_s), contextlib.redirect_stdout(out):
            code = lh.cli.main(argv)
    except WallCapExceeded:
        return "", None
    stdout = out.getvalue()
    rows = json.loads(stdout) if code == 0 else None
    return hashlib.sha256(stdout.encode()).hexdigest(), rows


def load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fp:
            return json.load(fp)
    except (OSError, ValueError):
        return {}


def save_state(state: dict) -> None:
    tmp = STATE_PATH + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fp:
        json.dump(state, fp, indent=1, sort_keys=True)
    os.replace(tmp, STATE_PATH)


def verify_run(lh, w: Workload, ops: list[Op],
               passes: list[Pass]) -> tuple[dict, dict, list[str]]:
    """Output checks per operation: per-op verdicts, check records, problems.

    A verdict is True when the operation's output passed every check. The
    result digest and the CLI stdout digest are compared on every run with
    ``expected.json``; an operation with no entry there (one that overran
    its cap when the file was written) is checked by the other checks only.
    The verdicts of ``check_outputs`` are cached per (workload, graph seed)
    for one code digest and result digest, only to save their time.
    """
    expected = load_json(EXPECTED_PATH)
    state = load_json(STATE_PATH)
    code = code_digest()
    verdicts: dict[str, bool] = {}
    checks: dict[str, dict] = {}
    problems: list[str] = []
    for i, op in enumerate(ops):
        done = [p[i] for p in passes if p[i] is not None and p[i].status == "ok"]
        if not done:
            continue
        digests = {e.digest for e in done}
        if len(digests) > 1:
            problems.append(f"{op.key}: {len(digests)} result digests in one run")
        digest = done[0].digest
        want = expected.get(op.key, {})
        entry = state.get(op.key)
        if entry is None or entry["code"] != code or entry["digest"] != digest:
            entry = {"code": code, "digest": digest,
                     "checks": check_outputs(lh, w, op, done[0].results)}
            state[op.key] = entry
        ok = checks_pass(entry["checks"]) and len(digests) == 1
        if "result" in want and digest != want["result"]:
            problems.append(f"{op.key}: result digest {digest} differs from "
                            f"{want['result']} in perfbench/expected.json")
            ok = False
        if w.cli:
            sha, rows = run_cli(lh, w, op)
            expected_rows = [[list(r.vertices), r.clique_count]
                             for r in done[0].results]
            if rows is None or [[r["vertices"], r["count"]]
                                for r in rows] != expected_rows:
                problems.append(f"{op.key}: CLI output differs from the library")
                ok = False
            if "cli" in want and sha != want["cli"]:
                problems.append(f"{op.key}: CLI stdout sha256 {sha} differs "
                                f"from {want['cli']} in perfbench/expected.json")
                ok = False
        verdicts[op.key] = ok
        checks[op.key] = entry["checks"]
        if not checks_pass(entry["checks"]):
            problems.append(f"{op.key}: output checks failed: "
                            f"{json.dumps(entry['checks'])}")
    save_state(state)
    return verdicts, checks, problems


# --- reporting ------------------------------------------------------------

def tail_percentile(samples: list[float]) -> str:
    """The highest of a few percentiles with at least ten samples beyond it."""
    n = len(samples)
    ordered = sorted(samples)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            rank = max(1, math.ceil(p / 100 * n))
            return f"p{p:g} {ordered[rank - 1]:.4f} s"
    return "no percentile has 10 samples beyond it"


def pass_seconds(p: Pass) -> float:
    """Raw time of the calls in the pass that finished."""
    return sum(e.seconds for e in p if e is not None and e.status == "ok")


def pass_references(p: Pass) -> list[float]:
    return [t for e in p if e is not None and e.status == "ok"
            for t in e.ref_times]


def normalized_pass_seconds(p: Pass, run_ref_s: float) -> float:
    """``pass_seconds`` at the median reference speed sampled during those
    calls, or during the whole run when the pass has too few samples."""
    refs = pass_references(p)
    ref_s = statistics.median(refs) if len(refs) >= MIN_PASS_SAMPLES \
        else run_ref_s
    return pass_seconds(p) * REF_NOMINAL_S / ref_s


def run_reference(passes: list[Pass]) -> float:
    return statistics.median(t for p in passes for t in pass_references(p))


def count_failures(ops: list[Op], passes, verdicts) -> tuple[int, int]:
    attempted = failed = 0
    for p in passes:
        for op, e in zip(ops, p):
            if e is None:
                continue
            attempted += 1
            if e.status != "ok" or not verdicts.get(op.key, False):
                failed += 1
    return attempted, failed


def per_layer(tracer: Tracer, traced, untraced, ops, checks) -> dict:
    """Per-pass means of the traced counters and self times.

    They cover every traced call, capped ones too, which is where a livelock
    spends its time; so ``trace.query_s`` and ``trace.untraced_query_s`` are
    mean pass times over every call, and the self times add up to the first.
    """
    npass = len(traced)
    values: dict[str, float] = {}
    for span, metric in SELF_METRICS.items():
        values[metric] = tracer.self_s.get(span, 0.0) / npass
    for metric in COUNT_METRICS:
        values[metric] = tracer.counts.get(metric, 0) / npass
    stats = [e.stats for p in traced for e in p if e is not None]
    for metric, attr in (("pipeline.rounds", "rounds"),
                         ("pipeline.candidates", "candidates_proposed"),
                         ("pipeline.emitted", "emitted"),
                         ("pruning.pruned_vertices", "pruned_vertices"),
                         ("flow.densest_checks", "densest_checks"),
                         ("flow.verify_calls", "verify_calls")):
        values[metric] = sum(getattr(s, attr) for s in stats) / npass
    values["pipeline.max_iterations"] = max(s.max_iterations_used for s in stats)
    values["pipeline.rank_inversions"] = sum(
        c["rank_inversions"] for c in checks.values())

    def mean_pass(passes) -> float:
        return statistics.fmean(sum(e.seconds for e in p if e is not None)
                                for p in passes)

    traced_s, untraced_s = mean_pass(traced), mean_pass(untraced)
    values["trace.query_s"] = traced_s
    values["trace.untraced_query_s"] = untraced_s
    values["trace.overhead"] = traced_s / untraced_s - 1.0
    values["trace.self_sum_s"] = sum(tracer.self_s.values()) / npass
    values["trace.ref_s"] = run_reference(untraced + traced)
    values["raw.query_s"] = statistics.median(pass_seconds(p) for p in untraced)
    values["raw.setup_s"] = sum(statistics.median(op.parse_s) for op in ops)
    return values


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("overhead"):
        return "ratio"
    return "count"


def _verdict(ok: bool | None) -> str:
    return "none (no finished call)" if ok is None else ("ok" if ok else "FAILED")


def run_workload(args) -> int:
    lh = import_program()
    w = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    ops = [Op(key=f"{w.name}/{s}", graph_seed=s,
              text=edge_list_text(w.generate(s), args.seed))
           for s in w.graph_seeds]
    tracer = Tracer() if args.trace else None
    passes: list[Pass] = []
    untraced: list[Pass] = []
    capped: set[str] = set()
    traced_capped: set[str] = set()
    spent = 0.0
    while not passes or spent < args.seconds:
        if tracer is None:
            p, seconds = run_pass(lh, w, ops, capped)
        else:
            # untraced and traced passes alternate, so both see the same
            # machine; each runs a capped operation once
            u, seconds = run_pass(lh, w, ops, capped)
            untraced.append(u)
            with installed(tracer, lh):
                p, traced_s = run_pass(lh, w, ops, traced_capped, tracer)
            seconds += traced_s
        passes.append(p)
        spent += seconds
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    executed = untraced + passes if args.trace else passes
    verdicts, checks, problems = verify_run(lh, w, ops, executed)
    attempted, failed = count_failures(ops, executed, verdicts)
    correct = not problems

    timed = untraced if args.trace else passes
    raw = [pass_seconds(p) for p in timed]
    ref_s = run_reference(timed)
    samples = [normalized_pass_seconds(p, ref_s) for p in timed]
    raw_setup_s = sum(statistics.median(op.parse_s) for op in ops)
    setup_s = raw_setup_s * REF_NOMINAL_S / statistics.median(PARSE_PROBE.samples)
    print(f"workload {w.name}: mode {w.mode}, graph seeds "
          f"{list(w.graph_seeds)}, text seed {args.seed}, cap {w.cap_s:g} s")
    print(f"  why: {w.why}")
    for i, op in enumerate(ops):
        ex = [p[i] for p in passes if p[i] is not None]
        finished = [e.seconds for e in ex if e.status == "ok"]
        timing = (f"raw median {statistics.median(finished):.4f} s"
                  if finished else "no finished call")
        stats = ex[-1].stats
        print(f"  op {op.key}: n={op.n} m={op.m} cliques={stats.clique_count} "
              f"calls={len(ex)} status={ex[-1].status} {timing} "
              f"rounds={stats.rounds} max_iterations={stats.max_iterations_used} "
              f"emitted={stats.emitted} checks={_verdict(verdicts.get(op.key))}")
        for e in ex:
            if e.error:
                print("    " + e.error.strip().replace("\n", "\n    "))
                break
    print(f"  reference routine {ref_s * 1000:.2f} ms (median; nominal "
          f"{REF_NOMINAL_S * 1000:g} ms): times below are normalized, raw in []")
    print(f"  query_s {statistics.median(samples):.4f} s "
          f"[{statistics.median(raw):.4f} s] median of {len(samples)} "
          f"passes; {tail_percentile(samples)}")
    print(f"  setup_s {setup_s:.4f} s [{raw_setup_s:.4f} s]: per-op median of "
          f"{sum(len(op.parse_s) for op in ops)} parses")
    print(f"  peak_rss_mb {peak_rss_mb:.1f} MB")
    print(f"  failed_share {failed}/{attempted} = {failed / attempted:.3f}")
    for p in problems:
        print(f"  problem: {p}")

    if args.trace:
        metrics = per_layer(tracer, passes, untraced, ops, checks)
        write_spans(tracer, os.path.join(
            OUT_DIR, f"spans-{w.name}-{args.seed}.jsonl"))
        print(f"  traced query_s {metrics['trace.query_s']:.4f} s, untraced "
              f"{metrics['trace.untraced_query_s']:.4f} s, overhead "
              f"{metrics['trace.overhead']:+.1%}; self times sum to "
              f"{metrics['trace.self_sum_s']:.4f} s")
    else:
        metrics = {"query_s": statistics.median(samples),
                   "setup_s": setup_s,
                   "peak_rss_mb": peak_rss_mb}
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process (peak RSS never falls within one)."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(f"{'workload':14} {'correct':>7} {'failed':>9}  metrics")
    for name, r in results.items():
        shown = "  ".join(f"{k}={m['value']:.4g} {m['unit']}"
                          for k, m in r["metrics"].items())
        print(f"{name:14} {str(r['correct']):>7} "
              f"{r['failed']:>4}/{r['attempted']:<4}  {shown}")
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    try:
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
