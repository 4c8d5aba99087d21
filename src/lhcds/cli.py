"""Command-line entry point: ingest an edge list, run discovery, report.

Results go to stdout (JSON array by default, TSV with --output tsv) and are
byte-identical across repeated runs; --stats writes counters and wall time
to stderr, which is excluded from that guarantee. Densities are printed as
the exact unreduced fraction "count/size" plus a decimal.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .graph import parse_edge_list
from .oracle import oracle_lhcds
from .pipeline import PipelineConfig, ResultRecord, RunStats, ippv, ippv_pattern
from .patterns import PATTERN_NAMES


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lhcds",
        description="Exact top-k locally h-clique (or 4-vertex pattern) "
                    "densest subgraph discovery.")
    p.add_argument("--input", required=True, help="edge list file (u v per line)")
    p.add_argument("--h", type=int, default=3, help="clique size (default 3)")
    p.add_argument("--k", type=int, default=5, help="number of results (default 5)")
    p.add_argument("--iterations", type=int, default=20,
                   help="weight-iteration rounds per proposal (default 20)")
    p.add_argument("--verify", choices=("basic", "fast"), default="fast")
    p.add_argument("--pattern", choices=PATTERN_NAMES, default=None,
                   help="switch to pattern-density mode")
    p.add_argument("--output", choices=("json", "tsv"), default="json")
    p.add_argument("--oracle", action="store_true",
                   help="brute-force enumeration instead (tiny graphs only)")
    p.add_argument("--stats", action="store_true",
                   help="emit run counters and wall time on stderr")
    return p


def _records_to_rows(records) -> list[dict]:
    rows = []
    for r in records:
        size = len(r.vertices)
        rows.append({
            "rank": r.rank,
            "vertices": list(r.vertices),
            "count": r.clique_count,
            "density": f"{r.clique_count}/{size}",
            "density_decimal": r.clique_count / size,
        })
    return rows


def _emit(rows: list[dict], fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(rows, indent=2) + "\n")
    else:
        sys.stdout.write("rank\tvertices\tcount\tdensity\tdensity_decimal\n")
        for row in rows:
            verts = ",".join(map(str, row["vertices"]))
            sys.stdout.write(f"{row['rank']}\t{verts}\t{row['count']}\t"
                             f"{row['density']}\t{row['density_decimal']}\n")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        with open(args.input, "r", encoding="utf-8") as fp:
            g = parse_edge_list(fp)
    except OSError as exc:
        print(f"lhcds: cannot read {args.input}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"lhcds: parse error: {exc}", file=sys.stderr)
        return 2

    stats = RunStats()
    try:
        if args.oracle:
            if args.pattern is not None:
                print("lhcds: --oracle supports clique mode only", file=sys.stderr)
                return 2
            found = oracle_lhcds(g, args.h)
            records = [ResultRecord(rank=i + 1,
                                    vertices=tuple(sorted(g.labels[v] for v in vs)),
                                    members=vs, clique_count=int(d * len(vs)),
                                    density=d)
                       for i, (vs, d) in enumerate(found[:args.k])]
        else:
            cfg = PipelineConfig(h=args.h, k=args.k, iterations=args.iterations,
                                 verify_mode=args.verify)
            if args.pattern is not None:
                records = ippv_pattern(g, args.pattern, cfg, stats=stats)
            else:
                records = ippv(g, cfg, stats=stats)
    except ValueError as exc:
        print(f"lhcds: {exc}", file=sys.stderr)
        return 2

    _emit(_records_to_rows(records), args.output)
    if args.stats:
        payload = {
            "n": g.n, "m": g.m,
            "clique_count": stats.clique_count,
            "rounds": stats.rounds,
            "candidates_proposed": stats.candidates_proposed,
            "pruned_vertices": stats.pruned_vertices,
            "densest_checks": stats.densest_checks,
            "verify_calls": stats.verify_calls,
            "flow_calls": stats.flow_calls,
            "emitted": stats.emitted,
            "wall_seconds": round(time.monotonic() - started, 6),
        }
        print(json.dumps(payload), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
