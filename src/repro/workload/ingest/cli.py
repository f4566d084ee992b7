"""``python -m repro ingest`` — convert / validate / stats / fixture.

Every subcommand streams: it holds the normalizer's working set (open
jobs, the reorder window, specs waiting for an earlier job to close,
one read chunk, and the keys of up to 100K closed jobs at about 80
bytes a key; see :mod:`.normalize`), never the whole file.  The
``ingest-1m`` benchmark workload measures its peak.

Examples::

    # Raw Google 2011 task_events → repro-trace-v1 JSONL (serve input)
    python -m repro ingest convert task_events.csv.gz \\
        --schema google2011 --jsonl --out jobs.jsonl

    # Busiest 2 hours only, concentrated jobs (>= 20 tasks)
    python -m repro ingest convert batch_task.csv --schema alibaba2018 \\
        --peak-window 7200 --min-tasks 20 --jsonl --out peak.jsonl

    # Distribution sketch + peak RSS of a month-scale file
    python -m repro ingest stats task_events.csv.gz --schema google2011

    # Real-vs-synthetic validation report (canonical JSON)
    python -m repro ingest validate task_events.csv.gz \\
        --schema google2011 --out report.json

    # Materialize the deterministic fixture corpus (CI cache target)
    python -m repro ingest fixture --out-dir .cache/trace-fixtures \\
        --rows 200000 --seed 0
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

from repro.workload.google_trace import save_trace, spec_to_dict
from repro.workload.ingest.filters import find_peak_window
from repro.workload.ingest.fixtures import (
    FIXTURE_SCHEMAS,
    generator_fingerprint,
    materialize,
)
from repro.workload.ingest.normalize import normalize_stream
from repro.workload.ingest.readers import READER_SCHEMAS, open_reader
from repro.workload.ingest.validate import (
    StreamStats,
    dumps_canonical,
    synthetic_stats,
    validation_report,
)

__all__ = ["add_ingest_parser"]


def _peak_rss_mb() -> float:
    """Process-lifetime peak RSS in MB (ru_maxrss is KB on Linux)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        rss //= 1024
    return rss / 1024.0


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("trace", help="raw trace file (csv / csv.gz / jsonl)")
    p.add_argument(
        "--schema", required=True, choices=sorted(READER_SCHEMAS),
        help="trace schema of the input file",
    )
    p.add_argument(
        "--peak-window", type=float, metavar="SECONDS",
        help="keep only the busiest window of this many seconds "
             "(adds one extra streaming pass to locate it)",
    )
    p.add_argument(
        "--min-tasks", type=int,
        help="concentrated-task filter: drop jobs with fewer tasks",
    )
    p.add_argument(
        "--max-tasks", type=int,
        help="drop jobs with more tasks than this",
    )
    p.add_argument("--max-jobs", type=int, help="stop after this many jobs")
    p.add_argument(
        "--linger", type=float, default=3600.0,
        help="trace-time seconds of inactivity before a job finalizes",
    )


def _spec_stream(args):
    window = None
    if args.peak_window is not None:
        window = find_peak_window(
            open_reader(args.trace, args.schema), args.peak_window
        )
        print(
            f"peak window: [{window[0]:g}, {window[1]:g})s raw trace time",
            file=sys.stderr,
        )
    return normalize_stream(
        open_reader(args.trace, args.schema),
        window=window,
        min_tasks=args.min_tasks,
        max_tasks=args.max_tasks,
        max_jobs=args.max_jobs,
        linger=args.linger,
    )


def cmd_convert(args) -> int:
    specs = _spec_stream(args)
    if args.jsonl:
        out = sys.stdout if args.out == "-" else open(args.out, "w")
        jobs = tasks = 0
        try:
            for spec in specs:
                out.write(json.dumps(spec_to_dict(spec), sort_keys=True) + "\n")
                jobs += 1
                tasks += spec.num_tasks()
        finally:
            if out is not sys.stdout:
                out.close()
    else:
        if args.out == "-":
            raise SystemExit("ingest convert: --out - requires --jsonl")
        # repro-trace-v1 JSON is one document; this path buffers the
        # spec list and is meant for excerpt-sized conversions.
        materialized = list(specs)
        save_trace(materialized, args.out)
        jobs = len(materialized)
        tasks = sum(s.num_tasks() for s in materialized)
    print(
        f"converted {jobs} jobs / {tasks} tasks from {args.schema} -> {args.out}",
        file=sys.stderr if args.out == "-" else sys.stdout,
    )
    return 0


def cmd_stats(args) -> int:
    stats = StreamStats().extend(_spec_stream(args))
    payload = {
        "format": "repro-ingest-stats/v1",
        "schema": args.schema,
        "trace": str(args.trace),
        "stats": stats.to_dict(),
        # Wall-side measurement, reported for the bounded-memory claim;
        # excluded from canonical comparisons by being top-level here.
        "peak_rss_mb": round(_peak_rss_mb(), 1),
    }
    text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"stats -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_validate(args) -> int:
    real = StreamStats().extend(_spec_stream(args))
    if real.jobs == 0:
        raise SystemExit(f"ingest validate: no jobs survived ingestion of {args.trace}")
    synth = synthetic_stats(
        jobs=real.jobs,
        mean_interarrival=real.mean_interarrival,
        seed=args.seed,
    )
    text = dumps_canonical(validation_report(real, synth))
    if args.out:
        Path(args.out).write_text(text)
        print(f"validation report -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_fixture(args) -> int:
    schemas = (
        FIXTURE_SCHEMAS if args.schema == "all" else (args.schema,)
    )
    paths = materialize(
        args.out_dir, rows=args.rows, seed=args.seed, schemas=schemas
    )
    for schema in schemas:
        path = paths[schema]
        print(f"{schema}: {path} ({path.stat().st_size} bytes)")
    print(f"generator fingerprint: {generator_fingerprint()}")
    return 0


def add_ingest_parser(sub, *, name: str = "ingest") -> None:
    """Attach the ingest subcommand tree to the main CLI's subparsers."""
    p = sub.add_parser(
        name, help="stream real cluster traces into the simulator's job schema"
    )
    isub = p.add_subparsers(dest="ingest_command", required=True)

    cp = isub.add_parser(
        "convert", help="raw trace → repro-trace-v1 JSON/JSONL job specs"
    )
    _add_pipeline_flags(cp)
    cp.add_argument("--out", required=True, help="output path (- for stdout, JSONL only)")
    cp.add_argument(
        "--jsonl", action="store_true",
        help="stream one job-spec per line (bounded memory; serve input)",
    )
    cp.set_defaults(func=cmd_convert)

    sp = isub.add_parser(
        "stats", help="streaming distribution sketch + peak RSS of a trace"
    )
    _add_pipeline_flags(sp)
    sp.add_argument("--out", help="write the JSON report here instead of stdout")
    sp.set_defaults(func=cmd_stats)

    vp = isub.add_parser(
        "validate",
        help="real-vs-synthetic validation report (canonical JSON)",
    )
    _add_pipeline_flags(vp)
    vp.add_argument("--out", help="write the report here instead of stdout")
    vp.add_argument(
        "--seed", type=int, default=0, help="seed of the synthetic baseline"
    )
    vp.set_defaults(func=cmd_validate)

    fp = isub.add_parser(
        "fixture", help="materialize deterministic raw-trace fixtures"
    )
    fp.add_argument(
        "--schema", default="all", choices=("all", *FIXTURE_SCHEMAS),
    )
    fp.add_argument("--out-dir", required=True)
    fp.add_argument("--rows", type=int, default=200)
    fp.add_argument("--seed", type=int, default=0)
    fp.set_defaults(func=cmd_fixture)
