"""Command line and run orchestration.

Two modes share one measurement path:

* **one run** — ``--workload NAME``: measure that workload in this
  process for ``--seconds`` and print one JSON result line (end-to-end
  metrics, or per-layer metrics with ``--trace 1``);
* **summary** — no ``--workload``: run every workload ``--repeat`` times,
  round-robin, each run in a fresh subprocess of the one-run mode (so
  peak RSS is per run), print every end-to-end metric with its median,
  quartiles and n, and write a stamped record under ``artifacts/bench/``.
  ``--trace`` adds one traced run per workload and the per-layer table.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

from benchmarks.bench.layers import LAYERS, LayerTracer, install_layers, layer_metrics
from benchmarks.bench.summary import quartiles
from benchmarks.bench.workloads import DEFAULT_SEED, ROOT, SETUP_SECONDS, WORKLOADS

__all__ = ["END_TO_END", "PER_LAYER", "measure", "main"]

MAIN = Path(__file__).resolve().parent / "__main__.py"
PINNED = Path(__file__).resolve().parent / "digests.json"
RECORDS = ROOT / "artifacts" / "bench"
RUN_TIMEOUT_S = 600

#: End-to-end metrics, reported by every workload: (name, unit).  Only
#: metrics whose run-to-run spread fits a regression bound of 10% on a
#: shared 2-core machine are gated here; the throughputs swing with the
#: machine's speed and are reported per layer (see README.md).
END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics of the traced run: (name, unit).  A layer a
#: workload never enters reports 0.
PER_LAYER: tuple[tuple[str, str], ...] = (
    # Throughput of the untraced repetitions (engine and serve; ingest).
    ("events_per_s", "1/s"),
    ("tasks_placed_per_s", "1/s"),
    ("rows_per_s", "1/s"),
) + tuple(
    m for layer, _, _ in LAYERS for m in ((f"{layer}.calls", "count"), (f"{layer}.self_s", "s"))
) + (
    ("core.online.schedule.ms_p50", "ms"),
    ("core.online.schedule.ms_max", "ms"),
    ("core.transient.compute_priorities.jobs_mean", "count"),
    ("schedulers.packing.fill_tasks_best_fit.offered", "count"),
    ("schedulers.packing.fill_tasks_best_fit.launched", "count"),
    ("schedulers.packing.fill_tasks_best_fit.yield", "ratio"),
    ("schedulers.packing.fill_clones_best_fit.launched", "count"),
    ("sim.checkpoint.save_checkpoint.bytes_max", "bytes"),
    ("sim.checkpoint.checkpoint_ms", "ms"),
    ("sim.checkpoint.checkpoint_mb", "MB"),
    ("sim.checkpoint.restore_ms", "ms"),
    ("service.decision_ms_p50", "ms"),
    ("service.decision_ms_tail", "ms"),
    ("service.decision_tail_pct", "%"),
    ("service.decision_samples", "count"),
    ("service.jobs_per_s", "1/s"),
    ("service.late_jobs", "count"),
    ("service.generator_late_ms_max", "ms"),
    ("workload.ingest.read_s", "s"),
    ("workload.ingest.normalize_s", "s"),
    ("workload.ingest.jobs", "count"),
    ("workload.ingest.tasks", "count"),
    ("workload.ingest.fixture_s", "s"),
    ("observability.profiler.overhead", "ratio"),
    ("unattributed_s", "s"),
    ("trace_overhead", "ratio"),
)


def pinned_digests() -> dict[str, str]:
    return json.loads(PINNED.read_text())


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def _probe_setups(workload, inputs) -> list[float]:
    """Time set-ups for ``SETUP_SECONDS`` of wall time, and at least two.
    Each starts from a collected heap, as a fresh program's would: garbage
    left by the previous one otherwise set off collections inside it (the
    serve set-up then read 60-140 ms instead of 60 ms)."""
    setups: list[float] = []
    start = time.perf_counter()
    while len(setups) < 2 or time.perf_counter() - start < SETUP_SECONDS:
        gc.collect()
        setups.append(workload.probe_setup(inputs))
    return setups


def measure(workload, seed: int, seconds: float, *, trace: bool = False, pinned: str | None = None) -> dict:
    """Measure one workload in this process.

    Returns ``{"metrics", "untraced", "attempted", "failed", "errors",
    "digest", "reps"}``; ``metrics`` holds the end-to-end values, or with
    ``trace`` the per-layer ones, and ``untraced`` the per-layer values
    the untraced repetitions measured (medians over repetitions).
    Repetitions of the same inputs run while the next one is expected
    to finish inside ``seconds``.
    """
    inputs = workload.inputs(seed)
    setups = _probe_setups(workload, inputs)
    reps = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        # Each repetition starts from a collected heap, so none pays for
        # the previous one's garbage and peak RSS does not depend on how
        # many repetitions fit.
        gc.collect()
        reps.append(workload.rep(inputs))
        now = time.perf_counter()
        if (now - start) + (now - t0) > seconds:
            break
    setups += _probe_setups(workload, inputs)
    workload.check(inputs, reps[0])
    errors = [e for r in reps for e in r.errors]
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    digest = reps[0].digest

    def check(ok: bool, message: str) -> None:
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            errors.append(message)

    check(all(r.digest == digest for r in reps), "repetitions of the same inputs disagree")
    if pinned is not None:
        check(digest == pinned, f"digest {digest} differs from the pinned {pinned}")

    untraced = {
        key: statistics.median(r.layer[key] for r in reps if key in r.layer)
        for key in sorted({k for r in reps for k in r.layer})
    }
    if not trace:
        metrics = {
            "setup_s": statistics.median(setups + [r.setup_s for r in reps]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        untraced_wall = statistics.median(r.wall_s for r in reps)
        with LayerTracer() as tracer:
            install_layers(tracer)
            t0 = time.perf_counter()
            traced = workload.rep(inputs)
            traced_total = time.perf_counter() - t0
        check(traced.digest == digest, "traced run diverged from the untraced runs")
        metrics = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
        metrics.update(layer_metrics(tracer))
        metrics.update(untraced)
        metrics["unattributed_s"] = traced_total - tracer.self_seconds()
        metrics["trace_overhead"] = traced.wall_s / untraced_wall - 1.0
        values, problems = workload.traced_extras(inputs, untraced_wall)
        metrics.update(values)
        check(not problems, "; ".join(problems))
    return {
        "metrics": metrics,
        "untraced": untraced,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "digest": digest,
        "reps": len(reps),
    }


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    pinned = pinned_digests().get(args.workload) if args.seed == DEFAULT_SEED else None
    out = measure(workload, args.seed, args.seconds, trace=bool(args.trace), pinned=pinned)
    for error in out["errors"]:
        print(f"{args.workload}: {error}", file=sys.stderr)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    print(json.dumps({"detail": {k: out[k] for k in ("digest", "reps", "errors", "untraced")}}))
    print(
        json.dumps(
            {
                "correct": out["failed"] == 0,
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": {
                    name: {"value": out["metrics"][name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if out["failed"] == 0 else 1


# ----------------------------------------------------------------------
# Summary over repeated runs
# ----------------------------------------------------------------------
def _spawn(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run in a fresh interpreter; a crash is reported as a failed run."""
    cmd = [
        sys.executable, str(MAIN), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return _crashed(f"{name}: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    try:
        detail = json.loads(lines[-2])["detail"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, json.JSONDecodeError):
        return _crashed(f"{name}: run exited {proc.returncode} without a result")
    return {"crashed": False, **detail, **result}


def _crashed(error: str) -> dict:
    return {"crashed": True, "attempted": 1, "failed": 1, "errors": [error]}


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def summarize(args) -> int:
    names = list(WORKLOADS)
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for _ in range(args.repeat):
        for name in names:
            print(f"run {len(runs[name]) + 1}/{args.repeat}: {name}", file=sys.stderr)
            runs[name].append(_spawn(name, args.seed, args.seconds, False))
    traced = {}
    if args.trace:
        for name in names:
            print(f"traced run: {name}", file=sys.stderr)
            traced[name] = _spawn(name, args.seed, args.seconds, True)

    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    record = {
        "commit": commit or "unknown",
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "repeat": args.repeat,
        "seconds": args.seconds,
        "workloads": {},
    }
    failures = 0
    for name in names:
        entry = _summarize_workload(runs[name], traced.get(name))
        record["workloads"][name] = entry
        failures += entry["failed"]
        _print_workload(name, entry)
    RECORDS.mkdir(parents=True, exist_ok=True)
    path = RECORDS / f"BENCH-{record['commit'][:12]}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"record -> {path.relative_to(ROOT)}")
    return 1 if failures else 0


def _summarize_workload(runs: list[dict], traced: dict | None) -> dict:
    done = [r for r in runs if not r["crashed"]]
    everything = runs + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    units = dict(PER_LAYER)

    def stats(unit: str, values: list[float]) -> dict:
        q1, median, q3 = quartiles(values)
        return {"unit": unit, "median": median, "q1": q1, "q3": q3, "n": len(values)}

    metrics = {
        name: stats(unit, [r["metrics"][name]["value"] for r in done])
        for name, unit in END_TO_END
        if done
    }
    # Untraced per-layer values (throughputs, serve latency) over the same
    # runs: ungated, but what a comparison of two commits looks at.
    keys = sorted({k for r in done for k in r["untraced"]})
    untraced = {
        key: stats(units[key], [r["untraced"][key] for r in done if key in r["untraced"]])
        for key in keys
    }
    entry = {
        "metrics": metrics,
        "untraced": untraced,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "digests": sorted({r["digest"] for r in done}),
        "errors": [e for r in everything for e in r["errors"]],
    }
    if traced and not traced["crashed"]:
        entry["layers"] = {k: v["value"] for k, v in traced["metrics"].items()}
    return entry


def _print_workload(name: str, entry: dict) -> None:
    print(f"\n== {name}: failed_frac {entry['failed_frac']:.4g} "
          f"({entry['failed']}/{entry['attempted']}), digest {','.join(entry['digests'])[:16]}")
    for title, table in (("metric", entry["metrics"]), ("untraced layer metric", entry["untraced"])):
        print(f"  {title:<36s} {'unit':<6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'n':>3s}")
        for metric, s in table.items():
            print(f"  {metric:<36s} {s['unit']:<6s} {s['median']:>12.5g} "
                  f"{s['q1']:>12.5g} {s['q3']:>12.5g} {s['n']:>3d}")
    for error in entry["errors"]:
        print(f"  FAILED: {error}")
    layers = entry.get("layers")
    if layers:
        units = dict(PER_LAYER)
        print(f"  {'layer metric':<52s} {'unit':<6s} {'value':>12s}")
        for metric, value in layers.items():
            if value:
                print(f"  {metric:<52s} {units[metric]:<6s} {value:>12.5g}")


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.bench",
        description="DollyMP reproduction benchmark: four workloads, end-to-end "
        "metrics, and a traced per-layer breakdown.",
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="measure one run of this workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="input seed (default 2022)")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time per run (default 20)")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0, nargs="?", const=1,
        help="report per-layer metrics from a traced run (summary: add the per-layer table)",
    )
    parser.add_argument("--repeat", type=int, default=3, help="runs per workload in the summary (default 3)")
    args = parser.parse_args(argv)
    if args.workload:
        return run_one(args)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    return summarize(args)
