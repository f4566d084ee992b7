"""End-to-end engine throughput benchmark (events/sec, placements/sec).

Runs the full simulation loop — event queue, DollyMP priorities, clone
fill, action choke point, accounting — on trace-simulator clusters at
30K and 100K servers and reports throughput plus peak RSS.

Usage::

    python -m benchmarks.engine_bench                     # all configs, fresh
    python -m benchmarks.engine_bench --config ref30k     # one config, in-process
    python -m benchmarks.engine_bench --append <path>     # trajectory record
    python -m benchmarks.engine_bench --write-baseline    # refresh BENCH_engine.json

Each config's measurement runs in a subprocess so peak-RSS numbers
(``ru_maxrss`` is process-lifetime-monotonic) aren't polluted across
configs.  The pass/fail enforcement lives in
:mod:`benchmarks.check_regression`; this module only measures.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

__all__ = ["CONFIGS", "measure_config", "main"]

RESULTS = Path(__file__).parent / "results"
BASELINE_PATH = RESULTS / "BENCH_engine.json"

#: Reference runs.  ``ref30k`` is the 30K-server run the ≥5× acceptance
#: criterion is judged on; ``gate`` is the smaller run the per-commit
#: regression gate re-measures; ``ref100k`` probes memory at 100K servers.
#:
#: The workload is the dense small-job regime of the Google traces ("95%
#: of jobs are small", Sec. 1): jobs of 1–10 tasks arriving four per
#: second, with ~10-minute tasks so thousands of jobs are active at
#: once.  That is the scaling regime ROADMAP item 2 targets — the
#: priority recompute, the knapsack oracle and the event loop all carry
#: a multi-thousand-job roster, as real-trace ingestion will.
CONFIGS: dict[str, dict] = {
    "ref30k": dict(num_servers=30_000, num_jobs=4_000, mean_interarrival=0.25),
    "ref100k": dict(num_servers=100_000, num_jobs=1_500, mean_interarrival=0.25),
    "gate": dict(num_servers=30_000, num_jobs=800, mean_interarrival=0.25),
}

MEAN_THETA = 600.0  # ~10-minute tasks keep the roster thousands deep

SEED = 2022
SCHEDULE_INTERVAL = 5.0  # the 5-second slots of Sec. 6.3


def _git_head() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def measure_config(name: str) -> dict:
    """Run one reference simulation in-process and report throughput.

    Imports live here (not module top): only the measuring child
    process of the subprocess protocol needs the engine.
    """
    from repro.cluster.heterogeneity import trace_sim_cluster
    from repro.core.online import DollyMPScheduler
    from repro.sim.engine import SimulationEngine
    from repro.workload.google_trace import GoogleTraceGenerator, jobs_from_specs

    class SmallJobTrace(GoogleTraceGenerator):
        """The small-job regime: every job draws from the trace
        analysis's dominant 1–10 task bucket."""

        def sample_job_size(self) -> int:
            return int(self.rng.integers(1, 11))

    cfg = CONFIGS[name]
    cluster = trace_sim_cluster(cfg["num_servers"], seed=SEED)
    jobs = jobs_from_specs(
        SmallJobTrace(seed=SEED, mean_theta=MEAN_THETA).generate(
            cfg["num_jobs"], mean_interarrival=cfg["mean_interarrival"]
        )
    )
    engine = SimulationEngine(
        cluster,
        DollyMPScheduler(max_clones=2),
        jobs,
        seed=SEED,
        schedule_interval=SCHEDULE_INTERVAL,
        max_time=1e9,
    )
    t0 = time.perf_counter()
    result = engine.run()
    wall = time.perf_counter() - t0
    # Engines without the counter (pre-batching) are reconstructed from
    # the result: every launched copy pops one COPY_FINISH (stale ones
    # included), every job one JOB_ARRIVAL, every slotted pass one tick.
    events = getattr(engine, "events_processed", None)
    if events is None:
        events = (
            result.copies_launched
            + len(result.records)
            + len(result.schedule_pass_seconds)
        )
    return {
        "config": name,
        "num_servers": cfg["num_servers"],
        "num_jobs": cfg["num_jobs"],
        "wall_s": round(wall, 3),
        "events": int(events),
        "events_per_sec": round(events / wall, 1),
        "copies_launched": result.copies_launched,
        "tasks_placed_per_sec": round(result.copies_launched / wall, 1),
        "simulated_time": round(result.simulated_time, 3),
        "total_flowtime": result.total_flowtime,
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def _measure_subprocess(name: str) -> dict:
    """Measure one config in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-m", "benchmarks.engine_bench", "--config", name, "--json"],
        capture_output=True,
        text=True,
        cwd=Path(__file__).resolve().parent.parent,
    )
    if out.returncode != 0:
        raise RuntimeError(f"engine_bench subprocess ({name}) failed:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def measure(configs: tuple[str, ...] = ("ref30k", "ref100k")) -> dict:
    """Full measurement: every config, one subprocess each."""
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "commit": _git_head(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "runs": [_measure_subprocess(name) for name in configs],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", choices=sorted(CONFIGS), help="run one config in-process")
    parser.add_argument("--json", action="store_true", help="print the record as JSON only")
    parser.add_argument(
        "--append", metavar="PATH", help="append a trajectory record to this JSONL file"
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help=f"write the measurement to {BASELINE_PATH.name}",
    )
    args = parser.parse_args(argv)

    if args.config:
        record = measure_config(args.config)
        print(json.dumps(record, sort_keys=True))
        return 0

    if args.append:
        # Nightly trajectory: one cheap record (gate config).
        run = _measure_subprocess("gate")
        record = {
            "bench": "engine",
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "commit": _git_head(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "events_per_sec": run["events_per_sec"],
            "tasks_placed_per_sec": run["tasks_placed_per_sec"],
            "wall_s": run["wall_s"],
            "peak_rss_mb": run["peak_rss_mb"],
        }
        from benchmarks.trajectory import append_jsonl

        line = append_jsonl(args.append, record)
        print(f"appended to {args.append}: {line}")
        return 0

    record = measure()
    record["runs"].append(_measure_subprocess("gate"))
    if args.write_baseline:
        baseline = {}
        if BASELINE_PATH.exists():
            baseline = json.loads(BASELINE_PATH.read_text())
        baseline["measured"] = record
        BASELINE_PATH.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
        print(f"wrote {BASELINE_PATH}")
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
