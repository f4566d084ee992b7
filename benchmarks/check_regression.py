"""Performance regression gate for the scheduling hot path.

Re-measures the two overhead benchmarks (priority recompute at 1K jobs /
30K servers; one full DollyMP schedule pass on the 30-node testbed)
plus the end-to-end engine throughput gate (the ``gate`` config of
``benchmarks/engine_bench``) and the trace-ingestion gate (the ``gate``
config of ``benchmarks/ingest_bench``), comparing against the recorded
baselines — the overhead means in ``benchmarks/results/<figure>.txt``,
the engine numbers in ``benchmarks/results/BENCH_engine.json`` and the
ingestion numbers in ``benchmarks/results/BENCH_ingest.json``.
Fails (exit 1) if any measurement regressed by more than 2x — generous
enough to ride out machine noise, tight enough to catch an accidentally
de-vectorized hot path, a de-batched event loop or a de-streamed
ingestion pass.

The engine check also asserts the fresh run's ``total_flowtime`` equals
the recorded one bit-for-bit, and the ingest check does the same for
job/task yield: both subsystems' contract is *faster, not different*,
so a drift is a correctness regression even at blazing speed.

A missing or schema-mismatched baseline file is a hard failure naming
the file and the expected keys — never a silent pass and never a bare
``KeyError`` traceback: a gate that cannot find its yardstick must not
report green.

Run it as::

    python -m benchmarks.check_regression                 # every gate
    python -m benchmarks.check_regression --gate ingest   # one subsystem

Regenerate the recorded baselines with::

    PYTHONPATH=src python -m pytest benchmarks/test_overhead.py
    PYTHONPATH=src python -m benchmarks.engine_bench --write-baseline
    PYTHONPATH=src python -m benchmarks.ingest_bench --write-baseline
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time

from repro.cluster.heterogeneity import paper_cluster_30_nodes, trace_sim_cluster
from repro.core.online import DollyMPScheduler
from repro.core.transient import compute_priorities
from repro.core.volume import measure_job
from repro.sim.engine import SimulationEngine
from repro.workload.google_trace import GoogleTraceGenerator, jobs_from_specs

from benchmarks.conftest import RESULTS_DIR, SEED

#: Fail when a fresh mean exceeds recorded mean by more than this factor.
MAX_SLOWDOWN = 2.0

_MEAN_RE = re.compile(r"mean ([0-9.]+) ms")


class BaselineError(RuntimeError):
    """A recorded baseline is missing or does not match the gate schema."""


def _require_keys(record: dict, keys: tuple[str, ...], path, where: str) -> None:
    """Fail loudly (naming file and keys) instead of a KeyError traceback."""
    missing = [k for k in keys if k not in record]
    if missing:
        raise BaselineError(
            f"{path}: {where} is missing expected keys {missing} "
            f"(expected {list(keys)}) — the baseline predates this gate's "
            "schema; regenerate it with the bench's --write-baseline"
        )


def _print_baseline_error(gate: str, err: BaselineError) -> None:
    print(f"{gate}: BASELINE ERROR — {err}")


def recorded_mean_ms(figure: str) -> float | None:
    """Recorded mean from ``benchmarks/results/<figure>.txt`` (ms)."""
    path = RESULTS_DIR / f"{figure}.txt"
    if not path.exists():
        return None
    match = _MEAN_RE.search(path.read_text())
    return float(match.group(1)) if match else None


def measure_priorities_ms(rounds: int = 5) -> float:
    """Same protocol as ``test_priority_recompute_1k_jobs_30k_machines``."""
    total = trace_sim_cluster(30_000, seed=SEED).total_capacity
    jobs = jobs_from_specs(
        GoogleTraceGenerator(seed=SEED).generate(1_000, mean_interarrival=0.0)
    )
    measures = [measure_job(j, total, r=1.5) for j in jobs]
    compute_priorities(measures)  # warmup
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        compute_priorities(measures)
        times.append(time.perf_counter() - t0)
    return 1e3 * sum(times) / rounds


def measure_schedule_pass_ms(rounds: int = 3) -> float:
    """Same protocol as ``test_schedule_pass_on_testbed`` (pedantic
    rounds on one stateful engine: first pass fills the cluster, later
    passes are the steady-state clone-only regime)."""
    jobs = jobs_from_specs(
        GoogleTraceGenerator(seed=SEED, mean_theta=60.0).generate(
            40, mean_interarrival=0.0
        )
    )
    sched = DollyMPScheduler(max_clones=2)
    engine = SimulationEngine(
        paper_cluster_30_nodes(), sched, jobs, seed=SEED, max_time=1e9
    )
    for job in engine.jobs:
        engine.active_jobs[job.job_id] = job
    sched.recompute_priorities(engine.view)
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        sched.schedule(engine.view)
        times.append(time.perf_counter() - t0)
    return 1e3 * sum(times) / rounds


_ENGINE_GATE_KEYS = ("events_per_sec", "total_flowtime", "events", "copies_launched")


def recorded_engine_gate() -> dict:
    """The ``gate``-config record from ``BENCH_engine.json``.

    Raises :class:`BaselineError` (naming the file and the expected
    keys) when the baseline file is missing, holds no gate record, or
    lacks the gate's schema.
    """
    from benchmarks.engine_bench import BASELINE_PATH

    if not BASELINE_PATH.exists():
        raise BaselineError(
            f"{BASELINE_PATH}: baseline file missing (expected keys "
            f"{list(_ENGINE_GATE_KEYS)} in the gate run) — run "
            "`python -m benchmarks.engine_bench --write-baseline` first"
        )
    runs = json.loads(BASELINE_PATH.read_text()).get("measured", {}).get("runs", [])
    for run in runs:
        if run.get("config") == "gate":
            _require_keys(run, _ENGINE_GATE_KEYS, BASELINE_PATH, "gate run")
            return run
    raise BaselineError(
        f"{BASELINE_PATH}: no config='gate' run in "
        "measured.runs — regenerate with "
        "`python -m benchmarks.engine_bench --write-baseline`"
    )


def check_engine_gate() -> bool:
    """End-to-end engine throughput + identity check.  Returns True on
    failure.  Throughput uses the same 2x slack as the overhead checks
    (events/sec is a rate, so the comparison inverts); flowtime must
    match the baseline exactly — the batched engine promises identical
    results, so any drift is a correctness bug, not noise."""
    try:
        recorded = recorded_engine_gate()
    except BaselineError as err:
        _print_baseline_error("engine_gate", err)
        return True
    # A fresh interpreter, not in-process: the overhead checks above have
    # already consumed job ids from the global counter, and the recorded
    # baseline was measured in a clean process.
    from benchmarks.engine_bench import _measure_subprocess

    fresh = _measure_subprocess("gate")
    failed = False
    ratio = recorded["events_per_sec"] / fresh["events_per_sec"]
    verdict = "OK" if ratio <= MAX_SLOWDOWN else "REGRESSION"
    print(
        f"engine_gate: recorded {recorded['events_per_sec']:.1f} ev/s, "
        f"fresh {fresh['events_per_sec']:.1f} ev/s ({ratio:.2f}x slower) — {verdict}"
    )
    if ratio > MAX_SLOWDOWN:
        failed = True
    for key in ("total_flowtime", "events", "copies_launched"):
        if fresh[key] != recorded[key]:
            print(
                f"engine_gate: {key} drifted — recorded {recorded[key]!r}, "
                f"fresh {fresh[key]!r} — IDENTITY REGRESSION"
            )
            failed = True
    return failed


_INGEST_GATE_KEYS = ("rows_per_sec", "peak_rss_mb", "rows", "jobs", "tasks")


def recorded_ingest_gate() -> dict:
    """The ``gate``-config record from ``BENCH_ingest.json``.

    Raises :class:`BaselineError` (naming the file and the expected
    keys) when the baseline file is missing, holds no gate record, or
    lacks the gate's schema.
    """
    from benchmarks.ingest_bench import BASELINE_PATH

    if not BASELINE_PATH.exists():
        raise BaselineError(
            f"{BASELINE_PATH}: baseline file missing (expected keys "
            f"{list(_INGEST_GATE_KEYS)} in the gate run) — run "
            "`python -m benchmarks.ingest_bench --write-baseline` first"
        )
    runs = json.loads(BASELINE_PATH.read_text()).get("measured", {}).get("runs", [])
    for run in runs:
        if run.get("config") == "gate":
            _require_keys(run, _INGEST_GATE_KEYS, BASELINE_PATH, "gate run")
            return run
    raise BaselineError(
        f"{BASELINE_PATH}: no (config='gate') run in measured.runs — "
        "regenerate with `python -m benchmarks.ingest_bench --write-baseline`"
    )


def check_ingest_gate() -> bool:
    """Trace-ingestion throughput + memory + yield check.  Returns True
    on failure.  Rows/sec uses the same 2x slack as every other rate;
    peak RSS gets the same slack (a streaming pipeline that starts
    buffering shows up as a multiple, not a few percent); the job/task
    yield must match the baseline exactly — ingestion of a fixed fixture
    is deterministic by contract."""
    try:
        recorded = recorded_ingest_gate()
    except BaselineError as err:
        _print_baseline_error("ingest_gate", err)
        return True
    from benchmarks.ingest_bench import _measure_subprocess

    fresh = _measure_subprocess("gate")
    failed = False
    ratio = recorded["rows_per_sec"] / fresh["rows_per_sec"]
    verdict = "OK" if ratio <= MAX_SLOWDOWN else "REGRESSION"
    print(
        f"ingest_gate: recorded {recorded['rows_per_sec']:.1f} rows/s, "
        f"fresh {fresh['rows_per_sec']:.1f} rows/s ({ratio:.2f}x slower) — {verdict}"
    )
    if ratio > MAX_SLOWDOWN:
        failed = True
    rss_ratio = fresh["peak_rss_mb"] / recorded["peak_rss_mb"]
    verdict = "OK" if rss_ratio <= MAX_SLOWDOWN else "REGRESSION"
    print(
        f"ingest_gate: recorded {recorded['peak_rss_mb']:.1f} MB peak RSS, "
        f"fresh {fresh['peak_rss_mb']:.1f} MB ({rss_ratio:.2f}x) — {verdict}"
    )
    if rss_ratio > MAX_SLOWDOWN:
        failed = True
    for key in ("rows", "jobs", "tasks"):
        if fresh[key] != recorded[key]:
            print(
                f"ingest_gate: {key} drifted — recorded {recorded[key]!r}, "
                f"fresh {fresh[key]!r} — IDENTITY REGRESSION"
            )
            failed = True
    return failed


def check_overhead() -> bool:
    """The two hot-path microbenchmarks.  Returns True on failure."""
    checks = [
        ("overhead_priorities", measure_priorities_ms),
        ("overhead_schedule_pass", measure_schedule_pass_ms),
    ]
    failed = False
    for figure, measure in checks:
        recorded = recorded_mean_ms(figure)
        if recorded is None:
            print(f"{figure}: no recorded baseline — run the overhead bench first")
            continue
        fresh = measure()
        ratio = fresh / recorded
        verdict = "OK" if ratio <= MAX_SLOWDOWN else "REGRESSION"
        print(
            f"{figure}: recorded {recorded:.2f} ms, fresh {fresh:.2f} ms "
            f"({ratio:.2f}x) — {verdict}"
        )
        if ratio > MAX_SLOWDOWN:
            failed = True
    return failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--gate",
        choices=("all", "overhead", "engine", "ingest"),
        default="all",
        help="which subsystem's regression gate to run (default: all)",
    )
    args = parser.parse_args(argv)

    failed = False
    if args.gate in ("all", "overhead") and check_overhead():
        failed = True
    if args.gate in ("all", "engine") and check_engine_gate():
        failed = True
    if args.gate in ("all", "ingest") and check_ingest_gate():
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
