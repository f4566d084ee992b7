"""Engine-throughput smoke (CI gate, DESIGN.md §5.6).

Drives a short chaos-profile DollyMP² simulation — the paper's 30-node
testbed under the fault-smoke churn profile, 5-second slots — through
the batched event loop with the sanitizer validating every event.  The
gate is deliberately non-vacuous (every job must finish and the chaos
profile must fire) and enforces a conservative events/sec floor, so an
accidental return to quadratic drains fails CI even before the nightly
trajectory notices.

Byte-identity of this run against the reference kernels (eager
priorities, per-level Algorithm 1, uncached clone fill, per-server
placement loops) is a tier-1 test that calls :func:`_run_once`
(``tests/integration/test_batched_equivalence.py``).

Run:  PYTHONPATH=src python -m repro.devtools.engine_smoke
"""

from __future__ import annotations

import sys
import time

from repro.cluster.heterogeneity import paper_cluster_30_nodes
from repro.core.online import DollyMPScheduler
from repro.devtools.fault_smoke import SMOKE_PROFILE
from repro.sim.engine import SimulationEngine
from repro.workload.mapreduce import pagerank_job, wordcount_job

__all__ = ["main", "MIN_EVENTS_PER_SEC"]

#: Floor for the *current* run, events per wall-clock second.  The
#: 30-node chaos run clears 2000+ ev/s on a developer machine even with
#: the sanitizer on; 300 leaves an order of magnitude of headroom for
#: slow CI runners while still catching a de-batched event loop (which
#: lands well below 100 at 30K servers and shows up here as a constant-
#: factor collapse too).
MIN_EVENTS_PER_SEC = 300.0


def _make_jobs():
    jobs = []
    for i in range(10):
        if i % 2 == 0:
            jobs.append(wordcount_job(4.0, arrival_time=40.0 * i, job_id=i))
        else:
            jobs.append(pagerank_job(1.0, arrival_time=40.0 * i, job_id=i))
    return jobs


def _run_once(scheduler=DollyMPScheduler):
    """One recorded chaos run of ``scheduler`` (a DollyMP class);
    returns (result, trace, events, wall_s)."""
    engine = SimulationEngine(
        paper_cluster_30_nodes(),
        scheduler(max_clones=2),
        _make_jobs(),
        seed=7,
        schedule_interval=5.0,
        max_time=1e9,
        sanitize=True,
        record_trace=True,
        fault_profile=SMOKE_PROFILE,
    )
    t0 = time.perf_counter()
    result = engine.run()
    wall = time.perf_counter() - t0
    return result, engine.trace, engine.events_processed, wall


def main() -> int:
    result, trace, events, wall = _run_once()

    # The gate must not be vacuous: the chaos profile has to fire and
    # the workload has to finish despite it.
    if len(result.records) != len(_make_jobs()):
        print(
            f"engine-smoke: expected {len(_make_jobs())} finished jobs, "
            f"got {len(result.records)}",
            file=sys.stderr,
        )
        return 1
    if result.faults_injected == 0:
        print(
            "engine-smoke: chaos profile injected no faults — the "
            "batched-drain fault ordering goes unexercised",
            file=sys.stderr,
        )
        return 1

    events_per_sec = events / wall if wall > 0 else float("inf")
    if events_per_sec < MIN_EVENTS_PER_SEC:
        print(
            f"engine-smoke: {events_per_sec:.0f} ev/s under the "
            f"{MIN_EVENTS_PER_SEC:.0f} ev/s floor — the event loop has "
            "regressed far beyond machine noise",
            file=sys.stderr,
        )
        return 1

    print(
        f"engine-smoke: {events} events in {wall:.2f}s "
        f"({events_per_sec:.0f} ev/s, floor {MIN_EVENTS_PER_SEC:.0f}); "
        f"{result.faults_injected} faults injected; {len(trace)} decisions"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
