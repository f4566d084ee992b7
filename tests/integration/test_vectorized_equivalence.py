"""Placement equivalence: production vs the per-server reference loops.

The mirror-backed best-fit scan, task fill and cached clone fill must
be a pure performance change: under a fixed seed, swapping in the
reference placement kernels (``best-fit``, ``task-fill`` and
``clone-fill`` in ``tests/reference.py``, so every placement runs a
per-server loop) must produce the *identical sequence of copy
launches* — same task, same server, same time, same clone flag — and
therefore bit-identical flowtimes and result metrics.  The workload
mixes DAG jobs (PageRank iterations, WordCount map→reduce) with
heavy-tailed straggler distributions so the runs exercise DAG gating,
cloning, first-copy-wins kills and the δ budget.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.heterogeneity import paper_cluster_30_nodes
from repro.core.online import DollyMPScheduler
from repro.core.server_learning import LearningDollyMPScheduler
from repro.schedulers.drf import DRFScheduler
from repro.schedulers.tetris import TetrisScheduler
from repro.sim.runner import run_simulation
from repro.workload.google_trace import GoogleTraceGenerator, jobs_from_specs
from repro.workload.mapreduce import pagerank_job, wordcount_job
from tests.conftest import snapshot_copies

SEED = 7


def mixed_dag_jobs() -> list:
    """PageRank + WordCount DAGs plus trace-style jobs, cv high enough
    that clones launch and first-copy-wins kills occur."""
    jobs = []
    for i in range(6):
        t = 4.0 * i
        if i % 3 == 0:
            jobs.append(pagerank_job(3.0, iterations=2, arrival_time=t, job_id=10 + i, cv=0.9))
        else:
            jobs.append(wordcount_job(2.0 + i, arrival_time=t, job_id=10 + i, cv=0.9))
    gen = GoogleTraceGenerator(seed=SEED, mean_theta=25.0)
    trace_jobs = jobs_from_specs(gen.generate(8, mean_interarrival=3.0))
    # jobs_from_specs draws ids from the process-global job counter, so
    # repeated builds (production run, then reference run) would otherwise
    # get *different* ids — and ids feed tie-breaking via dict order.
    # Pin them so every build is byte-for-byte the same workload.
    for i, job in enumerate(trace_jobs):
        job.job_id = 100 + i
    jobs.extend(trace_jobs)
    return jobs


def launch_log(copies: dict) -> list[tuple]:
    """Every copy ever launched, in a canonical order: by task uid, then
    launch order.  ``copies`` is a ``snapshot_copies`` of a finished run,
    taken as each task finished (the engine folds the copies after)."""
    log = []
    for uid in sorted(copies):
        for copy in copies[uid]:
            log.append(
                (
                    uid,
                    copy.server_id,
                    copy.start_time,
                    copy.duration,
                    copy.is_clone,
                    copy.finished,
                    copy.killed,
                )
            )
    assert log, "no finished task was snapshotted"
    return log


def run(make_sched, schedule_interval=0.0):
    sched = make_sched()
    copies = snapshot_copies(sched)
    result = run_simulation(
        paper_cluster_30_nodes(),
        sched,
        mixed_dag_jobs(),
        seed=SEED,
        schedule_interval=schedule_interval,
        max_time=1e7,
    )
    return result, launch_log(copies)


def run_both(reference_kernels, make_sched, schedule_interval=0.0):
    """(production, reference) runs of the same seeded workload."""
    production = run(make_sched, schedule_interval)
    reference_kernels("best-fit", "task-fill", "clone-fill")
    return production, run(make_sched, schedule_interval)


@pytest.mark.parametrize(
    "make_sched",
    [
        lambda: DollyMPScheduler(max_clones=2),
        lambda: DollyMPScheduler(max_clones=0),
        lambda: TetrisScheduler(),
        lambda: LearningDollyMPScheduler(max_clones=2, bias=1.0),
        # DRF places every task through Cluster.best_fit_server.
        lambda: DRFScheduler(),
    ],
    ids=["dollymp2", "dollymp0", "tetris", "learning-dollymp", "drf"],
)
def test_identical_launches_and_metrics(reference_kernels, make_sched):
    (res_prod, log_prod), (res_ref, log_ref) = run_both(reference_kernels, make_sched)

    # Identical copy-launch sequences (task, server, time, clone flag,
    # outcome) — the strongest equivalence: every placement decision
    # matched, including clone placements and first-copy-wins kills.
    assert log_prod == log_ref

    # Bit-identical flowtimes and aggregate metrics.
    assert np.array_equal(res_prod.flowtimes(), res_ref.flowtimes())
    assert res_prod.total_flowtime == res_ref.total_flowtime
    assert res_prod.makespan == res_ref.makespan
    assert res_prod.clones_launched == res_ref.clones_launched
    assert res_prod.copies_launched == res_ref.copies_launched
    assert res_prod.avg_utilization == res_ref.avg_utilization
    assert res_prod.total_usage == res_ref.total_usage


def test_identical_in_slotted_mode(reference_kernels):
    """The trace-simulator mode (5 s slots) hits different schedule-pass
    batching; the kernels must still agree exactly."""
    (res_prod, log_prod), (res_ref, log_ref) = run_both(
        reference_kernels, lambda: DollyMPScheduler(max_clones=2), schedule_interval=5.0
    )
    assert log_prod == log_ref
    assert np.array_equal(res_prod.flowtimes(), res_ref.flowtimes())
