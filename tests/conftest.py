"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.heterogeneity import homogeneous_cluster, single_server_cluster
from repro.resources import Resources
from repro.workload.distributions import Deterministic, ParetoType1
from repro.workload.job import Job
from repro.workload.phase import Phase
from tests.reference import reference_kernels  # noqa: F401  (shared fixture)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture
def small_cluster() -> Cluster:
    """4 × (8 cores, 16 GB) homogeneous cluster."""
    return homogeneous_cluster(4, Resources.of(8, 16))


@pytest.fixture
def unit_server() -> Cluster:
    """One server of normalized capacity 1 (the transient setting)."""
    return single_server_cluster(Resources.of(1.0, 1.0))


def make_single_task_job(
    *,
    cpu: float = 1.0,
    mem: float = 2.0,
    theta: float = 10.0,
    sigma: float = 0.0,
    arrival_time: float = 0.0,
    job_id: int | None = None,
    name: str = "single",
) -> Job:
    """One-phase one-task job, deterministic unless sigma > 0."""
    dist = ParetoType1.from_moments(theta, sigma) if sigma > 0 else Deterministic(theta)
    phase = Phase(0, 1, Resources.of(cpu, mem), dist)
    return Job([phase], arrival_time=arrival_time, job_id=job_id, name=name)


def make_chain_job(
    num_phases: int,
    tasks_per_phase: int,
    *,
    cpu: float = 1.0,
    mem: float = 2.0,
    theta: float = 10.0,
    sigma: float = 0.0,
    arrival_time: float = 0.0,
    job_id: int | None = None,
    name: str = "chain",
) -> Job:
    """A sequential chain of identical phases."""
    phases = []
    for k in range(num_phases):
        dist = (
            ParetoType1.from_moments(theta, sigma) if sigma > 0 else Deterministic(theta)
        )
        phases.append(
            Phase(
                k,
                tasks_per_phase,
                Resources.of(cpu, mem),
                dist,
                parents=(k - 1,) if k > 0 else (),
            )
        )
    return Job(phases, arrival_time=arrival_time, job_id=job_id, name=name)


def make_diamond_job(
    *,
    theta: float = 5.0,
    arrival_time: float = 0.0,
    job_id: int | None = None,
) -> Job:
    """Diamond DAG: 0 → {1, 2} → 3 (deterministic tasks)."""
    mk = lambda: Deterministic(theta)  # noqa: E731
    phases = [
        Phase(0, 2, Resources.of(1, 1), mk()),
        Phase(1, 2, Resources.of(1, 1), mk(), parents=(0,)),
        Phase(2, 2, Resources.of(1, 1), mk(), parents=(0,)),
        Phase(3, 1, Resources.of(1, 1), mk(), parents=(1, 2)),
    ]
    return Job(phases, arrival_time=arrival_time, job_id=job_id, name="diamond")


def all_tasks(phase: Phase) -> list:
    """Every task of ``phase``, each built by this call: for tests that
    set task state by hand, launch every task or hold tasks across a
    run.  The program builds a task only when it launches."""
    return [phase.task(i) for i in range(phase.num_tasks)]


def after_finish_hooks(scheduler, *, task=None, job=None):
    """Call ``task(t)`` after ``scheduler``'s own ``on_task_finish`` and
    ``job(j)`` after its ``on_job_finish``.

    These are the last moments a finished task still holds its copies
    (the engine folds them into the task's ledger next) and a finished
    job its phase/task graph (the engine releases it next), so checks
    of finished work run here.  Returns the scheduler.
    """
    if task is not None:
        inner_task = scheduler.on_task_finish

        def on_task_finish(t, view):
            inner_task(t, view)
            task(t)

        scheduler.on_task_finish = on_task_finish
    if job is not None:
        inner_job = scheduler.on_job_finish

        def on_job_finish(j, view):
            inner_job(j, view)
            job(j)

        scheduler.on_job_finish = on_job_finish
    return scheduler


def snapshot_copies(scheduler) -> dict:
    """Every finished task's copies in launch order, keyed by task uid,
    taken as each task finishes (before the engine folds them)."""
    copies: dict = {}
    after_finish_hooks(scheduler, task=lambda t: copies.__setitem__(t.uid, list(t.copies)))
    return copies
