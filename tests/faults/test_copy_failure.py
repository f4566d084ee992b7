"""Per-copy failure semantics: kill-one-copy, clone masking, requeue,
stale-event tolerance (DESIGN.md §5.5)."""

import pytest

from repro.cluster.heterogeneity import homogeneous_cluster
from repro.faults import FaultProfile
from repro.resources import Resources
from repro.schedulers.base import Scheduler
from repro.schedulers.fifo import FIFOScheduler
from repro.sim.engine import SimulationEngine
from repro.sim.events import EventKind
from repro.workload.task import TaskState
from tests.conftest import make_single_task_job


class _CopyFailDriver(Scheduler):
    """Launches a primary (plus optional clone), then arms a COPY_FAIL
    event against the primary at a chosen offset — deterministic fault
    timing without an injector."""

    name = "copy-fail-driver"

    def __init__(self, *, clone: bool, fail_after: float) -> None:
        self.clone = clone
        self.fail_after = fail_after
        self.engine: SimulationEngine | None = None
        self.armed = False

    def schedule(self, view):
        if not self.armed:
            for j in view.active_jobs:
                for t in j.ready_tasks():
                    primary = view.launch(t, view.cluster[0])
                    if self.clone:
                        view.launch(t, view.cluster[1], clone=True)
                    assert self.engine is not None
                    self.engine.events.push(
                        view.time + self.fail_after, EventKind.COPY_FAIL, primary
                    )
            self.armed = True
            return
        for j in view.active_jobs:
            for t in j.ready_tasks():
                view.launch(t, view.cluster[1])


def _run_driver(*, clone: bool, fail_after: float):
    cluster = homogeneous_cluster(2, Resources.of(4, 4), slowdown=1.0)
    job = make_single_task_job(theta=10.0)
    # Held here: the task's ledger outlives the finished job's graph.
    task = job.phases[0].task(0)
    driver = _CopyFailDriver(clone=clone, fail_after=fail_after)
    engine = SimulationEngine(cluster, driver, [job], sanitize=True)
    driver.engine = engine
    result = engine.run()
    return engine, task, result


class TestCopyFail:
    def test_clone_masks_copy_failure(self):
        engine, task, result = _run_driver(clone=True, fail_after=3.0)
        assert task.state is TaskState.FINISHED
        assert engine.copies_lost == 1
        assert engine.recoveries_masked_by_clone == 1
        assert engine.tasks_requeued == 0
        assert task.fault_losses == 1
        # The clone carried the task to its original finish time.
        assert result.records[0].flowtime == pytest.approx(10.0)

    def test_sole_copy_failure_requeues(self):
        engine, task, result = _run_driver(clone=False, fail_after=3.0)
        assert task.state is TaskState.FINISHED
        assert engine.tasks_requeued == 1
        assert engine.recoveries_masked_by_clone == 0
        # Relaunched at t=3 on the second server: finishes at 13.
        assert result.records[0].flowtime == pytest.approx(13.0)
        # The lost primary and its relaunch, neither a clone.
        assert len(task.ledger.durations) == 2
        assert task.ledger.clones == 0

    def test_stale_copy_fail_ignored(self):
        """A COPY_FAIL landing after the copy finished is a no-op."""
        engine, _task, result = _run_driver(clone=False, fail_after=15.0)
        assert engine.copies_lost == 0
        assert engine.tasks_requeued == 0
        assert result.records[0].flowtime == pytest.approx(10.0)

    def test_server_stays_up_and_releases(self):
        engine, job, _ = _run_driver(clone=False, fail_after=3.0)
        assert all(s.up for s in engine.cluster)
        assert engine.cluster.total_allocated().is_zero()


class TestFlakyEndToEnd:
    def test_flaky_run_completes_under_sanitizer(self):
        """A high per-copy hazard: copies die, tasks requeue, and every
        job still completes with the sanitizer validating each event."""
        cluster = homogeneous_cluster(4, Resources.of(4, 8), slowdown=1.0)
        jobs = [
            make_single_task_job(theta=15.0, arrival_time=5.0 * i, job_id=i)
            for i in range(6)
        ]
        engine = SimulationEngine(
            cluster,
            FIFOScheduler(),
            jobs,
            seed=11,
            sanitize=True,
            fault_profile=FaultProfile(copy_fail_rate=1.0 / 20.0),
        )
        result = engine.run()
        assert len(result.records) == 6
        assert result.copies_lost > 0
        assert result.copies_lost == result.faults_injected
        assert engine.cluster.total_allocated().is_zero()

    def test_flaky_runs_deterministic(self):
        """Two same-seed flaky runs realize the identical failure
        sequence and end bit-identically."""

        def run_once():
            cluster = homogeneous_cluster(4, Resources.of(4, 8), slowdown=1.0)
            jobs = [
                make_single_task_job(theta=15.0, arrival_time=5.0 * i, job_id=i)
                for i in range(6)
            ]
            engine = SimulationEngine(
                cluster,
                FIFOScheduler(),
                jobs,
                seed=11,
                fault_profile=FaultProfile(copy_fail_rate=1.0 / 20.0),
            )
            return engine.run()

        a, b = run_once(), run_once()
        assert a.records == b.records
        assert a.copies_lost == b.copies_lost
