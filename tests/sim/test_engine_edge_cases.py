"""Edge-case tests for the simulation engine."""

import pytest

from repro.cluster.heterogeneity import homogeneous_cluster
from repro.resources import Resources
from repro.schedulers.base import Scheduler
from repro.schedulers.fifo import FIFOScheduler
from repro.sim.engine import SimulationEngine
from repro.workload.distributions import Deterministic
from repro.workload.job import Job
from repro.workload.phase import Phase
from repro.workload.task import TaskState
from tests.conftest import (
    after_finish_hooks,
    make_chain_job,
    make_single_task_job,
    snapshot_copies,
)


class CloneEverywhere(Scheduler):
    """Launch the task plus a clone on every other server immediately."""

    name = "clone-everywhere"

    def schedule(self, view):
        for job in view.active_jobs:
            for task in job.ready_tasks(view.time):
                for server in view.cluster:
                    if server.can_fit(task.demand):
                        view.launch(task, server)


class TestSimultaneousFinishes:
    def test_identical_copies_tie_cleanly(self):
        """Two deterministic copies finish at the same instant: exactly
        one wins, the other is killed at zero-ish residual duration."""
        cluster = homogeneous_cluster(2, Resources.of(1, 1), slowdown=1.0)
        job = make_single_task_job(cpu=1.0, mem=1.0, theta=10.0)
        task = job.phases[0].task(0)
        sched = CloneEverywhere()
        copies = snapshot_copies(sched)
        engine = SimulationEngine(cluster, sched, [job], max_time=1e4)
        engine.run()
        assert task.state is TaskState.FINISHED
        assert sum(1 for c in copies[task.uid] if c.finished) == 1
        assert sum(1 for c in copies[task.uid] if c.killed) == 1
        assert job.finish_time == pytest.approx(10.0)

    def test_many_tasks_finish_same_instant(self):
        """A whole phase of deterministic tasks completes in one event
        batch; the dependent phase starts exactly then."""
        cluster = homogeneous_cluster(2, Resources.of(8, 8))
        job = make_chain_job(2, 8, theta=5.0)
        seen = []

        def phase_times(j):
            seen.append(j.phases[0].finish_time())
            seen.append({t.start_time for t in j.phases[1].built_tasks()})

        sched = after_finish_hooks(FIFOScheduler(), job=phase_times)
        SimulationEngine(cluster, sched, [job], max_time=1e4).run()
        assert seen[0] == pytest.approx(5.0)
        assert seen[1] == {5.0}


class TestArrivalEdges:
    def test_simultaneous_arrivals(self):
        cluster = homogeneous_cluster(1, Resources.of(2, 2))
        jobs = [
            make_single_task_job(cpu=1.0, mem=1.0, theta=5.0, job_id=k)
            for k in range(4)
        ]
        engine = SimulationEngine(cluster, FIFOScheduler(), jobs, max_time=1e4)
        result = engine.run()
        assert result.num_jobs == 4
        # Two run immediately, two wait one service round.
        finishes = sorted(r.finish_time for r in result.records)
        assert finishes == pytest.approx([5.0, 5.0, 10.0, 10.0])

    def test_arrival_during_backlog(self):
        cluster = homogeneous_cluster(1, Resources.of(1, 10))
        first = make_single_task_job(cpu=1.0, theta=100.0, job_id=1)
        late = make_single_task_job(cpu=1.0, theta=1.0, arrival_time=50.0, job_id=2)
        engine = SimulationEngine(cluster, FIFOScheduler(), [first, late], max_time=1e4)
        result = engine.run()
        rec = {r.job_id: r for r in result.records}
        assert rec[2].wait_time == pytest.approx(50.0)


class TestViewGuards:
    def test_launch_for_inactive_job_rejected(self):
        cluster = homogeneous_cluster(1, Resources.of(8, 8))
        early = make_single_task_job(theta=1.0, job_id=1)
        future = make_single_task_job(theta=1.0, arrival_time=500.0, job_id=2)

        class Eager(Scheduler):
            name = "eager"

            def schedule(self, view):
                # Try to launch the not-yet-arrived job's task.
                task = future.phases[0].task(0)
                if task.state is TaskState.PENDING:
                    view.launch(task, view.cluster[0])

        engine = SimulationEngine(cluster, Eager(), [early, future], max_time=1e4)
        with pytest.raises(RuntimeError, match="not active"):
            engine.run()

    def test_launch_on_finished_task_rejected(self):
        cluster = homogeneous_cluster(2, Resources.of(8, 8))
        job = make_single_task_job(theta=5.0)

        class Necromancer(Scheduler):
            name = "necromancer"

            def __init__(self):
                self.fired = False

            def schedule(self, view):
                task = job.phases[0].task(0)
                if task.state is TaskState.PENDING:
                    view.launch(task, view.cluster[0])

            def on_task_finish(self, task, view):
                view.launch(task, view.cluster[1])  # too late

        engine = SimulationEngine(cluster, Necromancer(), [job], max_time=1e4)
        with pytest.raises(RuntimeError, match="already finished"):
            engine.run()

    def test_scheduler_kill_is_permitted_and_safe(self):
        """A policy may kill its own clone (e.g. delay-assignment); the
        task still completes via the surviving copy."""
        cluster = homogeneous_cluster(2, Resources.of(1, 1))
        job = make_single_task_job(cpu=1.0, mem=1.0, theta=10.0)
        task = job.phases[0].task(0)

        class LaunchThenRegret(Scheduler):
            name = "regret"

            def __init__(self):
                self.killed_once = False

            def schedule(self, view):
                if task.state is TaskState.PENDING:
                    view.launch(task, view.cluster[0])
                    clone = view.launch(task, view.cluster[1], clone=True)
                    view.kill(clone)
                    self.killed_once = True

        sched = LaunchThenRegret()
        engine = SimulationEngine(cluster, sched, [job], max_time=1e4)
        result = engine.run()
        assert sched.killed_once
        assert result.num_jobs == 1
        assert cluster[1].allocated.is_zero()


class TestZeroAndTinyDurations:
    def test_tiny_theta_completes(self):
        cluster = homogeneous_cluster(1, Resources.of(8, 8))
        job = make_single_task_job(theta=1e-6)
        result = SimulationEngine(cluster, FIFOScheduler(), [job], max_time=10).run()
        assert result.num_jobs == 1

    def test_mixed_scales(self):
        cluster = homogeneous_cluster(1, Resources.of(4, 8))
        jobs = [
            make_single_task_job(theta=1e-3, job_id=1),
            make_single_task_job(theta=1e3, job_id=2),
        ]
        result = SimulationEngine(cluster, FIFOScheduler(), jobs, max_time=1e5).run()
        assert result.num_jobs == 2


class TestResultIntegrity:
    def test_records_sorted_and_complete(self):
        cluster = homogeneous_cluster(2, Resources.of(8, 8))
        jobs = [
            make_single_task_job(theta=3.0, arrival_time=float(9 - k), job_id=k)
            for k in range(6)
        ]
        result = SimulationEngine(cluster, FIFOScheduler(), jobs, max_time=1e4).run()
        ids = [r.job_id for r in result.records]
        assert ids == sorted(ids) == list(range(6))
