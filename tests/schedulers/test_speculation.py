"""Unit tests for LATE-style speculative execution."""

import pytest

from repro.cluster.heterogeneity import homogeneous_cluster
from repro.resources import Resources
from repro.schedulers.base import Scheduler
from repro.schedulers.fifo import FIFOScheduler
from repro.schedulers.speculation import LATESpeculation, NoSpeculation
from repro.sim.engine import SimulationEngine
from repro.workload.distributions import Deterministic, EmpiricalDistribution
from repro.workload.job import Job
from repro.workload.phase import Phase
from repro.workload.task import TaskCopy


class _Null(Scheduler):
    name = "null"

    def schedule(self, view):
        pass


def make_view(cluster, jobs):
    engine = SimulationEngine(cluster, _Null(), jobs)
    for j in jobs:
        engine.active_jobs[j.job_id] = j
    return engine


def phase_with_history(num_done=5, done_duration=10.0, num_running=1, total=10):
    """A phase with `num_done` finished tasks and `num_running` stragglers."""
    phase = Phase(0, total, Resources.of(1, 1), Deterministic(done_duration))
    job = Job([phase])
    for i in range(num_done):
        t = phase.task(i)
        c = TaskCopy(t, 0, 0.0, done_duration, is_clone=False)
        t.add_copy(c)
        c.finished = True
        t.complete(done_duration)
    for i in range(num_done, num_done + num_running):
        t = phase.task(i)
        t.add_copy(TaskCopy(t, 0, 0.0, 100.0, is_clone=False))
    return job, phase


class TestNoSpeculation:
    def test_never_backs_up(self):
        cluster = homogeneous_cluster(2, Resources.of(4, 4))
        job, _ = phase_with_history()
        engine = make_view(cluster, [job])
        engine.now = 50.0
        assert NoSpeculation().backup_candidates(engine.view, [job]) == []


class TestLATE:
    def test_validation(self):
        with pytest.raises(ValueError):
            LATESpeculation(slow_threshold=1.0)
        with pytest.raises(ValueError):
            LATESpeculation(min_completed_fraction=0.0)
        with pytest.raises(ValueError):
            LATESpeculation(max_backup_fraction=1.5)

    def test_detects_straggler_after_threshold(self):
        cluster = homogeneous_cluster(2, Resources.of(4, 4))
        job, phase = phase_with_history(num_done=5, done_duration=10.0)
        engine = make_view(cluster, [job])
        late = LATESpeculation(slow_threshold=1.5, min_completed_fraction=0.25,
                               max_backup_fraction=1.0)
        engine.now = 12.0  # elapsed 12 < 15 → not yet
        assert late.backup_candidates(engine.view, [job]) == []
        engine.now = 16.0  # elapsed 16 > 15 → straggler
        cands = late.backup_candidates(engine.view, [job])
        assert len(cands) == 1
        assert cands[0] is phase.task(5)

    def test_needs_enough_completed_samples(self):
        """Small jobs cannot be helped — the Sec. 1 limitation."""
        cluster = homogeneous_cluster(2, Resources.of(4, 4))
        job, _ = phase_with_history(num_done=1, num_running=1, total=10)
        engine = make_view(cluster, [job])
        engine.now = 1000.0
        late = LATESpeculation(min_completed_fraction=0.25, max_backup_fraction=1.0)
        assert late.backup_candidates(engine.view, [job]) == []

    def test_no_double_backup(self):
        cluster = homogeneous_cluster(2, Resources.of(4, 4))
        job, phase = phase_with_history()
        straggler = phase.task(5)
        straggler.add_copy(TaskCopy(straggler, 1, 0.0, 100.0, is_clone=True))
        engine = make_view(cluster, [job])
        engine.now = 100.0
        late = LATESpeculation(max_backup_fraction=1.0)
        assert late.backup_candidates(engine.view, [job]) == []

    def test_backup_budget_caps_count(self):
        cluster = homogeneous_cluster(4, Resources.of(8, 8))
        job, phase = phase_with_history(num_done=5, num_running=5, total=10)
        engine = make_view(cluster, [job])
        engine.now = 100.0
        late = LATESpeculation(max_backup_fraction=0.2)
        cands = late.backup_candidates(engine.view, [job])
        assert len(cands) <= 1  # 20% of 5 running

    def test_most_late_first(self):
        cluster = homogeneous_cluster(4, Resources.of(8, 8))
        phase = Phase(0, 10, Resources.of(1, 1), Deterministic(10.0))
        job = Job([phase])
        for i in range(5):
            t = phase.task(i)
            c = TaskCopy(t, 0, 0.0, 10.0, is_clone=False)
            t.add_copy(c)
            c.finished = True
            t.complete(10.0)
        # Two stragglers, one much older.
        old = phase.task(5)
        old.add_copy(TaskCopy(old, 0, 0.0, 500.0, is_clone=False))
        young = phase.task(6)
        young.add_copy(TaskCopy(young, 1, 80.0, 500.0, is_clone=False))
        engine = make_view(cluster, [job])
        engine.now = 100.0
        late = LATESpeculation(max_backup_fraction=1.0)
        cands = late.backup_candidates(engine.view, [job])
        assert cands[0] is old

    def test_launch_backups_places_copies(self):
        cluster = homogeneous_cluster(2, Resources.of(8, 8))
        job, phase = phase_with_history()
        engine = make_view(cluster, [job])
        engine.now = 100.0
        late = LATESpeculation(max_backup_fraction=1.0)
        launched = late.launch_backups(engine.view, [job])
        assert launched == 1
        assert phase.task(5).num_live_copies == 2

    def test_integration_speculation_cuts_straggler_tail(self):
        """End-to-end: with a bimodal phase, FIFO+LATE beats plain FIFO."""
        def make_jobs():
            # 10 tasks: 9 take 10s, 1 takes 200s (empirical resampling).
            dist = EmpiricalDistribution([10.0] * 9 + [200.0])
            phase = Phase(0, 10, Resources.of(1, 1), dist)
            return [Job([phase], job_id=0)]

        cluster = homogeneous_cluster(4, Resources.of(4, 4))

        def run_with(spec):
            engine = SimulationEngine(
                homogeneous_cluster(4, Resources.of(4, 4)),
                FIFOScheduler(speculation=spec),
                make_jobs(),
                seed=3,
                max_time=1e5,
            )
            return engine.run().records[0].running_time

        plain = run_with(NoSpeculation())
        late = run_with(
            LATESpeculation(slow_threshold=1.3, min_completed_fraction=0.2,
                            max_backup_fraction=1.0)
        )
        assert late <= plain
