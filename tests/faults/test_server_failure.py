"""Server crash/recover semantics: copy kills, capacity coherence,
clone-as-recovery vs requeue, keep_one_up (DESIGN.md §5.5)."""

import pytest

from repro.cluster.heterogeneity import homogeneous_cluster, single_server_cluster
from repro.faults import FaultProfile
from repro.resources import Resources
from repro.schedulers.base import Scheduler
from repro.schedulers.fifo import FIFOScheduler
from repro.sim.actions import Fail, InvalidAction, Recover
from repro.sim.engine import SimulationEngine
from repro.workload.task import TaskState
from tests.conftest import make_single_task_job, snapshot_copies


class FailAfterLaunch(Scheduler):
    """Launches every ready task on server 0 (plus an optional clone on
    server 1), then crashes server 0 — all within one decision point."""

    name = "fail-after-launch"

    def __init__(self, *, clone: bool) -> None:
        self.clone = clone
        self.failed = False

    def schedule(self, view):
        if not self.failed:
            for j in view.active_jobs:
                for t in j.ready_tasks():
                    view.launch(t, view.cluster[0])
                    if self.clone:
                        view.launch(t, view.cluster[1], clone=True)
            self.failed = True
            view.apply(Fail(view.cluster[0]))
        # Anything the crash orphaned is PENDING again: relaunch it on
        # the surviving server within the same pass.
        for j in view.active_jobs:
            for t in j.ready_tasks():
                view.launch(t, view.cluster[1])


class TestCrashSemantics:
    def test_clone_masks_crash(self):
        """Primary dies with its server; the clone keeps the task RUNNING
        (clone-as-recovery) and finishes the job."""
        cluster = homogeneous_cluster(2, Resources.of(4, 4), slowdown=1.0)
        job = make_single_task_job(theta=10.0)
        task = job.phases[0].task(0)
        sched = FailAfterLaunch(clone=True)
        copies = snapshot_copies(sched)
        engine = SimulationEngine(cluster, sched, [job], sanitize=True)
        result = engine.run()
        assert task.state is TaskState.FINISHED
        assert task.fault_losses == 1
        assert engine.faults_injected == 1
        assert engine.copies_lost == 1
        assert engine.recoveries_masked_by_clone == 1
        assert engine.tasks_requeued == 0
        # The surviving clone finished; the crashed primary shows killed.
        assert sum(1 for c in copies[task.uid] if c.finished) == 1
        assert sum(1 for c in copies[task.uid] if c.killed) == 1
        assert result.records[0].flowtime == pytest.approx(10.0)

    def test_sole_copy_requeues(self):
        """No clone: the orphaned task returns to PENDING and relaunches
        on a healthy server as a fresh primary."""
        cluster = homogeneous_cluster(2, Resources.of(4, 4), slowdown=1.0)
        job = make_single_task_job(theta=10.0)
        task = job.phases[0].task(0)
        engine = SimulationEngine(
            cluster, FailAfterLaunch(clone=False), [job], sanitize=True
        )
        result = engine.run()
        assert task.state is TaskState.FINISHED
        assert engine.tasks_requeued == 1
        assert engine.recoveries_masked_by_clone == 0
        assert len(task.ledger.durations) == 2
        # The relaunch is a primary, not a clone (requeued tasks restart
        # their copy lifecycle), so no clone shows up in the record.
        assert task.ledger.clones == 0
        assert result.records[0].num_clones == 0

    def test_down_server_capacity_coherent(self):
        """A crashed server returns allocation and pins availability to
        bitwise zero; recovery restores the exact capacity."""
        cluster = homogeneous_cluster(2, Resources.of(4, 4), slowdown=1.0)
        job = make_single_task_job(theta=10.0)
        engine = SimulationEngine(cluster, FailAfterLaunch(clone=False), [job])
        engine.run()
        down = cluster[0]
        assert not down.up
        assert down.allocated.is_zero()
        assert down.available == Resources(0.0, 0.0)
        assert len(down.running_copies) == 0
        # Recovery (applied post-run directly) restores full capacity.
        engine.apply(Recover(down))
        assert down.up
        assert down.available == down.capacity

    def test_mirror_tracks_up_state(self):
        cluster = homogeneous_cluster(2, Resources.of(4, 4), slowdown=1.0)
        job = make_single_task_job(theta=10.0)
        engine = SimulationEngine(cluster, FailAfterLaunch(clone=False), [job])
        engine.run()
        mirror = cluster.mirror
        assert not bool(mirror.up[0])
        assert bool(mirror.up[1])
        assert float(mirror.avail_cpu[0]) == 0.0
        engine.apply(Recover(cluster[0]))
        assert bool(mirror.up[0])


class TestActionValidation:
    def test_fail_down_server_rejected(self):
        cluster = homogeneous_cluster(2, Resources.of(4, 4))
        job = make_single_task_job(theta=10.0)
        engine = SimulationEngine(cluster, FIFOScheduler(), [job])
        engine.apply(Fail(cluster[0]))
        with pytest.raises(InvalidAction, match="already down"):
            engine.apply(Fail(cluster[0]))

    def test_recover_up_server_rejected(self):
        cluster = homogeneous_cluster(2, Resources.of(4, 4))
        job = make_single_task_job(theta=10.0)
        engine = SimulationEngine(cluster, FIFOScheduler(), [job])
        with pytest.raises(InvalidAction, match="already up"):
            engine.apply(Recover(cluster[0]))

    def test_launch_on_down_server_rejected(self):
        cluster = homogeneous_cluster(2, Resources.of(4, 4))
        job = make_single_task_job(theta=10.0)

        class LaunchOnDown(Scheduler):
            name = "launch-on-down"

            def schedule(self, view):
                for j in view.active_jobs:
                    for t in j.ready_tasks():
                        view.apply(Fail(view.cluster[0]))
                        with pytest.raises(InvalidAction, match="is down"):
                            view.launch(t, view.cluster[0])
                        view.launch(t, view.cluster[1])
                        return

        SimulationEngine(cluster, LaunchOnDown(), [job]).run()


class TestChurnEndToEnd:
    def test_churn_run_completes_under_sanitizer(self):
        """Aggressive churn on a small cluster: every job still finishes,
        faults demonstrably fired, capacity is conserved afterwards."""
        cluster = homogeneous_cluster(4, Resources.of(4, 8), slowdown=1.0)
        jobs = [
            make_single_task_job(theta=20.0, arrival_time=10.0 * i, job_id=i)
            for i in range(6)
        ]
        engine = SimulationEngine(
            cluster,
            FIFOScheduler(),
            jobs,
            seed=3,
            sanitize=True,
            fault_profile=FaultProfile(mtbf=40.0, mttr=10.0),
        )
        result = engine.run()
        assert len(result.records) == 6
        assert result.faults_injected > 0
        for server in cluster:
            if server.up:
                # Drained cluster: full capacity back, bit-for-bit.
                assert server.available == server.capacity
            else:
                assert server.available == Resources(0.0, 0.0)

    def test_keep_one_up_protects_last_server(self):
        """A single-server cluster under heavy churn never actually
        crashes — the workload completes without a single injection."""
        cluster = single_server_cluster(Resources.of(4, 8), slowdown=1.0)
        jobs = [make_single_task_job(theta=30.0, job_id=0)]
        engine = SimulationEngine(
            cluster,
            FIFOScheduler(),
            jobs,
            seed=1,
            sanitize=True,
            fault_profile=FaultProfile(mtbf=5.0, mttr=5.0),
        )
        result = engine.run()
        assert len(result.records) == 1
        assert engine.faults_injected == 0
        assert cluster[0].up

    def test_fault_summary_keys_only_when_fired(self):
        cluster = homogeneous_cluster(4, Resources.of(4, 8), slowdown=1.0)
        jobs = [make_single_task_job(theta=20.0, job_id=0)]
        plain = SimulationEngine(cluster, FIFOScheduler(), jobs).run()
        assert "faults_injected" not in plain.summary()
