"""Requeue semantics: fresh-primary relaunch, fault_losses vs the
lifetime copy cap, phase/task state coherence (DESIGN.md §5.5)."""

from repro.cluster.heterogeneity import homogeneous_cluster
from repro.resources import Resources
from repro.schedulers.base import Scheduler
from repro.sim.actions import Fail
from repro.sim.engine import SimulationEngine
from repro.workload.task import TaskState
from tests.conftest import all_tasks, make_chain_job, make_single_task_job


class CrashEveryLaunch(Scheduler):
    """Launches the pending task on server 0 and crashes that server
    ``crashes`` times (recovering capacity is irrelevant: each relaunch
    goes to the next still-up server)."""

    name = "crash-every-launch"

    def __init__(self, crashes: int) -> None:
        self.crashes = crashes
        self.done = 0

    def schedule(self, view):
        while True:
            up = [s for s in view.cluster if s.up]
            launched = False
            for j in view.active_jobs:
                for t in j.ready_tasks():
                    view.launch(t, up[0])
                    launched = True
            if launched and self.done < self.crashes:
                self.done += 1
                view.apply(Fail(up[0]))
                continue  # relaunch the orphan in this same pass
            return


class TestLifetimeCap:
    def test_fault_losses_exempt_from_copy_cap(self):
        """max_copies_per_task=1 would normally forbid a second copy;
        copies lost to faults don't count against the lifetime cap, so a
        twice-crashed task still relaunches (and a policy bug here would
        raise the engine's copy-cap RuntimeError)."""
        cluster = homogeneous_cluster(3, Resources.of(4, 4), slowdown=1.0)
        job = make_single_task_job(theta=10.0)
        task = job.phases[0].task(0)
        engine = SimulationEngine(
            cluster,
            CrashEveryLaunch(crashes=2),
            [job],
            sanitize=True,
            max_copies_per_task=1,
        )
        result = engine.run()
        assert task.state is TaskState.FINISHED
        assert len(task.ledger.durations) == 3  # two fault losses + the survivor
        assert task.fault_losses == 2
        assert engine.tasks_requeued == 2
        assert len(result.records) == 1


class TestRequeueCoherence:
    def test_requeued_task_is_fresh_primary(self):
        cluster = homogeneous_cluster(2, Resources.of(4, 4), slowdown=1.0)
        job = make_single_task_job(theta=10.0)
        task = job.phases[0].task(0)
        engine = SimulationEngine(cluster, CrashEveryLaunch(crashes=1), [job])
        engine.run()
        # The crashed primary and its relaunch, neither a clone.
        assert len(task.ledger.durations) == 2
        assert task.ledger.clones == 0
        assert engine.clones_launched == 0

    def test_phase_counters_cohere_after_requeue(self):
        """A crash mid-phase leaves num_pending/num_running consistent —
        the sanitizer's REQUEUE_COHERENCE invariant, asserted directly."""
        cluster = homogeneous_cluster(3, Resources.of(8, 8), slowdown=1.0)
        job = make_chain_job(2, 3, theta=10.0)

        class CrashOnce(Scheduler):
            name = "crash-once"

            def __init__(self):
                self.crashed = False

            def schedule(self, view):
                for j in view.active_jobs:
                    for t in j.ready_tasks():
                        up = [s for s in view.cluster if s.up]
                        # Spread over servers so a crash orphans a strict
                        # subset of the phase.
                        view.launch(t, up[t.uid[2] % len(up)])
                if not self.crashed and view.cluster[0].running_copies:
                    self.crashed = True
                    view.apply(Fail(view.cluster[0]))
                    phase = view.active_jobs[0].phases[0]
                    pending = sum(
                        1 for t in all_tasks(phase) if t.state is TaskState.PENDING
                    )
                    running = sum(
                        1 for t in phase.built_tasks() if t.state is TaskState.RUNNING
                    )
                    assert phase.num_pending == pending
                    assert phase.num_running == running
                    assert pending >= 1  # the crash did orphan something
                    for t in phase.built_tasks():
                        if t.state is TaskState.PENDING:
                            assert t.num_live_copies == 0

        engine = SimulationEngine(cluster, CrashOnce(), [job], sanitize=True)
        result = engine.run()
        assert len(result.records) == 1
        assert engine.tasks_requeued >= 1
