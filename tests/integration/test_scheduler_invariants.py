"""Invariants every scheduling policy must satisfy, checked end-to-end
on a shared stochastic workload.

The engine enforces Eq. (5) (capacity) and Eq. (7) (DAG gating) with
hard errors, so merely completing the run proves those; the assertions
here cover conservation and bookkeeping invariants.
"""

import pytest

from repro.cluster.heterogeneity import paper_cluster_30_nodes
from repro.schedulers.carbyne import CarbyneScheduler
from repro.schedulers.drf import DRFScheduler
from repro.schedulers.fifo import CapacityScheduler, FIFOScheduler
from repro.schedulers.graphene import GrapheneScheduler
from repro.schedulers.srpt import SRPTScheduler
from repro.schedulers.svf import SVFScheduler
from repro.schedulers.tetris import TetrisScheduler
from repro.core.online import DollyMPScheduler
from repro.sim.engine import SimulationEngine
from repro.workload.google_trace import GoogleTraceGenerator, jobs_from_specs
from repro.workload.task import TaskState
from tests.conftest import after_finish_hooks, snapshot_copies

ALL_SCHEDULERS = {
    "FIFO": FIFOScheduler,
    "Capacity": CapacityScheduler,
    "SRPT": SRPTScheduler,
    "SVF": SVFScheduler,
    "DRF": DRFScheduler,
    "Tetris": TetrisScheduler,
    "Carbyne": CarbyneScheduler,
    "Graphene": GrapheneScheduler,
    "DollyMP0": lambda: DollyMPScheduler(max_clones=0),
    "DollyMP2": lambda: DollyMPScheduler(max_clones=2),
}


def workload():
    gen = GoogleTraceGenerator(seed=17, mean_theta=15.0)
    specs = gen.generate(25, mean_interarrival=10.0)
    # Clamp demands to fit the paper cluster's smallest nodes.
    return jobs_from_specs(specs)


@pytest.fixture(scope="module", params=sorted(ALL_SCHEDULERS))
def engine(request):
    """One completed run per scheduler, shared by all invariant tests.

    Finished work leaves the engine (a task folds its copies, a job
    releases its graph), so the finish hooks collect what the tests
    check: each task with its copies, and each dependent phase's
    earliest start with its parents' finish times."""
    finished_copies = []
    gated_phases = []

    def on_task(task):
        finished_copies.append((task, list(task.copies)))

    def on_job(job):
        for phase in job.phases:
            if phase.parents:
                earliest = min(t.start_time for t in phase.built_tasks())
                done = [job.phases[p].finish_time() for p in phase.parents]
                gated_phases.append((earliest, done))

    eng = SimulationEngine(
        paper_cluster_30_nodes(),
        after_finish_hooks(ALL_SCHEDULERS[request.param](), task=on_task, job=on_job),
        workload(),
        seed=5,
        max_time=1e6,
    )
    eng.result = eng.run()
    eng.policy_name = request.param
    eng.finished_copies = finished_copies
    eng.gated_phases = gated_phases
    return eng


class TestInvariants:

    def test_all_jobs_complete(self, engine):
        assert engine.result.num_jobs == 25
        assert not engine.active_jobs

    def test_all_resources_released(self, engine):
        assert engine.cluster.total_allocated().is_zero()
        assert engine.clone_occupancy.is_zero()
        for server in engine.cluster:
            assert not server.running_copies

    def test_every_task_finished_exactly_once(self, engine):
        checked = engine.finished_copies
        assert len(checked) == sum(r.num_tasks for r in engine.result.records) > 0
        assert len({task.uid for task, _ in checked}) == len(checked)
        for task, copies in checked:
            assert task.state is TaskState.FINISHED
            winners = [c for c in copies if c.finished]
            assert len(winners) == 1
            losers = [c for c in copies if c.killed]
            assert len(losers) == len(copies) - 1
            assert task.num_live_copies == 0
            # Folded after the hook: the ledger keeps every duration.
            assert task.copies == ()
            assert task.ledger.durations == tuple(c.duration for c in copies)

    def test_first_copy_wins_semantics(self, engine):
        """The winning copy's finish time equals the task finish time and
        is minimal among the task's copies' (untruncated) finish times."""
        assert engine.finished_copies
        for task, copies in engine.finished_copies:
            winner = next(c for c in copies if c.finished)
            assert winner.finish_time == pytest.approx(task.finish_time)
            assert task.ledger.winner_duration == winner.duration
            for c in copies:
                if c.killed:
                    # Killed at the winner's finish; its truncated
                    # end cannot precede its start.
                    assert c.duration > 0

    def test_flowtimes_positive_and_causal(self, engine):
        for rec in engine.result.records:
            assert rec.flowtime > 0
            assert rec.first_start_time >= rec.arrival_time - 1e-9
            assert rec.finish_time >= rec.first_start_time

    def test_phase_dependencies_respected(self, engine):
        """No task started before all parent phases finished."""
        assert engine.gated_phases
        for earliest, parents_done in engine.gated_phases:
            for parent_done in parents_done:
                assert earliest >= parent_done - 1e-9

    def test_usage_accounting_consistent(self, engine):
        """Σ per-job cpu-seconds equals the engine's utilization integral."""
        total_cpu_seconds = sum(r.cpu_seconds for r in engine.result.records)
        integral = engine._alloc_integral_cpu
        assert total_cpu_seconds == pytest.approx(integral, rel=1e-6)

    def test_clone_counts_match_records(self, engine):
        assert (
            sum(r.num_clones for r in engine.result.records)
            == engine.clones_launched
        )
        assert (
            sum(r.num_copies for r in engine.result.records)
            == engine.copies_launched
        )


class TestCloneCapInvariant:
    @pytest.mark.parametrize("cap", [0, 1, 2, 3])
    def test_dollymp_copy_cap(self, cap):
        sched = DollyMPScheduler(max_clones=cap)
        copies = snapshot_copies(sched)
        engine = SimulationEngine(
            paper_cluster_30_nodes(),
            sched,
            workload(),
            seed=5,
            max_time=1e6,
        )
        result = engine.run()
        assert len(copies) == sum(r.num_tasks for r in result.records) > 0
        for launched in copies.values():
            assert len(launched) <= cap + 1


class TestSlottedEquivalence:
    def test_slotted_run_completes_same_jobs(self):
        ev = SimulationEngine(
            paper_cluster_30_nodes(),
            DollyMPScheduler(max_clones=2),
            workload(),
            seed=5,
            max_time=1e6,
        ).run()
        sl = SimulationEngine(
            paper_cluster_30_nodes(),
            DollyMPScheduler(max_clones=2),
            workload(),
            seed=5,
            schedule_interval=5.0,
            max_time=1e6,
        ).run()
        assert ev.num_jobs == sl.num_jobs == 25
        # Slot quantization delays starts, never loses work.
        assert sl.total_flowtime >= ev.total_flowtime * 0.5
