"""Unit tests for the cloning policy and delay assignment (Secs. 4.1, 5, 5.2)."""

import pytest

from repro.cluster.heterogeneity import homogeneous_cluster
from repro.core.cloning_policy import (
    CloningPolicy,
    clone_resource_occupancy,
    delay_assignment_map,
)
from repro.resources import Resources
from repro.workload.distributions import ParetoType1
from repro.workload.job import Job
from repro.workload.phase import Phase
from repro.workload.task import TaskCopy


def running_task(theta=10.0, sigma=5.0, cpu=1.0, mem=1.0):
    phase = Phase(0, 1, Resources.of(cpu, mem), ParetoType1.from_moments(theta, sigma))
    Job([phase])
    task = phase.task(0)
    task.add_copy(TaskCopy(task, 0, 0.0, 10.0, is_clone=False))
    return task


class TestPolicyValidation:
    def test_defaults_match_paper(self):
        p = CloningPolicy()
        assert p.max_clones == 2  # "the maximum number of clones ... is two"
        assert p.budget_fraction == 0.3  # δ = 0.3 (Sec. 6.1)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            CloningPolicy(max_clones=-1)
        with pytest.raises(ValueError):
            CloningPolicy(budget_fraction=1.5)

    def test_max_copies(self):
        assert CloningPolicy(max_clones=2).max_copies == 3


class TestMayClone:
    def test_zero_clones_never(self):
        assert not CloningPolicy(max_clones=0).may_clone(running_task())

    def test_pending_task_never_cloned(self):
        phase = Phase(0, 1, Resources.of(1, 1), ParetoType1.from_moments(5, 2))
        Job([phase])
        assert not CloningPolicy(max_clones=2).may_clone(phase.task(0))

    def test_running_task_cloneable(self):
        assert CloningPolicy(max_clones=2).may_clone(running_task())

    def test_cap_respected(self):
        policy = CloningPolicy(max_clones=1)
        task = running_task()
        task.add_copy(TaskCopy(task, 1, 0.0, 10.0, is_clone=True))
        assert not policy.may_clone(task)

    def test_killed_copy_frees_slot(self):
        policy = CloningPolicy(max_clones=1)
        task = running_task()
        clone = TaskCopy(task, 1, 0.0, 10.0, is_clone=True)
        task.add_copy(clone)
        clone.killed = True
        assert policy.may_clone(task)

    def test_category_target_limits_copies(self):
        """Cor. 4.1 mode: r_j copies suffice to meet the category length."""
        policy = CloningPolicy(max_clones=3, use_category_target=True)
        task = running_task(theta=10.0, sigma=5.0)
        h = task.phase.speedup
        # Category long enough that one copy suffices → no clone wanted.
        loose = 2.0 * 10.0 / h(1)
        assert not policy.may_clone(task, category_length=loose)
        # Tight category → cloning allowed up to the cap.
        assert policy.may_clone(task, category_length=9.0)


class TestBudget:
    def test_occupancy_counts_only_live_clones(self):
        cluster = homogeneous_cluster(2, Resources.of(8, 8))
        task = running_task(cpu=2.0, mem=2.0)
        orig = task.copies[0]
        cluster[0].allocate(orig)
        assert clone_resource_occupancy(cluster).is_zero()
        clone = TaskCopy(task, 1, 0.0, 10.0, is_clone=True)
        task.add_copy(clone)
        cluster[1].allocate(clone)
        assert clone_resource_occupancy(cluster) == Resources.of(2, 2)

    def test_budget_remaining(self):
        cluster = homogeneous_cluster(2, Resources.of(10, 10))  # total (20,20)
        policy = CloningPolicy(budget_fraction=0.25)
        rem = policy.budget_remaining(cluster)
        assert rem == Resources.of(5, 5)

    def test_budget_disabled_at_one(self):
        cluster = homogeneous_cluster(1, Resources.of(10, 10))
        policy = CloningPolicy(budget_fraction=1.0)
        assert policy.budget_remaining(cluster) == cluster.total_capacity

    def test_within_budget(self):
        cluster = homogeneous_cluster(1, Resources.of(10, 10))
        policy = CloningPolicy(budget_fraction=0.3)
        assert policy.within_budget(cluster, Resources.of(3, 3))
        assert not policy.within_budget(cluster, Resources.of(4, 3))


class TestDelayAssignment:
    def test_more_upstream_than_downstream(self):
        # 4 upstream copies, 2 downstream: each downstream gets two feeds,
        # dealt round-robin from the earliest finishers.
        got = delay_assignment_map(4, 2)
        assert got == {0: [0, 2], 1: [1, 3]}

    def test_excess_upstream_ignored_beyond_two_each(self):
        got = delay_assignment_map(10, 2)
        assert all(len(v) == 2 for v in got.values())

    def test_fewer_upstream_than_downstream(self):
        # First finisher feeds everyone (Sec. 5.2 second case).
        got = delay_assignment_map(1, 3)
        assert got == {0: [0], 1: [0], 2: [0]}

    def test_equal_counts(self):
        got = delay_assignment_map(2, 2)
        assert got == {0: [0], 1: [1]}

    def test_validation(self):
        with pytest.raises(ValueError):
            delay_assignment_map(0, 1)
        with pytest.raises(ValueError):
            delay_assignment_map(1, 0)


class TestDelayAssignmentAliasing:
    """Sec. 5.2 wiring pins (ISSUE audit): the 1-upstream fan-out map
    must not share list objects between downstream copies."""

    def test_fanout_lists_are_distinct_objects(self):
        got = delay_assignment_map(1, 3)
        assert got == {0: [0], 1: [0], 2: [0]}
        assert got[0] is not got[1] and got[1] is not got[2]
        got[0].append(99)  # mutating one entry must not leak
        assert got[1] == [0] and got[2] == [0]

    def test_round_robin_lists_are_distinct_objects(self):
        got = delay_assignment_map(4, 2)
        assert got[0] is not got[1]

    def test_odd_split_three_up_two_down(self):
        # 3 feeds dealt round-robin: downstream 0 gets {0, 2}, 1 gets {1}.
        got = delay_assignment_map(3, 2)
        assert got == {0: [0, 2], 1: [1]}

    def test_single_up_single_down(self):
        assert delay_assignment_map(1, 1) == {0: [0]}


class TestBudgetReturnRegression:
    """δ-budget conservation under churny clone lifecycles (ISSUE
    bugfix): resources released by finished/killed clones must return to
    the budget promptly, and a drained engine must expose the full
    ceiling again — bitwise, not within-epsilon."""

    @staticmethod
    def _make_engine(scheduler, jobs, **kw):
        from repro.sim.engine import SimulationEngine

        cluster = homogeneous_cluster(3, Resources.of(4, 4), slowdown=1.0)
        return SimulationEngine(cluster, scheduler, jobs, sanitize=True, **kw)

    def test_occupancy_snaps_to_zero_after_drain(self):
        from repro.schedulers.base import Scheduler
        from tests.conftest import make_single_task_job

        class CloneTwice(Scheduler):
            name = "clone-twice"

            def schedule(self, view):
                for j in view.active_jobs:
                    for t in j.ready_tasks():
                        view.launch(t, view.cluster[0])
                        view.launch(t, view.cluster[1], clone=True)
                        view.launch(t, view.cluster[2], clone=True)

        jobs = [
            make_single_task_job(theta=10.0, arrival_time=20.0 * i, job_id=i)
            for i in range(4)
        ]
        engine = self._make_engine(CloneTwice(), jobs)
        engine.run()
        # Bitwise zero — not just within epsilon: the engine snaps the
        # incremental occupancy when the last live clone exits, so float
        # subtraction dust cannot accumulate across clone waves.
        assert engine.clone_occupancy == Resources(0.0, 0.0)
        policy = CloningPolicy(budget_fraction=0.3)
        full = policy.budget_remaining(engine.cluster)
        assert policy.budget_remaining(
            engine.cluster, occupancy=engine.clone_occupancy
        ) == full

    def test_budget_exhaustion_and_return(self):
        """Drive the budget to exhaustion, drain the wave, and observe
        the next wave seeing the full budget again."""
        from repro.schedulers.base import Scheduler
        from tests.conftest import make_single_task_job

        policy = CloningPolicy(max_clones=2, budget_fraction=0.2)
        observed = []

        class BudgetedCloner(Scheduler):
            name = "budgeted-cloner"

            def schedule(self, view):
                observed.append((view.time, view.clone_occupancy))
                for j in view.active_jobs:
                    for t in j.ready_tasks():
                        view.launch(t, view.cluster[0])
                    for phase in j.phases:
                        for t in phase.built_tasks():
                            while policy.may_clone(t) and policy.within_budget(
                                view.cluster, t.demand,
                                occupancy=view.clone_occupancy,
                            ):
                                server = view.cluster.best_fit_server(t.demand)
                                if server is None:
                                    break
                                view.launch(t, server, clone=True)
                # Post-launch snapshot: captures the within-wave peak.
                observed.append((view.time, view.clone_occupancy))

        # Wave 1 at t=0, wave 2 at t=50 (wave 1 fully drained by then).
        jobs = [
            make_single_task_job(cpu=1.0, mem=1.0, theta=10.0, job_id=0),
            make_single_task_job(
                cpu=1.0, mem=1.0, theta=10.0, arrival_time=50.0, job_id=1
            ),
        ]
        engine = self._make_engine(BudgetedCloner(), jobs)
        engine.run()
        # Budget ceiling: 20% of (12, 12) = (2.4, 2.4) → two 1×1 clones
        # fit, a third does not: exhaustion reached in wave 1.
        assert engine.clones_launched == 4  # two per wave
        peak = max(occ.cpu for _, occ in observed)
        assert peak == pytest.approx(2.0)
        # The first pass at t=50 (wave 2's arrival, before its launches)
        # saw the budget fully returned — bitwise.
        wave2 = [occ for t, occ in observed if t == 50.0]
        assert wave2, "no schedule pass observed at wave 2's arrival"
        assert wave2[0] == Resources(0.0, 0.0)
        assert engine.clone_occupancy == Resources(0.0, 0.0)

    def test_fault_killed_clone_returns_budget(self):
        """A clone lost to a server crash returns its budget share
        immediately (the sweep's headline bug: fault kills bypassed the
        return path)."""
        from repro.schedulers.base import Scheduler
        from repro.sim.actions import Fail
        from tests.conftest import make_single_task_job

        class CrashCloneServer(Scheduler):
            name = "crash-clone-server"

            def __init__(self):
                self.crashed = False

            def schedule(self, view):
                for j in view.active_jobs:
                    for t in j.ready_tasks():
                        view.launch(t, view.cluster[0])
                        view.launch(t, view.cluster[1], clone=True)
                if not self.crashed and view.cluster[1].running_copies:
                    self.crashed = True
                    assert view.clone_occupancy.cpu > 0.0
                    view.apply(Fail(view.cluster[1]))
                    # The clone died with its server: budget back, bitwise.
                    assert view.clone_occupancy == Resources(0.0, 0.0)

        jobs = [make_single_task_job(theta=10.0, job_id=0)]
        engine = self._make_engine(CrashCloneServer(), jobs)
        result = engine.run()
        assert len(result.records) == 1
        assert engine.recoveries_masked_by_clone == 1
        assert engine.clone_occupancy == Resources(0.0, 0.0)
