"""Tests for the replay determinism oracle (DESIGN.md §5.3).

Records real simulations — event-driven and slotted, with cloning and
scheduler-issued kills — and verifies the journaled decision trace
reconstructs a bit-identical :class:`SimulationResult` on a fresh
cluster and workload.  Tampered traces must fail loudly with
:class:`ReplayDivergence` at the first divergent step.
"""

import dataclasses

import pytest

from repro.cluster.heterogeneity import homogeneous_cluster
from repro.core.online import DollyMPScheduler
from repro.resources import Resources
from repro.schedulers.base import Scheduler
from repro.schedulers.fifo import FIFOScheduler
from repro.sim.actions import DecisionTrace, Kill, Launch
from repro.sim.replay import (
    ReplayDivergence,
    ReplayScheduler,
    assert_replay_identical,
    replay_trace,
)
from repro.sim.runner import run_recorded
from repro.workload.task import TaskState
from tests.conftest import all_tasks, make_single_task_job


def _cluster():
    return homogeneous_cluster(4, Resources.of(8, 16))


def _straggler_jobs():
    """Jobs with Pareto stragglers, so DollyMP actually clones."""
    return [
        make_single_task_job(theta=8.0, sigma=4.0, arrival_time=6.0 * i, job_id=i)
        for i in range(6)
    ]


class CloneThenKillScheduler(Scheduler):
    """Launches every task with one clone, kills the clone a pass later.

    Exists to exercise scheduler-issued ``Kill`` actions (distinct from
    the engine's internal first-copy-wins kills, which bypass the
    journal) through the record/replay cycle.
    """

    name = "clone-then-kill"

    def schedule(self, view) -> None:
        for job in view.active_jobs:
            for phase in job.phases:
                if not job.phase_ready(phase, view.time):
                    continue
                for task in all_tasks(phase):
                    if task.state is TaskState.FINISHED:
                        continue
                    live = [c for c in task.copies if c.live]
                    if not live:
                        server = self._first_fit(view, task)
                        if server is None:
                            continue
                        view.apply(Launch(task, server))
                        second = self._first_fit(view, task)
                        if second is not None:
                            view.apply(Launch(task, second, clone=True))
                    elif len(live) > 1 and view.time > live[-1].start_time:
                        clones = [c for c in live if c.is_clone]
                        if clones:
                            view.apply(Kill(clones[-1]))

    @staticmethod
    def _first_fit(view, task):
        for server in view.cluster:
            if server.can_fit(task.demand):
                return server
        return None


class TestReplayBitIdentical:
    def test_event_driven_dollymp(self):
        result, trace = run_recorded(
            _cluster(), DollyMPScheduler(max_clones=2), _straggler_jobs(), seed=11
        )
        assert len(trace) > 0
        replayed = replay_trace(trace, _cluster(), _straggler_jobs())
        assert_replay_identical(result, replayed)
        # The headline quantity of the paper, compared bit-for-bit.
        assert [r.flowtime for r in replayed.records] == [
            r.flowtime for r in result.records
        ]

    def test_slotted_mode(self):
        result, trace = run_recorded(
            _cluster(),
            DollyMPScheduler(max_clones=2),
            _straggler_jobs(),
            seed=4,
            schedule_interval=5.0,
        )
        assert trace.meta["schedule_interval"] == 5.0
        replayed = replay_trace(trace, _cluster(), _straggler_jobs())
        assert_replay_identical(result, replayed)

    def test_scheduler_issued_kills_replay(self):
        jobs = lambda: [  # noqa: E731
            make_single_task_job(theta=10.0, arrival_time=3.0 * i, job_id=i)
            for i in range(3)
        ]
        result, trace = run_recorded(_cluster(), CloneThenKillScheduler(), jobs(), seed=5)
        kills = [d for d in trace if d.kind == "kill"]
        assert kills, "scenario must journal explicit Kill decisions"
        assert all(d.copy_index is not None for d in kills)
        replayed = replay_trace(trace, _cluster(), jobs())
        assert_replay_identical(result, replayed)

    def test_jsonl_roundtrip_replays(self, tmp_path):
        result, trace = run_recorded(
            _cluster(), DollyMPScheduler(max_clones=2), _straggler_jobs(), seed=11
        )
        path = tmp_path / "decisions.jsonl"
        trace.dump_jsonl(path)
        loaded = DecisionTrace.load_jsonl(path)
        replayed = replay_trace(loaded, _cluster(), _straggler_jobs())
        assert_replay_identical(result, replayed)

    def test_replay_scheduler_named_after_policy(self):
        result, trace = run_recorded(_cluster(), FIFOScheduler(), _straggler_jobs(), seed=1)
        replayed = replay_trace(trace, _cluster(), _straggler_jobs())
        assert replayed.scheduler_name == result.scheduler_name


class TestReplayDivergence:
    def _recorded(self):
        return run_recorded(
            _cluster(), DollyMPScheduler(max_clones=2), _straggler_jobs(), seed=11
        )

    def test_tampered_point_detected(self):
        _, trace = self._recorded()
        decisions = list(trace.decisions)
        decisions[0] = dataclasses.replace(decisions[0], point=0)
        with pytest.raises(ReplayDivergence, match="entry-point sequence"):
            replay_trace(decisions, _cluster(), _straggler_jobs(), seed=11)

    def test_tampered_task_reference_detected(self):
        _, trace = self._recorded()
        decisions = list(trace.decisions)
        decisions[0] = dataclasses.replace(decisions[0], task_index=99)
        with pytest.raises(ReplayDivergence, match="does not exist"):
            replay_trace(decisions, _cluster(), _straggler_jobs(), seed=11)

    def test_phantom_decision_detected(self):
        result, trace = self._recorded()
        decisions = list(trace.decisions)
        phantom = dataclasses.replace(
            decisions[-1], seq=len(decisions), point=decisions[-1].point + 10_000
        )
        with pytest.raises(ReplayDivergence, match="unapplied"):
            replay_trace(decisions + [phantom], _cluster(), _straggler_jobs(), seed=11)

    def test_seed_required_without_meta(self):
        _, trace = self._recorded()
        with pytest.raises(ValueError, match="seed"):
            replay_trace(list(trace.decisions), _cluster(), _straggler_jobs())

    def test_result_comparison_catches_divergence(self):
        a, _ = self._recorded()
        b, _ = run_recorded(
            _cluster(), DollyMPScheduler(max_clones=2), _straggler_jobs(), seed=12
        )
        with pytest.raises(ReplayDivergence, match="diverged"):
            assert_replay_identical(a, b)

    def test_result_comparison_catches_job_count(self):
        a, _ = self._recorded()
        b, _ = run_recorded(
            _cluster(),
            DollyMPScheduler(max_clones=2),
            _straggler_jobs()[:4],
            seed=11,
        )
        with pytest.raises(ReplayDivergence, match="job count"):
            assert_replay_identical(a, b)

    def test_empty_replay_scheduler_defaults_name(self):
        assert ReplayScheduler([]).name == "replay"
