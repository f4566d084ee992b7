"""Unit tests for tasks and task copies."""

import pytest

from repro.resources import Resources
from repro.workload.distributions import Deterministic
from repro.workload.job import Job
from repro.workload.phase import Phase
from repro.workload.task import TaskCopy, TaskLedger, TaskState
from tests.conftest import all_tasks


def make_task():
    phase = Phase(0, 2, Resources.of(1, 2), Deterministic(10.0))
    Job([phase])
    return phase.task(0)


class TestTaskCopy:
    def test_finish_time(self):
        t = make_task()
        c = TaskCopy(t, 0, 5.0, 10.0, is_clone=False)
        assert c.finish_time == 15.0

    def test_live_transitions(self):
        t = make_task()
        c = TaskCopy(t, 0, 0.0, 1.0, is_clone=False)
        assert c.live
        c.killed = True
        assert not c.live

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            TaskCopy(make_task(), 0, 0.0, 0.0, is_clone=False)

    def test_identity_semantics(self):
        t = make_task()
        a = TaskCopy(t, 0, 0.0, 1.0, is_clone=False)
        b = TaskCopy(t, 0, 0.0, 1.0, is_clone=False)
        assert a != b and a == a
        assert len({a, b}) == 2


class TestTask:
    def test_initial_state(self):
        t = make_task()
        assert t.state is TaskState.PENDING
        assert t.start_time is None
        assert not t.has_run
        assert t.num_live_copies == 0

    def test_uid_unique_within_job(self):
        phase = Phase(0, 3, Resources.of(1, 1), Deterministic(1.0))
        Job([phase])
        uids = {t.uid for t in all_tasks(phase)}
        assert len(uids) == 3

    def test_add_copy_moves_to_running(self):
        t = make_task()
        t.add_copy(TaskCopy(t, 0, 2.0, 5.0, is_clone=False))
        assert t.state is TaskState.RUNNING
        assert t.start_time == 2.0
        assert t.has_run

    def test_start_time_is_earliest_copy(self):
        t = make_task()
        t.add_copy(TaskCopy(t, 0, 5.0, 5.0, is_clone=False))
        t.add_copy(TaskCopy(t, 1, 3.0, 5.0, is_clone=True))
        assert t.start_time == 3.0

    def test_live_copies_excludes_killed(self):
        t = make_task()
        a = TaskCopy(t, 0, 0.0, 5.0, is_clone=False)
        b = TaskCopy(t, 1, 0.0, 5.0, is_clone=True)
        t.add_copy(a)
        t.add_copy(b)
        b.killed = True
        assert t.live_copies() == [a]
        assert t.num_live_copies == 1

    def test_complete(self):
        t = make_task()
        t.add_copy(TaskCopy(t, 0, 0.0, 5.0, is_clone=False))
        t.complete(5.0)
        assert t.state is TaskState.FINISHED
        assert t.finish_time == 5.0

    def test_complete_twice_raises(self):
        t = make_task()
        t.complete(1.0)
        with pytest.raises(RuntimeError):
            t.complete(2.0)

    def test_add_copy_after_finish_raises(self):
        t = make_task()
        t.complete(1.0)
        with pytest.raises(RuntimeError):
            t.add_copy(TaskCopy(t, 0, 1.0, 1.0, is_clone=True))

    def test_demand_comes_from_phase(self):
        t = make_task()
        assert t.demand == Resources.of(1, 2)


class TestLedger:
    def _raced(self):
        """A task whose clone (launched second, at t=1) beat the
        original: the original was killed at t=5 after running 5 s."""
        t = make_task()
        orig = TaskCopy(t, 0, 0.0, 10.0, is_clone=False)
        clone = TaskCopy(t, 1, 1.0, 4.0, is_clone=True)
        t.add_copy(orig)
        t.add_copy(clone)
        clone.finished = True
        orig.killed = True
        orig.duration = 5.0
        t.complete(5.0)
        return t, orig, clone

    def test_complete_writes_ledger(self):
        t, orig, clone = self._raced()
        assert t.ledger == TaskLedger(
            finish_time=5.0,
            start_time=0.0,
            winner_duration=4.0,
            clones=1,
            durations=(5.0, 4.0),  # launch order, the loser truncated
        )
        # Until the fold the copies stay readable beside the ledger.
        assert t.copies == [orig, clone]

    def test_fold_drops_copies_ledger_answers(self):
        t, _, _ = self._raced()
        t.fold()
        assert t.copies == ()
        assert (t.start_time, t.finish_time) == (0.0, 5.0)
        assert t.num_copies == 2 and t.has_run
        assert t.live_copies() == []

    def test_fold_before_completion_raises(self):
        t = make_task()
        t.add_copy(TaskCopy(t, 0, 0.0, 5.0, is_clone=False))
        with pytest.raises(RuntimeError, match="fold before completion"):
            t.fold()
        assert t.ledger is None and t.finish_time is None

    def test_completed_without_a_copy(self):
        t = make_task()
        t.complete(3.0)
        t.fold()
        assert t.ledger == TaskLedger(3.0, None, None, 0, ())
        assert t.start_time is None and not t.has_run
