"""Unit tests for the event queue."""

import pytest

from repro.sim.events import EventKind, EventQueue


class TestEventQueue:
    def test_time_ordering(self):
        q = EventQueue()
        q.push(5.0, EventKind.JOB_ARRIVAL)
        q.push(1.0, EventKind.JOB_ARRIVAL)
        q.push(3.0, EventKind.JOB_ARRIVAL)
        assert [q.pop().time for _ in range(3)] == [1.0, 3.0, 5.0]

    def test_kind_priority_at_equal_time(self):
        """Finishes before arrivals before ticks at the same timestamp."""
        q = EventQueue()
        q.push(2.0, EventKind.SCHEDULE_TICK)
        q.push(2.0, EventKind.JOB_ARRIVAL)
        q.push(2.0, EventKind.COPY_FINISH)
        kinds = [q.pop().kind for _ in range(3)]
        assert kinds == [
            EventKind.COPY_FINISH,
            EventKind.JOB_ARRIVAL,
            EventKind.SCHEDULE_TICK,
        ]

    def test_fifo_within_same_time_and_kind(self):
        q = EventQueue()
        a = q.push(1.0, EventKind.COPY_FINISH, "a")
        b = q.push(1.0, EventKind.COPY_FINISH, "b")
        assert q.pop().payload == "a"
        assert q.pop().payload == "b"
        assert a.seq < b.seq

    def test_peek_does_not_pop(self):
        q = EventQueue()
        q.push(1.0, EventKind.JOB_ARRIVAL)
        assert q.peek() is not None
        assert len(q) == 1

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1.0, EventKind.JOB_ARRIVAL)

    def test_nan_time_rejected(self):
        # heapq cannot order NaN: every comparison with it is false.
        with pytest.raises(ValueError, match="non-negative"):
            EventQueue().push(float("nan"), EventKind.SERVER_RECOVER, 0)

    def test_bool_and_len(self):
        q = EventQueue()
        assert not q and len(q) == 0
        q.push(0.0, EventKind.JOB_ARRIVAL)
        assert q and len(q) == 1
