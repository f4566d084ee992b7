"""Event types and the priority queue driving the simulation.

The paper models a time-slotted system (Sec. 3); the engine is
event-driven with an optional slot quantization of scheduling decisions
(Sec. 6.3 uses 5-second slots).  The workload event kinds:

* ``JOB_ARRIVAL`` — job j becomes known to the scheduler at a_j;
* ``COPY_FINISH`` — a task copy reaches its sampled duration;
* ``SCHEDULE_TICK`` — a slot boundary at which scheduling decisions are
  made (only used when the engine runs in slotted mode).

The fault-injection subsystem (:mod:`repro.faults`) adds its own kinds,
scheduled by the seeded failure processes:

* ``COPY_FAIL`` — one task copy dies mid-run (its server stays up);
* ``SERVER_FAIL`` / ``SERVER_RECOVER`` — a server crashes (killing every
  resident copy) and later rejoins with full capacity;
* ``SERVER_SLOW_START`` / ``SERVER_SLOW_END`` — a transient background-
  load window multiplying the server's slowdown factor.

Ties at equal timestamps are broken so state-changing events (finishes,
arrivals, faults) are processed before the tick that should observe
them.  The relative order of the original three kinds (COPY_FINISH <
JOB_ARRIVAL < SCHEDULE_TICK) is preserved, so runs without fault
injection break ties exactly as they did before the fault kinds existed.

Drain API
---------

The queue is the single source of event ordering; simulation logic must
consume it only through :meth:`EventQueue.pop`, :meth:`EventQueue.pop_batch`
and the :meth:`EventQueue.peek` family (repro-lint RL008 rejects direct
``_heap`` iteration elsewhere).  ``pop_batch`` drains every event sharing
the earliest timestamp in one call, preserving the exact (time, kind,
seq) order ``pop`` would produce — the engine uses it to coalesce
same-instant capacity releases into a single mirror delta.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from typing import Any, NamedTuple, Optional

__all__ = ["EventKind", "BASE_EVENT_KINDS", "Event", "EventQueue"]


class EventKind(enum.IntEnum):
    # Numeric order = processing priority at equal timestamps.  A copy
    # finishing exactly when it would fail counts as finished (FINISH
    # precedes FAIL); every fault lands before the tick observing it.
    COPY_FINISH = 0
    JOB_ARRIVAL = 1
    COPY_FAIL = 2
    SERVER_FAIL = 3
    SERVER_RECOVER = 4
    SERVER_SLOW_START = 5
    SERVER_SLOW_END = 6
    SCHEDULE_TICK = 7


#: The kinds every simulation uses; the remaining members only appear
#: when a :class:`repro.faults.FaultInjector` is attached to the engine.
BASE_EVENT_KINDS = (
    EventKind.COPY_FINISH,
    EventKind.JOB_ARRIVAL,
    EventKind.SCHEDULE_TICK,
)


class Event(NamedTuple):
    time: float
    kind: EventKind
    seq: int
    payload: Any


class EventQueue:
    """A heap of events with stable FIFO tie-breaking.

    The heap holds the events themselves: an :class:`Event` is a tuple
    ordered by ``(time, kind, seq)``, so comparison is C-speed and
    short-circuits on ``time``, and a queued event costs one tuple.
    ``seq`` is unique, so ``payload`` is never compared.
    """

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = itertools.count()

    def push(self, time: float, kind: EventKind, payload: Any = None) -> Event:
        if not time >= 0:  # NaN too: the heap cannot order it
            raise ValueError(f"event time must be non-negative, got {time}")
        ev = Event(time, kind, next(self._seq), payload)
        heapq.heappush(self._heap, ev)
        return ev

    def pop(self) -> Event:
        if not self._heap:
            raise IndexError("pop from empty event queue")
        return heapq.heappop(self._heap)

    def pop_batch(self) -> list[Event]:
        """Pop every event sharing the earliest timestamp, in pop order.

        Equivalent to repeated :meth:`pop` while :meth:`peek_time` equals
        the first popped event's time; callers that push new events while
        processing a batch must re-check :meth:`peek_key` against the
        remaining batch entries to preserve exact per-event order (the
        engine's drain loop does).
        """
        if not self._heap:
            raise IndexError("pop from empty event queue")
        heap = self._heap
        t = heap[0][0]
        batch = [heapq.heappop(heap)]
        while heap and heap[0][0] == t:
            batch.append(heapq.heappop(heap))
        return batch

    def peek(self) -> Optional[Event]:
        return self._heap[0] if self._heap else None

    def peek_time(self) -> Optional[float]:
        """Earliest pending timestamp, or ``None`` when empty."""
        return self._heap[0][0] if self._heap else None

    def peek_key(self) -> Optional[tuple[float, int, int]]:
        """The (time, kind, seq) ordering key of the head event."""
        return self._heap[0][:3] if self._heap else None

    def has_kind(self, kind: EventKind) -> bool:
        """Whether any pending event has the given kind.

        Part of the drain API so callers need not touch ``_heap``
        (RL008); the engine uses it to decide whether a slotted
        session's tick chain is still armed before re-arming it on an
        online ingest.
        """
        return any(entry[1] == kind for entry in self._heap)

    def payloads(self, kind: EventKind) -> list[Any]:
        """The payloads of the pending events of one kind, in no set
        order (the identity gate reads the queued arrivals' jobs)."""
        return [entry[3] for entry in self._heap if entry[1] == kind]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
