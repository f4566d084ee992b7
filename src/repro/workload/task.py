"""Tasks and task copies (originals and clones).

A :class:`Task` is the unit of scheduling; launching it on a server
creates a :class:`TaskCopy`.  Cloning launches additional copies of the
same task — the paper's semantics are *first-copy-wins*: the task
finishes when its earliest copy finishes and the remaining copies are
killed (Secs. 3 and 5).

After that a finished task's copies matter only for the time they
consumed, so completing a task writes a :class:`TaskLedger` and the
engine drops the copy list once ``on_task_finish`` has read it
(DESIGN.md §5.8).
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, NamedTuple, Optional

from repro.resources import Resources

if TYPE_CHECKING:  # pragma: no cover
    from repro.workload.phase import Phase

__all__ = ["Task", "TaskCopy", "TaskLedger", "TaskState"]

# Copy uids label copies for messages and hashing.  The counter carries
# over from one run to the next in a process and restarts at 0 in a new
# one, so a restored session's new copies can reuse a restored copy's
# uid: nothing decided reads it, and checks tell copies apart by identity.
_copy_counter = itertools.count()  # repro-lint: ignore[RL014]


class TaskState(enum.Enum):
    PENDING = "pending"      # no copy launched yet
    RUNNING = "running"      # >= 1 live copy
    FINISHED = "finished"    # first copy completed


class TaskCopy:
    """One execution attempt of a task on a specific server."""

    __slots__ = (
        "copy_uid",
        "task",
        "server_id",
        "start_time",
        "duration",
        "is_clone",
        "_killed",
        "_finished",
    )

    def __init__(
        self,
        task: "Task",
        server_id: int,
        start_time: float,
        duration: float,
        *,
        is_clone: bool,
    ) -> None:
        if duration <= 0:
            raise ValueError(f"copy duration must be positive, got {duration}")
        self.copy_uid = next(_copy_counter)
        self.task = task
        self.server_id = server_id
        self.start_time = float(start_time)
        self.duration = float(duration)
        self.is_clone = is_clone
        self._killed = False
        self._finished = False

    @property
    def finish_time(self) -> float:
        return self.start_time + self.duration

    @property
    def live(self) -> bool:
        return not self._killed and not self._finished

    # killed/finished are setters so the owning task's live-copy counter
    # (read on every cloning decision) stays in sync automatically.
    @property
    def killed(self) -> bool:
        return self._killed

    @killed.setter
    def killed(self, value: bool) -> None:
        if value and self.live:
            self.task._live_count -= 1
        self._killed = value

    @property
    def finished(self) -> bool:
        return self._finished

    @finished.setter
    def finished(self, value: bool) -> None:
        if value and self.live:
            self.task._live_count -= 1
        self._finished = value

    # Checkpoints pickle the slots as one tuple, in ``__slots__`` order
    # (DESIGN.md §5.8): the default state is a ``{slot: value}`` dict per
    # object, which the pickler's memo keeps alive until the dump ends.
    def __getstate__(self):
        return (
            self.copy_uid,
            self.task,
            self.server_id,
            self.start_time,
            self.duration,
            self.is_clone,
            self._killed,
            self._finished,
        )

    def __setstate__(self, state) -> None:
        (
            self.copy_uid,
            self.task,
            self.server_id,
            self.start_time,
            self.duration,
            self.is_clone,
            self._killed,
            self._finished,
        ) = state

    def __hash__(self) -> int:
        return self.copy_uid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "clone" if self.is_clone else "orig"
        return (
            f"TaskCopy({self.task.uid}/{kind}@{self.server_id}, "
            f"t={self.start_time:g}+{self.duration:g})"
        )


class TaskLedger(NamedTuple):
    """What a finished task keeps of its copies.

    ``durations`` holds every copy's charged duration in launch order
    (a killed copy's is truncated to the time it ran), so per-job usage
    sums the same products in the same order as a walk over the copies.
    ``start_time`` is the earliest copy start and ``winner_duration``
    the duration of the copy that finished; both are None, and
    ``durations`` empty, for a task completed without a copy.
    """

    finish_time: float
    start_time: Optional[float]
    winner_duration: Optional[float]
    clones: int
    durations: tuple[float, ...]


#: Read once per task built: Python 3.11 resolves ``TaskState.PENDING``
#: through a descriptor, about ten times slower than a module global.
_PENDING = TaskState.PENDING


class Task:
    """A single task of a job phase.

    Tasks of a phase share the phase's resource demand and execution-time
    statistics (Sec. 3); each carries its own copies and completion state.
    """

    __slots__ = (
        "phase",
        "index",
        "copies",
        "state",
        "ledger",
        "preferred_servers",
        "fault_losses",
        "_live_count",
    )

    def __init__(self, phase: "Phase", index: int) -> None:
        self.phase = phase
        self.index = index
        #: Every copy launched, in launch order: the shared empty tuple
        #: until the first launch makes it a list, so building a task
        #: allocates no list for the garbage collector to track, and
        #: again once :meth:`fold` drops the list of a finished task.
        self.copies: list[TaskCopy] | tuple[()] = ()
        self.state = _PENDING
        #: Written by :meth:`complete`; None while the task is unfinished.
        self.ledger: Optional[TaskLedger] = None
        #: Servers holding this task's input replicas (data locality);
        #: empty means unconstrained.
        self.preferred_servers: tuple[int, ...] = ()
        #: Copies lost to injected faults (server crashes / copy
        #: failures).  Lifetime copy caps subtract this, so a task that
        #: lost work to a fault may be relaunched without tripping the
        #: ``max_copies_per_task`` guard.
        self.fault_losses = 0
        # Live-copy counter, kept in sync by add_copy/copy_ended — read
        # on every cloning decision, so it must not be a scan.
        self._live_count = 0

    # ------------------------------------------------------------------
    @property
    def uid(self) -> tuple[int, int, int]:
        """(job_id, phase_index, task_index) — globally unique."""
        return (self.phase.job.job_id, self.phase.index, self.index)

    @property
    def demand(self) -> Resources:
        return self.phase.demand

    @property
    def job(self):
        return self.phase.job

    # ------------------------------------------------------------------
    def live_copies(self) -> list[TaskCopy]:
        return [c for c in self.copies if c.live]

    @property
    def num_live_copies(self) -> int:
        return self._live_count

    @property
    def num_copies(self) -> int:
        """Copies launched so far, live or dead; a finished task counts
        the ones its ledger folded."""
        ledger = self.ledger
        return len(self.copies if ledger is None else ledger.durations)

    @property
    def has_run(self) -> bool:
        return self.num_copies > 0

    @property
    def start_time(self) -> Optional[float]:
        """When the first copy was launched (None when pending)."""
        ledger = self.ledger
        if ledger is not None:
            return ledger.start_time
        if not self.copies:
            return None
        return min(c.start_time for c in self.copies)

    @property
    def finish_time(self) -> Optional[float]:
        """When the first copy finished (None while unfinished)."""
        ledger = self.ledger
        return None if ledger is None else ledger.finish_time

    def add_copy(self, copy: TaskCopy) -> None:
        if self.state is TaskState.FINISHED:
            raise RuntimeError(f"task {self.uid} already finished")
        copies = self.copies
        if not copies:
            # Grown by append from empty (four slots): a [copy] literal
            # holds one and reallocates to eight at the first clone.
            copies = self.copies = []
        copies.append(copy)
        self._live_count += 1
        if self.state is TaskState.PENDING:
            self.phase.task_left_pending()
        self.state = TaskState.RUNNING

    def requeue(self) -> None:
        """Return an orphaned task to PENDING (fault recovery).

        Called by the engine when a fault killed the task's last live
        copy: the task re-enters the pending pool and schedulers place
        it again like any never-launched task.  Dead copies stay in
        ``copies`` — their occupancy already counted toward the run's
        resource usage.
        """
        if self.state is not TaskState.RUNNING:
            raise RuntimeError(
                f"task {self.uid}: cannot requeue from state {self.state.value}"
            )
        if self._live_count != 0:
            raise RuntimeError(
                f"task {self.uid}: requeue with {self._live_count} live copies"
            )
        self.state = TaskState.PENDING
        self.phase.task_requeued()

    def complete(self, time: float) -> None:
        """Mark the task finished at ``time`` (first copy won) and write
        its ledger.  Every copy is final by then: the winner finished
        and the rest were killed, so no duration changes again."""
        if self.state is TaskState.FINISHED:
            raise RuntimeError(f"task {self.uid} finished twice")
        if self.state is TaskState.PENDING:
            self.phase.task_left_pending()
        self.state = TaskState.FINISHED
        copies = self.copies
        self.ledger = TaskLedger(
            time,
            min((c.start_time for c in copies), default=None),
            next((c.duration for c in copies if c.finished), None),
            sum(1 for c in copies if c.is_clone),
            tuple([c.duration for c in copies]),
        )
        self.phase.task_finished()

    def fold(self) -> None:
        """Drop a finished task's copy list; its ledger stands in for it.

        The engine calls this once ``on_task_finish`` has run, so that
        hook is the last reader of the copies themselves.  Dropping the
        list also breaks the task ↔ copy reference cycle: a killed copy
        still waiting for its stale finish event is freed by reference
        counting when the event is popped.
        """
        if self.ledger is None:
            raise RuntimeError(f"task {self.uid}: fold before completion")
        self.copies = ()

    # One tuple of the slots, like TaskCopy's.
    def __getstate__(self):
        return (
            self.phase,
            self.index,
            self.copies,
            self.state,
            self.ledger,
            self.preferred_servers,
            self.fault_losses,
            self._live_count,
        )

    def __setstate__(self, state) -> None:
        (
            self.phase,
            self.index,
            self.copies,
            self.state,
            self.ledger,
            self.preferred_servers,
            self.fault_losses,
            self._live_count,
        ) = state

    def __hash__(self) -> int:
        return hash(self.uid)

    def __eq__(self, other: object) -> bool:
        return self is other

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Task{self.uid}[{self.state.value}, copies={self.num_copies}]"
