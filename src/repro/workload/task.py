"""Tasks and task copies (originals and clones).

A :class:`Task` is the unit of scheduling; launching it on a server
creates a :class:`TaskCopy`.  Cloning launches additional copies of the
same task — the paper's semantics are *first-copy-wins*: the task
finishes when its earliest copy finishes and the remaining copies are
killed (Secs. 3 and 5).
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, Optional

from repro.resources import Resources

if TYPE_CHECKING:  # pragma: no cover
    from repro.workload.phase import Phase

__all__ = ["Task", "TaskCopy", "TaskState"]

_copy_counter = itertools.count()


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

    def __hash__(self) -> int:
        return self.copy_uid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "clone" if self.is_clone else "orig"
        return (
            f"TaskCopy({self.task.uid}/{kind}@{self.server_id}, "
            f"t={self.start_time:g}+{self.duration:g})"
        )


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
        "finish_time",
        "preferred_servers",
        "fault_losses",
        "_live_count",
    )

    def __init__(self, phase: "Phase", index: int) -> None:
        self.phase = phase
        self.index = index
        #: Every copy launched, in launch order: the shared empty tuple
        #: until the first launch makes it a list, so building a task
        #: allocates no list for the garbage collector to track.
        self.copies: list[TaskCopy] | tuple[()] = ()
        self.state = _PENDING
        self.finish_time: Optional[float] = None
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
    def has_run(self) -> bool:
        return bool(self.copies)

    @property
    def start_time(self) -> Optional[float]:
        """When the first copy was launched (None when pending)."""
        if not self.copies:
            return None
        return min(c.start_time for c in self.copies)

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
        """Mark the task finished at ``time`` (first copy won)."""
        if self.state is TaskState.FINISHED:
            raise RuntimeError(f"task {self.uid} finished twice")
        if self.state is TaskState.PENDING:
            self.phase.task_left_pending()
        self.state = TaskState.FINISHED
        self.finish_time = time
        self.phase.task_finished()

    def __hash__(self) -> int:
        return hash(self.uid)

    def __eq__(self, other: object) -> bool:
        return self is other

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Task{self.uid}[{self.state.value}, copies={len(self.copies)}]"
