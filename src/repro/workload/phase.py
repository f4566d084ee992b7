"""A job phase: a set of parallel tasks with shared statistics.

Phase φ_j^k of the paper has n_j^k identical-statistics tasks, a per-task
demand (c_j^k, m_j^k), an execution-time mean θ_j^k and standard
deviation σ_j^k (known on arrival, Sec. 3), plus DAG parents P(φ_j^k).

A task has no state of its own until a copy of it launches, so a phase
holds one slot per task and builds the slot's :class:`Task` the first
time :meth:`Phase.task` asks for it (DESIGN.md §5.6).  Only this module
reads the slots; everything else asks for a task by index, for the
pending indices or for the tasks built so far.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.resources import Resources
from repro.workload.distributions import Deterministic, ExecutionTimeDistribution
from repro.workload.speedup import NoSpeedup, ParetoSpeedup, SpeedupFunction
from repro.workload.task import Task, TaskState

#: Module globals: Python 3.11 resolves an enum member through a
#: descriptor, about ten times slower (see ``repro.workload.task``).
_PENDING = TaskState.PENDING
_RUNNING = TaskState.RUNNING

if TYPE_CHECKING:  # pragma: no cover
    from repro.workload.job import Job

__all__ = ["Phase"]


class Phase:
    """One phase of a DAG job."""

    __slots__ = (
        "job",
        "index",
        "name",
        "demand",
        "distribution",
        "_speedup",
        "parents",
        "_tasks",
        "start_delay",
        "_finished_count",
        "_pending_count",
    )

    def __init__(
        self,
        index: int,
        num_tasks: int,
        demand: Resources,
        distribution: ExecutionTimeDistribution,
        *,
        name: str | None = None,
        parents: tuple[int, ...] = (),
        speedup: SpeedupFunction | None = None,
        start_delay: float = 0.0,
    ) -> None:
        # True and 2.5 are not task counts (range() accepts the first).
        if type(num_tasks) is bool or not isinstance(num_tasks, int):
            raise ValueError(f"num_tasks must be an integer, got {num_tasks!r}")
        if num_tasks < 1:
            raise ValueError(f"phase needs at least one task, got {num_tasks}")
        if demand.cpu < 0 or demand.mem < 0:
            field = "cpu" if demand.cpu < 0 else "mem"
            value = getattr(demand, field)
            raise ValueError(f"demand {field} must be non-negative, got {value!r}")
        if demand.cpu <= 0 and demand.mem <= 0:
            raise ValueError("phase tasks must demand some resource")
        if type(parents) is not tuple:
            parents = tuple(parents)
        for p in parents:
            # The DAG helpers' index-ordered fast path relies on these two.
            if type(p) is bool or not isinstance(p, int):
                raise ValueError(f"parent {p!r} must be an integer phase index")
            if p >= index:
                raise ValueError("parents must precede the phase (indices < own index)")
        if start_delay < 0:
            raise ValueError(f"start_delay must be non-negative, got {start_delay}")
        self.job: Optional["Job"] = None  # set by Job.__init__
        self.index = index
        self.name = name if name is not None else f"phase{index}"
        self.demand = demand
        self.distribution = distribution
        self.parents = tuple(sorted(set(parents))) if len(parents) > 1 else parents
        #: Seconds after the last parent finishes before this phase's
        #: tasks may launch — models the shuffle/data-transfer gap
        #: between dependent phases (0 = instantaneous handoff).
        self.start_delay = float(start_delay)
        # One slot per task: None until task(i) first builds it.  An
        # unbuilt slot is a pending task that never launched.
        self._tasks: list[Task | None] = [None] * num_tasks
        # Finished- and pending-task counters (maintained by
        # Task.add_copy/Task.complete) — phase readiness and the
        # scheduler's pending scans are checked constantly, so neither
        # may be a scan.
        self._finished_count = 0
        self._pending_count = num_tasks
        # None until the default h(r) is first read (see ``speedup``).
        self._speedup = speedup

    # ------------------------------------------------------------------
    # Statistics (θ, σ, effective processing time)
    # ------------------------------------------------------------------
    @property
    def theta(self) -> float:
        """θ_j^k — mean task execution time."""
        return self.distribution.mean

    @property
    def sigma(self) -> float:
        """σ_j^k — standard deviation of task execution time."""
        return self.distribution.std

    @property
    def speedup(self) -> SpeedupFunction:
        """h(r) of Eq. (3): the one given at construction, else the
        default fitted to (θ, σ) on first read — only the category-target
        cloning rule reads it, so most phases never pay for the fit."""
        h = self._speedup
        if h is None:
            h = self._speedup = _default_speedup(self.distribution)
        return h

    def effective_time(self, r: float) -> float:
        """e_j^k = θ + r·σ (Sec. 5): the variance-penalized phase length.

        ``r`` is DollyMP's deviation weight (the experiments use r = 1.5).
        """
        return self.theta + r * self.sigma

    # ------------------------------------------------------------------
    # Progress
    # ------------------------------------------------------------------
    @property
    def num_tasks(self) -> int:
        return len(self._tasks)

    def task(self, i: int) -> Task:
        """The task at index ``i``, built on the first call and kept, so
        every later call returns the same object.  Schedulers call this
        only for the task they launch."""
        if i < 0:
            raise IndexError(f"phase {self.name}: task index {i} out of range")
        slots = self._tasks
        t = slots[i]  # IndexError past the end
        if t is None:
            t = slots[i] = Task(self, i)
        return t

    def pending_indices(self) -> list[int]:
        """Indices of the pending tasks in ascending order, building no
        task: an unbuilt slot is pending."""
        slots = self._tasks
        n = self._pending_count
        if n == len(slots):
            return list(range(n))
        if n == 0:
            return []
        return [i for i, t in enumerate(slots) if t is None or t.state is _PENDING]

    def built_tasks(self) -> list[Task]:
        """The tasks built so far, in index order — every task that ever
        launched among them; a finished phase has built all of its tasks."""
        return [t for t in self._tasks if t is not None]

    def running_tasks(self) -> list[Task]:
        return [t for t in self._tasks if t is not None and t.state is _RUNNING]

    def task_finished(self) -> None:
        """Hook called by :meth:`Task.complete`."""
        self._finished_count += 1
        if self._finished_count > len(self._tasks):
            raise RuntimeError(f"phase {self.name}: finished-count overflow")

    def task_left_pending(self) -> None:
        """Hook called by :meth:`Task.add_copy`/:meth:`Task.complete`
        when a task leaves the PENDING state.  (A task re-enters it only
        through :meth:`Task.requeue`, when a fault orphaned it.)"""
        self._pending_count -= 1
        if self._pending_count < 0:
            raise RuntimeError(f"phase {self.name}: pending-count underflow")

    def task_requeued(self) -> None:
        """Hook called by :meth:`Task.requeue`: a fault-orphaned task
        re-entered the PENDING state."""
        self._pending_count += 1
        if self._pending_count > len(self._tasks):
            raise RuntimeError(f"phase {self.name}: pending-count overflow")

    @property
    def num_unfinished(self) -> int:
        """n_j^k(t) of Eq. (16)."""
        return len(self._tasks) - self._finished_count

    @property
    def num_pending(self) -> int:
        """Tasks with no copy launched yet — O(1), not a scan."""
        return self._pending_count

    @property
    def num_running(self) -> int:
        """Tasks launched but not finished — O(1), not a scan."""
        return len(self._tasks) - self._finished_count - self._pending_count

    @property
    def is_finished(self) -> bool:
        return self._finished_count == len(self._tasks)

    def finish_time(self) -> Optional[float]:
        """λ_j^k — when the last task finished, or None if unfinished."""
        if not self.is_finished:
            return None
        # Every task finished through a launched copy, so all are built.
        return max(t.finish_time for t in self.built_tasks())  # type: ignore[type-var]

    def release(self) -> None:
        """Drop the slots of a finished job's phase (:meth:`Job.release`),
        breaking the phase ↔ task reference cycles."""
        self._tasks = []

    # One tuple of the slots, like TaskCopy's.
    def __getstate__(self):
        return (
            self.job,
            self.index,
            self.name,
            self.demand,
            self.distribution,
            self._speedup,
            self.parents,
            self._tasks,
            self.start_delay,
            self._finished_count,
            self._pending_count,
        )

    def __setstate__(self, state) -> None:
        (
            self.job,
            self.index,
            self.name,
            self.demand,
            self.distribution,
            self._speedup,
            self.parents,
            self._tasks,
            self.start_delay,
            self._finished_count,
            self._pending_count,
        ) = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        jid = self.job.job_id if self.job is not None else "?"
        return f"Phase(j={jid}, k={self.index}, n={self.num_tasks}, θ={self.theta:g})"


def _default_speedup(dist: ExecutionTimeDistribution) -> SpeedupFunction:
    """Derive the speedup function the scheduler should assume.

    Per Sec. 3, DollyMP fits a Pareto to the reported (θ, σ) — even when
    the true distribution is not Pareto — and uses Eq. (3).  Degenerate
    (zero-variance) phases get :class:`NoSpeedup`, matching the fact that
    cloning a deterministic task cannot help.
    """
    if isinstance(dist, Deterministic) or dist.std == 0:
        return NoSpeedup()
    std = dist.std
    if std == float("inf"):
        # Heavy tail with infinite variance: fit with cv=2 as a pragmatic
        # stand-in (α → small, speedup bound large).
        std = 2.0 * dist.mean
    return ParetoSpeedup.from_moments(dist.mean, std)
