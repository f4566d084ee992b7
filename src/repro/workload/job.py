"""A DAG job: arrival time + dependent phases of parallel tasks.

A job read from a trace is known by its spec until it arrives (Sec. 3:
a job's phases and their statistics become known at a_j), so
:meth:`Job.from_spec` makes a job whose phase graph is built on the
first read of ``phases``, which the engine makes when the job arrives
(DESIGN.md §5.6).  :meth:`Job.phase_shapes`, ``num_phases`` and
``num_tasks`` answer from the spec without building it.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from repro.resources import EPS
from repro.workload.dag import critical_path_length, validate_dag
from repro.workload.phase import Phase
from repro.workload.task import Task

if TYPE_CHECKING:  # pragma: no cover
    from repro.resources import Resources
    from repro.workload.google_trace import PhaseSpec, TraceJobSpec

__all__ = ["Job", "PhaseShape"]

# Ids for jobs built without one (tests, the quickstart).  They carry over
# from one run to the next in a process, but rise in build order, and
# ids decide only by their order; workloads that must reproduce their
# ids (the CLI, traces, the benchmarks, the identity matrix) pass them.
_job_counter = itertools.count()  # repro-lint: ignore[RL014]


def fresh_job_id() -> int:
    return next(_job_counter)


class PhaseShape(NamedTuple):
    """A built phase's task count and per-task demand (the fields a
    ``PhaseSpec`` gives a job not built yet)."""

    num_tasks: int
    cpu: float
    mem: float


class Job:
    """Job *j* of the paper: arrives at a_j with phase DAG G_j (Sec. 3)."""

    __slots__ = (
        "job_id",
        "name",
        "arrival_time",
        "phases",
        "finish_time",
        "user",
        "_spec",
        "_demands",
    )

    def __init__(
        self,
        phases: Sequence[Phase],
        *,
        arrival_time: float = 0.0,
        name: str = "job",
        job_id: int | None = None,
        user: str = "default",
    ) -> None:
        self.job_id = job_id if job_id is not None else fresh_job_id()
        self.name = name
        self.arrival_time = float(arrival_time)
        self.finish_time: Optional[float] = None
        self.user = user
        self._spec: TraceJobSpec | None = None
        self._demands: dict[tuple[float, float], Resources] | None = None
        self._attach(phases)

    @classmethod
    def from_spec(
        cls,
        spec: "TraceJobSpec",
        demands: dict[tuple[float, float], "Resources"] | None = None,
    ) -> "Job":
        """A job known by its validated spec: the first read of
        ``phases`` builds the graph with ``spec.build_phases(demands)``
        and keeps it, so it is the graph an eager build gives.  Jobs
        given one ``demands`` map share a vector per distinct demand."""
        job = cls.__new__(cls)
        job.job_id = spec.job_id if spec.job_id is not None else fresh_job_id()
        job.name = spec.name
        job.arrival_time = float(spec.arrival_time)
        job.finish_time = None
        job.user = "default"
        job._spec = spec
        job._demands = demands
        return job

    def _attach(self, phases: Sequence[Phase]) -> None:
        if not phases:
            raise ValueError("a job needs at least one phase")
        if [p.index for p in phases] != list(range(len(phases))):
            raise ValueError("phase indices must be 0..k-1 in order")
        validate_dag([p.parents for p in phases])
        self.phases: list[Phase] = list(phases)
        for p in self.phases:
            p.job = self

    def __getattr__(self, name: str):
        # Reached only for a slot that holds no value: ``phases`` of a
        # job made by from_spec, built here once; later reads are plain
        # slot reads.
        if name == "phases" and self._spec is not None:
            self._attach(self._spec.build_phases(self._demands))
            self._spec = self._demands = None
            return self.phases
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    @property
    def built(self) -> bool:
        """Whether the phase graph exists (a job made by
        :meth:`from_spec` builds it on the first read of ``phases``)."""
        return self._spec is None

    def build(self) -> list[Phase]:
        """The phase graph, built now if the job is known by its spec."""
        return self.phases

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def phase_shapes(self) -> Sequence[PhaseShape | PhaseSpec]:
        """One row per phase in index order, each with ``num_tasks``,
        ``cpu`` and ``mem`` equal to the built phase's.  A job not built
        yet answers with its spec's own ``PhaseSpec`` rows, so reading
        them builds and allocates nothing; a built job with one
        :class:`PhaseShape` per phase."""
        spec = self._spec
        if spec is not None:
            return spec.phases
        return [PhaseShape(p.num_tasks, p.demand.cpu, p.demand.mem) for p in self.phases]

    # Spec rows and phases both carry ``num_tasks``: neither count
    # builds the job.
    @property
    def num_phases(self) -> int:
        spec = self._spec
        return len(self.phases if spec is None else spec.phases)

    @property
    def num_tasks(self) -> int:
        spec = self._spec
        return sum(p.num_tasks for p in (self.phases if spec is None else spec.phases))

    def parents_list(self) -> list[tuple[int, ...]]:
        return [p.parents for p in self.phases]

    # ------------------------------------------------------------------
    # Progress
    # ------------------------------------------------------------------
    def phase_ready(self, phase: Phase, now: float | None = None) -> bool:
        """Eq. (7): a phase may run only once all parent phases finished
        (plus its shuffle/start delay, when a current time is given)."""
        parents = phase.parents
        if parents and not all(self.phases[p].is_finished for p in parents):
            return False
        if now is None or phase.start_delay == 0.0:
            return True
        ready_at = self.phase_ready_time(phase)
        return ready_at is not None and now >= ready_at - EPS

    def phase_ready_time(self, phase: Phase) -> Optional[float]:
        """Earliest time the phase may launch: the last parent finish
        plus the phase's start delay (arrival time for root phases).
        None while a parent is unfinished."""
        latest = self.arrival_time
        for p in phase.parents:
            done = self.phases[p].finish_time()
            if done is None:
                return None
            latest = max(latest, done)
        return latest + phase.start_delay

    def ready_phases(self, now: float | None = None) -> list[Phase]:
        return [
            p
            for p in self.phases
            if not p.is_finished and self.phase_ready(p, now)
        ]

    def ready_tasks(self, now: float | None = None) -> list[Task]:
        """Pending tasks whose phase dependencies are satisfied, each
        built by this call (schedulers launch what they build and ask
        phases for pending indices instead)."""
        return [p.task(i) for p in self.ready_phases(now) for i in p.pending_indices()]

    def first_ready_phase(self) -> Optional[Phase]:
        """The lowest-index ready phase with pending tasks (Alg. 2 uses
        "the first available phase that can be scheduled at present")."""
        return next((p for p in self.ready_phases() if p.num_pending), None)

    def running_tasks(self) -> list[Task]:
        out: list[Task] = []
        for p in self.phases:
            out.extend(p.running_tasks())
        return out

    def remaining_phases(self) -> list[Phase]:
        """Φ_j(t) of Eq. (16): phases not yet finished."""
        return [p for p in self.phases if not p.is_finished]

    @property
    def is_finished(self) -> bool:
        return all(p.is_finished for p in self.phases)

    def mark_finished_if_done(self, time: float) -> bool:
        """Record f_j = λ_j^{π_j} (Eq. 8) once every phase completed."""
        if self.finish_time is None and self.is_finished:
            self.finish_time = time
            return True
        return False

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    @property
    def flowtime(self) -> Optional[float]:
        """f_j − a_j, the objective term of (OPT)."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.arrival_time

    def first_start_time(self) -> Optional[float]:
        """Earliest copy start over the job's tasks, finished tasks
        answering from their ledgers."""
        starts = [
            t.start_time
            for p in self.phases
            for t in p.built_tasks()
            if t.start_time is not None
        ]
        return min(starts) if starts else None

    @property
    def running_time(self) -> Optional[float]:
        """Execution time: from first task launch to job completion — the
        paper's "running time" metric (Figs. 1, 4b, 5)."""
        if self.finish_time is None:
            return None
        start = self.first_start_time()
        if start is None:
            return None
        return self.finish_time - start

    def resource_usage(self) -> float:
        """Σ over copies of (normalized cpu+mem demand) × duration — the
        resource-usage metric of Fig. 8(b) (normalization applied by the
        caller, which knows the cluster totals)."""
        total = 0.0
        for p in self.phases:
            per_second = p.demand.cpu + p.demand.mem
            for t in p.built_tasks():
                ledger = t.ledger
                if ledger is not None:
                    for d in ledger.durations:
                        total += per_second * d
                else:
                    for c in t.copies:
                        total += per_second * c.duration
        return total

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def released(self) -> bool:
        """Whether :meth:`release` dropped the phase/task graph (a job
        is built with at least one phase, so only a release empties it)."""
        return self._spec is None and not self.phases

    def release(self) -> None:
        """Drop the phase/task graph of a finished job.

        ``Job`` ↔ ``Phase`` ↔ ``Task`` are reference cycles, which only
        the cyclic collector frees, and a job built at set-up sits in its
        oldest generation long before it finishes.  Emptying the phase
        list and each phase's task slots breaks the cycles, so reference
        counting frees the graph as soon as nothing else names it.  What
        remains answers identity, arrival and finish time; every metric
        lives in the job's record.
        """
        if self.finish_time is None:
            raise RuntimeError(f"job {self.job_id}: release before finish")
        for p in self.phases:
            p.release()
        self.phases = []

    # ------------------------------------------------------------------
    # Effective lengths (Sec. 5)
    # ------------------------------------------------------------------
    def effective_length(self, r: float) -> float:
        """e_j of Eq. (14): critical-path sum of e_j^k = θ + r·σ."""
        return critical_path_length(
            self.parents_list(), lambda k: self.phases[k].effective_time(r)
        )

    def remaining_effective_length(self, r: float) -> float:
        """e_j(t) of Eq. (17): critical path over unfinished phases only."""
        return critical_path_length(
            self.parents_list(),
            lambda k: self.phases[k].effective_time(r),
            include=lambda k: not self.phases[k].is_finished,
        )

    # One tuple of the slots, like TaskCopy's; a job not built yet
    # holds None for its phases and pickles as its spec.
    def __getstate__(self):
        spec = self._spec
        return (
            self.job_id,
            self.name,
            self.arrival_time,
            self.phases if spec is None else None,
            self.finish_time,
            self.user,
            spec,
            self._demands,
        )

    def __setstate__(self, state) -> None:
        (
            self.job_id,
            self.name,
            self.arrival_time,
            phases,
            self.finish_time,
            self.user,
            self._spec,
            self._demands,
        ) = state
        if phases is not None:
            self.phases = phases

    def __hash__(self) -> int:
        return self.job_id

    def __eq__(self, other: object) -> bool:
        return self is other

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Job(id={self.job_id}, name={self.name!r}, a={self.arrival_time:g}, "
            f"phases={self.num_phases}, tasks={self.num_tasks})"
        )
