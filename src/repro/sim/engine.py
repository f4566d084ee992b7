"""The discrete-event cluster simulation engine.

Responsibilities (everything a YARN ResourceManager + NodeManagers did in
the paper's prototype, reduced to what the evaluation metrics observe):

* event loop over job arrivals, task-copy completions and slot ticks;
* container placement with multi-resource capacity enforcement (Eq. 5);
* phase dependency gating (Eq. 7) and job completion tracking (Eq. 8);
* clone lifecycle: independent duration sampling per copy, first-copy-
  wins completion, killing of the remaining copies (Secs. 3, 5);
* utilization/overhead accounting for the evaluation figures;
* optional fault injection (DESIGN.md §5.5): server crash/recover
  churn, per-copy failures and transient slowdowns scheduled by a
  :class:`~repro.faults.injector.FaultInjector` and applied through the
  same validated ``apply`` choke point (``Fail``/``Recover`` actions).

Scheduling policy is fully delegated to a
:class:`~repro.schedulers.base.Scheduler` through :class:`ClusterView`.
In *slotted* mode (``schedule_interval > 0``) scheduling decisions only
happen at slot boundaries, matching the trace-driven simulator of
Sec. 6.3 ("the scheduling interval … to be 5 seconds"); with interval 0
the engine schedules after every state-changing event, matching the
event-driven YARN prototype.

**Action protocol** (DESIGN.md §5.3): policies never mutate the cluster
directly.  They emit typed :class:`~repro.sim.actions.Launch` /
:class:`~repro.sim.actions.Kill` actions through ``view.apply`` (or the
``view.launch`` / ``view.kill`` convenience wrappers), and the engine's
single :meth:`SimulationEngine.apply` choke point validates each action
*before* touching any state — including the duration RNG — applies it
atomically, and (when recording) journals it as a
:class:`~repro.sim.actions.Decision` in a bounded
:class:`~repro.sim.actions.DecisionTrace`.  A recorded trace replays
bit-identically via :mod:`repro.sim.replay`.

**Session API** (DESIGN.md §5.8): the engine is a resumable session.
:meth:`SimulationEngine.start` pulls the first arrival and primes the
fault chains and the slot grid, :meth:`~SimulationEngine.step`
processes exactly one simulated instant (one coalesced batch drain plus
its closing schedule pass), :meth:`~SimulationEngine.run_until` steps
through every instant up to a time bound, :meth:`~SimulationEngine.drain`
steps until no runnable event remains, and
:meth:`~SimulationEngine.finalize` builds the
:class:`~repro.sim.metrics.SimulationResult`;
:meth:`~SimulationEngine.run` is ``start → drain → finalize``.  Every
job enters through :meth:`~SimulationEngine.ingest`: the engine pulls
it from an :class:`~repro.workload.arrivals.ArrivalSource` (a job list
becomes a :class:`~repro.workload.arrivals.StaticSource`), one arrival
ahead, or a caller injects it mid-run — the service layer
(:mod:`repro.service`) builds on exactly these increments, and
:mod:`repro.sim.checkpoint` can persist/restore the whole session
between any two instants.
"""

from __future__ import annotations

import math
import time as _wallclock
from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.server import Server, server_id_of
from repro.devtools.sanitizer import SimulationSanitizer, sanitize_default
from repro.faults import FaultInjector, FaultProfile
from repro.observability import Observability, PhaseProfiler, observability_default
from repro.observability.instruments import FaultInstruments
from repro.resources import Resources
from repro.sim.actions import (
    FAULT_POLICY,
    Action,
    Decision,
    DecisionTrace,
    Fail,
    InvalidAction,
    Kill,
    Launch,
    Recover,
)
from repro.sim.events import BASE_EVENT_KINDS, EventKind, EventQueue
from repro.sim.metrics import JobRecord, SimulationResult, build_result, record_for_job
from repro.workload.arrivals import ArrivalSource, StaticSource
from repro.workload.job import Job
from repro.workload.task import Task, TaskCopy, TaskState

if TYPE_CHECKING:  # pragma: no cover
    from repro.schedulers.base import Scheduler

__all__ = ["ClusterView", "SimulationEngine"]


class ClusterView:
    """The scheduler's window into the simulation.

    Exposes read access to time/cluster/jobs plus one mutation channel:
    :meth:`apply`, which submits a typed action to the engine's choke
    point.  ``launch``/``kill`` are thin conveniences that build the
    corresponding action — policy code must not reach past this facade
    (enforced by repro-lint rule RL007).

    A view is built for one scheduler call and is valid only during it:
    a scheduler must not store the view it is handed.  The engine keeps
    no view either, so nothing the engine owns points back at it and a
    dropped engine is freed by reference counting.
    """

    def __init__(self, engine: "SimulationEngine") -> None:
        self._engine = engine

    # -- read access ----------------------------------------------------
    @property
    def time(self) -> float:
        return self._engine.now

    @property
    def cluster(self) -> Cluster:
        return self._engine.cluster

    @property
    def active_jobs(self) -> list[Job]:
        """Arrived, unfinished jobs — the A_t of Algorithm 2."""
        return list(self._engine.active_jobs.values())

    @property
    def rng(self) -> np.random.Generator:
        """Policy-owned randomness (e.g. random tie-breaking)."""
        return self._engine.policy_rng

    @property
    def clone_occupancy(self) -> Resources:
        """Resources currently held by live clone copies (incremental —
        used by DollyMP's δ budget without rescanning the cluster)."""
        return self._engine.clone_occupancy

    @property
    def observability(self) -> Observability | None:
        """The run's observability bundle (None when not opted in).
        Read-only from policy code: emit metrics/spans, never steer."""
        return self._engine.observability

    # -- mutations: the action protocol ---------------------------------
    def apply(self, action: Action) -> TaskCopy | None:
        """Submit a typed action; returns the new copy for a Launch."""
        return self._engine.apply(action)

    def launch(self, task: Task, server: Server | int, *, clone: bool = False) -> TaskCopy:
        copy = self._engine.apply(Launch(task, server, clone=clone))
        assert copy is not None
        return copy

    def kill(self, copy: TaskCopy) -> None:
        self._engine.apply(Kill(copy))


class SimulationEngine:
    """Runs one workload under one scheduling policy."""

    def __init__(
        self,
        cluster: Cluster,
        scheduler: "Scheduler",
        jobs: Iterable[Job] | ArrivalSource,
        *,
        seed: int = 0,
        schedule_interval: float = 0.0,
        max_time: float = math.inf,
        max_copies_per_task: int | None = None,
        sanitize: bool | None = None,
        record_trace: bool = False,
        trace_maxlen: int | None = None,
        observability: Observability | None = None,
        profile: bool | None = None,
        fault_profile: FaultProfile | None = None,
        churn_seed: int | None = None,
    ) -> None:
        if schedule_interval < 0:
            raise ValueError("schedule_interval must be non-negative")
        self.cluster = cluster
        self.scheduler = scheduler
        # The workload enters through an ArrivalSource (DESIGN.md §5.8);
        # a job list, empty for a session that starts idle, becomes a
        # StaticSource.  The engine names a job only while its arrival
        # is queued or it is active, and a finished one only by its record.
        if not isinstance(jobs, ArrivalSource):
            jobs = StaticSource(jobs)
        self.arrivals: ArrivalSource = jobs
        self.schedule_interval = float(schedule_interval)
        self.max_time = float(max_time)
        self.max_copies_per_task = max_copies_per_task
        # Separate RNG streams: durations must not shift when a policy
        # draws random numbers, so comparisons across schedulers see the
        # same straggler realizations wherever placement agrees.
        self.duration_rng = np.random.default_rng(seed)
        self.policy_rng = np.random.default_rng(seed + 104_729)

        self.now = 0.0
        self.events = EventQueue()
        self.active_jobs: dict[int, Job] = {}
        #: One record per finished job, in finish order (build_result
        #: sorts them by job id).
        self.records: list[JobRecord] = []

        # Fault injection (DESIGN.md §5.5).  The injector owns a third
        # RNG stream (churn_seed), so a run with faults disabled draws
        # the exact same duration/policy sequences as a build without
        # the fault subsystem at all.
        if fault_profile is not None and not fault_profile.enabled:
            fault_profile = None
        self.faults: FaultInjector | None = (
            FaultInjector(fault_profile, churn_seed=churn_seed, seed=seed)
            if fault_profile is not None
            else None
        )
        self._pending_arrivals = 0
        self._orphaned: list[Task] = []
        self.faults_injected = 0
        self.copies_lost = 0
        self.recoveries_masked_by_clone = 0
        self.tasks_requeued = 0

        # Session state (DESIGN.md §5.8).  `_started` latches after
        # start() primes the queues; `_halted` latches when, with faults
        # attached, the workload drains and only the fault tail remains
        # — ingest() clears it, since a new arrival revives the workload.
        # `expect_arrivals` is the service layer's promise that more jobs
        # will be injected even while none are active or queued: it keeps
        # `workload_active()` true so fault renewal chains extend across
        # idle gaps exactly as they would had the whole stream been known
        # up front.
        self._started = False
        self._priming = False
        self._halted = False
        self.expect_arrivals = False
        #: Ids of the jobs ingested so far.
        self._job_ids: set[int] = set()
        self._run_t0: float | None = None

        # Decision journal (DESIGN.md §5.3).  `_decision_point` numbers
        # scheduler entry points; `_decision_cause` names the event kind
        # that opened the current one.  Both are metadata on recorded
        # decisions and the alignment key the replay engine uses.
        if trace_maxlen is None:
            self.trace: DecisionTrace | None = DecisionTrace() if record_trace else None
        else:
            self.trace = DecisionTrace(maxlen=trace_maxlen) if record_trace else None
        self._decision_point = 0
        self._decision_cause = "init"

        # Accounting
        self.events_processed = 0
        self.clones_launched = 0
        self.copies_launched = 0
        self.clone_occupancy = Resources(0.0, 0.0)
        self._live_clone_count = 0
        # Wall seconds of the schedule passes: count, sum and maximum are
        # all SimulationResult reads, so a long session keeps three numbers.
        self.schedule_passes = 0
        self.schedule_pass_total_s = 0.0
        self.schedule_pass_max_s = 0.0
        self._alloc_integral_cpu = 0.0
        self._alloc_integral_mem = 0.0
        self._last_account_time = 0.0

        # Opt-in invariant checking (DESIGN.md §5.2): after every event
        # the sanitizer re-derives capacity conservation, mirror
        # coherence, the clone cap and time monotonicity from scratch.
        if sanitize is None:
            sanitize = sanitize_default()
        self.sanitizer = SimulationSanitizer(self) if sanitize else None

        # Observability (DESIGN.md §5.4): None unless the run (or the
        # environment) opted in — the disabled hot path pays only a
        # pointer check per event.  `profile=True` forces the wall-time
        # profiler on, creating a bundle if none was given.
        if observability is None:
            observability = observability_default()
        if profile:
            if observability is None:
                observability = Observability(profile=True)
            elif observability.profiler is None:
                observability.profiler = PhaseProfiler()
        self.observability = observability
        ins = observability.sim if observability is not None else None
        self._ins = ins
        if observability is not None:
            observability.bind_cluster(self.cluster)
        # Pre-bound per-EventKind counter children and span names keep
        # the per-event cost to one dict hit + one attribute bump.
        if ins is not None:
            # Fault event kinds and decision causes are bound only when
            # an injector is attached: a no-fault run's metric snapshot
            # must stay byte-identical to one from a build without the
            # fault subsystem.
            kinds = tuple(EventKind) if self.faults is not None else BASE_EVENT_KINDS
            self._ev_child = {k: ins.events.labels(kind=k.name.lower()) for k in kinds}
            causes = ["job_arrival", "task_finish", "job_finish", "schedule"]
            if self.faults is not None:
                causes += ["server_fail", "server_recover", "copy_fail"]
            self._dp_child = {c: ins.decision_points.labels(cause=c) for c in causes}
        else:
            self._ev_child = self._dp_child = None
        self._fault_ins = (
            FaultInstruments(observability.registry)
            if self.faults is not None
            and observability is not None
            and observability.registry is not None
            else None
        )
        self._ev_span_name = {k: f"event:{k.name.lower()}" for k in EventKind}

        # (cpu, mem) of every demand some server's capacity fits: jobs
        # share a handful of distinct demands, so each costs one
        # vectorized check over the cluster.
        self._hostable: set[tuple[float, float]] = set()
        # ingest() admits each job as it is pulled; a listed workload is
        # also checked whole here, so a bad job fails the build rather
        # than the run that would reach it.
        if isinstance(jobs, StaticSource):
            listed: set[int] = set()
            for job in jobs.remaining():
                self._admit(job, listed)

    @property
    def view(self) -> ClusterView:
        """A fresh view for one scheduler call (never stored: a stored
        view would point back at the engine)."""
        return ClusterView(self)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _admit(self, job: Job, ids: set[int]) -> None:
        """Check one job and add its id to ``ids``; raises before any
        change.  Every demand must fit one real server whole, not the
        per-dimension maxima of different servers; the arrival must not
        precede the session clock; the id must not be in ``ids``.  The
        demands are read without building the job (DESIGN.md §5.6)."""
        hostable = self._hostable
        shapes = job.phase_shapes()
        for shape in shapes:
            key = (shape.cpu, shape.mem)
            if key in hostable:
                continue
            demand = Resources.of(shape.cpu, shape.mem)
            if not self.cluster.can_host(demand):
                raise ValueError(
                    f"job {job.job_id} phase {shapes.index(shape)}: demand "
                    f"{demand} exceeds every server's capacity"
                )
            hostable.add(key)
        if job.arrival_time < 0:
            raise ValueError(f"job {job.job_id}: negative arrival time")
        if job.arrival_time < self.now:
            raise ValueError(
                f"job {job.job_id}: arrival {job.arrival_time:g} precedes "
                f"the session clock t={self.now:g}"
            )
        if job.job_id in ids:
            raise ValueError(f"job {job.job_id}: duplicate job id in this session")
        ids.add(job.job_id)

    # ------------------------------------------------------------------
    # The action choke point
    # ------------------------------------------------------------------
    def apply(self, action: Action) -> TaskCopy | None:
        """Validate, apply and journal one typed action.

        The single mutation channel of the engine: every scheduler-
        originated state change flows through here.  Validation runs
        *before* any mutation (including the duration-RNG draw), so a
        rejected action leaves the simulation bit-identical; a valid
        action is applied atomically and, when recording, appended to
        the decision trace with time/cause/policy metadata.
        """
        ins = self._ins
        if isinstance(action, Launch):
            sid = server_id_of(action.server)
            try:
                self._validate_launch(action.task, sid)
            except InvalidAction:
                if ins is not None:
                    ins.rejected_launches.inc()
                raise
            copy = self._apply_launch(action.task, sid, clone=action.clone)
            self._record("launch", sid, action.task, clone=copy.is_clone)
            if ins is not None:
                ins.launches.inc()
            return copy
        if isinstance(action, Kill):
            copy = action.copy
            try:
                self._validate_kill(copy)
            except InvalidAction:
                if ins is not None:
                    ins.rejected_kills.inc()
                raise
            self._apply_kill(copy)
            self._record("kill", copy.server_id, copy.task, copy_index=copy.index)
            if ins is not None:
                ins.kills.inc()
            return None
        if isinstance(action, Fail):
            sid = server_id_of(action.server)
            if not self.cluster.mirror.up[sid]:
                raise InvalidAction(
                    f"server {sid} is already down at t={self.now:g}",
                    kind="fail",
                    time=self.now,
                    server_id=sid,
                )
            self._apply_fail(sid)
            self._record("fail", sid)
            return None
        if isinstance(action, Recover):
            sid = server_id_of(action.server)
            if self.cluster.mirror.up[sid]:
                raise InvalidAction(
                    f"server {sid} is already up at t={self.now:g}",
                    kind="recover",
                    time=self.now,
                    server_id=sid,
                )
            self._apply_recover(sid)
            self._record("recover", sid)
            return None
        raise TypeError(f"not an action: {action!r}")

    def _record(
        self,
        kind: str,
        server_id: int,
        task: Task | None = None,
        *,
        clone: bool = False,
        copy_index: int | None = None,
    ) -> None:
        """Journal one applied action.  A Fail/Recover carries no task:
        its task coordinates are -1 sentinels and the policy column
        names the injector rather than the scheduler — replay filters
        these out and re-derives them from its own injector."""
        if self.trace is None:
            return
        if task is None:
            job_id = phase_index = task_index = -1
            policy = FAULT_POLICY
        else:
            job_id, phase_index, task_index = task.uid
            policy = self.scheduler.name
        self.trace.append(
            Decision(
                seq=len(self.trace),
                time=self.now,
                point=self._decision_point,
                cause=self._decision_cause,
                policy=policy,
                kind=kind,
                job_id=job_id,
                phase_index=phase_index,
                task_index=task_index,
                server_id=server_id,
                clone=clone,
                copy_index=copy_index,
            )
        )

    # ------------------------------------------------------------------
    # Validation (raises InvalidAction before any state is touched)
    # ------------------------------------------------------------------
    def _validate_launch(self, task: Task, sid: int) -> None:
        job = task.job

        def bad(message: str) -> InvalidAction:
            return InvalidAction(
                message,
                kind="launch",
                time=self.now,
                task_uid=task.uid,
                server_id=sid,
            )

        if job.job_id not in self.active_jobs:
            raise bad(f"job {job.job_id} is not active at t={self.now:g}")
        if task.state is TaskState.FINISHED:
            raise bad(f"task {task.uid} already finished")
        if not job.phase_ready(task.phase, self.now):
            raise bad(
                f"task {task.uid}: parent phases unfinished or shuffle "
                f"delay pending (Eq. 7 violated)"
            )
        # Fault-killed copies don't count against the lifetime cap: a
        # task that lost its work to a crash may be relaunched.
        if (
            self.max_copies_per_task is not None
            and len(task.copies) - task.fault_losses >= self.max_copies_per_task
        ):
            raise bad(f"task {task.uid}: copy cap {self.max_copies_per_task} reached")
        mirror = self.cluster.mirror
        if not 0 <= sid < len(mirror):
            raise bad(f"server {sid} does not exist")
        if not mirror.up[sid]:
            raise bad(f"server {sid} is down")
        if not mirror.can_fit(sid, task.demand):
            raise bad(f"server {sid}: cannot fit {task.demand} in {mirror.available(sid)}")

    def _validate_kill(self, copy: TaskCopy) -> None:
        if copy.live:
            return
        state = "finished" if copy.finished else "killed"
        raise InvalidAction(
            f"kill of already-{state} copy {copy.label} on server {copy.server_id} "
            f"at t={self.now:g} — occupancy was already released",
            kind="kill",
            time=self.now,
            task_uid=copy.task.uid,
            copy_index=copy.index,
            server_id=copy.server_id,
        )

    # ------------------------------------------------------------------
    # Appliers (assume validated input; used by apply() and internally)
    # ------------------------------------------------------------------
    def _apply_launch(self, task: Task, sid: int, *, clone: bool) -> TaskCopy:
        # A RUNNING task already has a live copy, so any further launch
        # is a clone even if the policy didn't flag it.  Keyed on state
        # rather than `has_run`: a fault-requeued task keeps its dead
        # copies in the history, but its next launch is a fresh primary.
        is_clone = clone or task.state is TaskState.RUNNING
        duration = self._sample_duration(task, sid)
        copy = TaskCopy(task, sid, self.now, duration, is_clone=is_clone)
        self.cluster.mirror.allocate(sid, copy)  # re-checks Eq. (5) at the owner layer
        task.add_copy(copy)
        self.events.push(copy.finish_time, EventKind.COPY_FINISH, copy)
        self.copies_launched += 1
        if is_clone:
            self.clones_launched += 1
            self._live_clone_count += 1
            self.clone_occupancy = self.clone_occupancy + task.demand
        ins = self._ins
        if ins is not None:
            ins.copies.inc()
            if is_clone:
                ins.clones.inc()
            ins.copy_duration.observe(duration)
        if self.faults is not None:
            self.faults.on_copy_launched(self, copy)
        return copy

    def _apply_kill(self, copy: TaskCopy) -> None:
        copy.killed = True
        # Truncate the copy's charged duration to the time it ran; the
        # resource-usage metrics (Fig. 8b) charge only actual occupancy.
        copy.duration = max(self.now - copy.start_time, 1e-12)
        self.cluster.mirror.release(copy.server_id, copy)
        if copy.is_clone:
            self._release_clone(copy.task)

    def _release_clone(self, task: Task) -> None:
        """Return one clone's demand to the incremental δ-budget
        occupancy.  Snaps to exactly zero when the last live clone
        leaves (mirroring the idle snap of a server's allocation), so repeated
        add/subtract rounding cannot leak budget across a long run —
        `CloningPolicy.budget_remaining` sees the full δ ceiling again
        whenever no clone is live."""
        self._live_clone_count -= 1
        if self._live_clone_count <= 0:
            self._live_clone_count = 0
            self.clone_occupancy = Resources(0.0, 0.0)
        else:
            self.clone_occupancy = (
                self.clone_occupancy - task.demand
            ).clamp_nonnegative()

    def _apply_fail(self, sid: int) -> None:
        """Crash one server: kill every resident copy (in launch
        order), take the capacity out of both placement paths, and
        tally the losses.  The kills are engine consequences of the
        Fail action, not scheduler decisions, so they bypass the journal
        like first-copy-wins kills."""
        mirror = self.cluster.mirror
        # A copy of the list: each kill removes its victim from it.
        victims = list(mirror.resident.get(sid, ()))
        # One crash releases every resident copy on the same server:
        # coalesce the whole victim sweep (plus the down-flag flip) into
        # a single availability derivation for that server.
        mirror.begin_coalesce()
        try:
            for copy in victims:
                self._apply_kill(copy)
            mirror.mark_down(sid)
        finally:
            mirror.end_coalesce()
        self._orphaned = self._tally_losses(victims)
        self.faults_injected += 1
        fins = self._fault_ins
        if fins is not None:
            fins.server_fails.inc()
            fins.servers_down.set(len(self.cluster) - self.cluster.num_up())

    def _apply_recover(self, sid: int) -> None:
        """Return a crashed server to service at full capacity."""
        self.cluster.mirror.mark_up(sid)
        fins = self._fault_ins
        if fins is not None:
            fins.server_recovers.inc()
            fins.servers_down.set(len(self.cluster) - self.cluster.num_up())

    def _tally_losses(self, victims: list[TaskCopy]) -> list[Task]:
        """Account one fault's killed copies: charge each loss to its
        task, then sort the tasks hit, in victim order, into clone-masked
        (a surviving copy carries the task) and requeued (back to
        PENDING).  Bumps the engine's loss counters and their fault
        instruments together; returns the requeued tasks."""
        tasks: list[Task] = []
        for copy in victims:
            task = copy.task
            task.fault_losses += 1
            if task not in tasks:
                tasks.append(task)
        requeued: list[Task] = []
        for task in tasks:
            if task.num_live_copies == 0:
                task.requeue()
                requeued.append(task)
        masked = len(tasks) - len(requeued)
        self.copies_lost += len(victims)
        self.recoveries_masked_by_clone += masked
        self.tasks_requeued += len(requeued)
        fins = self._fault_ins
        if fins is not None:
            if victims:
                fins.copies_lost.inc(len(victims))
            if masked:
                fins.masked_by_clone.inc(masked)
            if requeued:
                fins.tasks_requeued.inc(len(requeued))
        return requeued

    def _sample_duration(self, task: Task, sid: int) -> float:
        """Duration of one copy: a fresh draw from the phase's straggler
        distribution scaled by the server's slowdown.

        Independent draws per copy implement the paper's clone model —
        each clone behaves like "a task randomly chosen from the same job
        phase" (Sec. 6.3) — and first-copy-wins takes the minimum.
        """
        base = task.phase.distribution.sample(self.duration_rng)
        return float(base) * self.cluster.mirror.slowdown_of(sid)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _account_until(self, t: float) -> None:
        dt = t - self._last_account_time
        if dt > 0:
            # Mirror aggregates: one vectorized reduction per event
            # instead of a per-server Python sum.
            cpu, mem = self.cluster.mirror.total_allocated_components()
            self._alloc_integral_cpu += cpu * dt
            self._alloc_integral_mem += mem * dt
            self._last_account_time = t

    def average_utilization(self) -> Resources:
        """Time-averaged allocated fraction over the simulated horizon."""
        if self.now <= 0:
            return Resources(0.0, 0.0)
        total = self.cluster.total_capacity
        return Resources(
            self._alloc_integral_cpu / (total.cpu * self.now),
            self._alloc_integral_mem / (total.mem * self.now),
        )

    # ------------------------------------------------------------------
    # Event processing
    # ------------------------------------------------------------------
    def _open_decision_point(self, cause: str) -> None:
        """A scheduler entry point is about to run: decisions applied
        until the next one belong to this (ordinal, cause) opportunity."""
        self._decision_point += 1
        self._decision_cause = cause
        dp = self._dp_child
        if dp is not None:
            dp[cause].inc()

    def _policy_entry(self, cause: str, hook, *args) -> None:
        """Open a decision point and run one scheduler hook."""
        self._open_decision_point(cause)
        self._run_hook(cause, hook, *args)

    def _run_hook(self, cause: str, hook, *args) -> None:
        """Run one scheduler hook inside the *current* decision point,
        wrapped in a ``decision:<cause>`` span and a ``scheduler``
        profiler frame when observability is enabled.  Fault processors
        open the point themselves so the Fail/Recover decision is
        journaled at the same ordinal the hook runs under."""
        obs = self.observability
        if obs is None:
            hook(*args, self.view)
            return
        tracer = obs.tracer
        prof = obs.profiler
        span = (
            tracer.enter(f"decision:{cause}", self.now, point=self._decision_point)
            if tracer is not None
            else None
        )
        frame = prof.enter("scheduler") if prof is not None else None
        try:
            hook(*args, self.view)
        finally:
            if frame is not None:
                prof.exit(frame)
            if span is not None:
                tracer.exit(span, self.now)

    def _process_arrival(self, job: Job) -> None:
        self._pending_arrivals -= 1
        # A job is built when it arrives (DESIGN.md §5.6): from here on
        # the scheduler and the engine read its phase graph.
        job.build()
        self.active_jobs[job.job_id] = job
        # The source stays one arrival ahead: consuming this arrival
        # fetches the next job.  Arrival events tie-break on kind before
        # seq, and same-kind pushes keep stream order, so pulling never
        # reorders processing relative to a queue holding every arrival
        # from the start.
        if not self.arrivals.exhausted:
            self._pull_arrival()
        ins = self._ins
        if ins is not None:
            ins.active_jobs.set(len(self.active_jobs))
        self._policy_entry("job_arrival", self.scheduler.on_job_arrival, job)

    def _process_copy_finish(self, copy: TaskCopy) -> None:
        if not copy.live:
            return  # stale event: the copy was killed earlier
        task = copy.task
        # Coalesce the winner's release plus the first-copy-wins kills
        # into one mirror delta per touched server (reads flush first,
        # and `_account_until` is a no-op inside a timestamp, so nothing
        # observes the deferred window).
        mirror = self.cluster.mirror
        mirror.begin_coalesce()
        try:
            copy.finished = True
            mirror.release(copy.server_id, copy)
            if copy.is_clone:
                self._release_clone(task)
            if task.state is TaskState.FINISHED:
                return  # another copy already won (equal-time tie)
            # First copy wins: kill the rest and complete the task.  These
            # kills are engine consequences of the COPY_FINISH event, not
            # scheduler decisions, so they bypass the journal (replay
            # re-derives them from the same event).
            kills = 0
            for other in task.copies:
                if other is not copy and other.live:
                    self._apply_kill(other)
                    kills += 1
        finally:
            mirror.end_coalesce()
        task.complete(self.now)
        ins = self._ins
        if ins is not None and kills:
            ins.preempt_kills.inc(kills)
        self._policy_entry("task_finish", self.scheduler.on_task_finish, task)
        # The hook was the last reader of the copies (DESIGN.md §5.8).
        task.fold()
        job = task.job
        if job.mark_finished_if_done(self.now):
            del self.active_jobs[job.job_id]
            if ins is not None:
                assert job.finish_time is not None
                ins.job_flowtime.observe(job.finish_time - job.arrival_time)
                ins.active_jobs.set(len(self.active_jobs))
            self._policy_entry("job_finish", self.scheduler.on_job_finish, job)
            # The job leaves as its record: everything the record reads
            # is final, and releasing the graph lets reference counting
            # free it now instead of at a rare full collection.
            self.records.append(record_for_job(job))
            job.release()
        elif task.phase.is_finished:
            self._arm_delayed_children(job, task.phase)

    # ------------------------------------------------------------------
    # Fault event processing (DESIGN.md §5.5)
    # ------------------------------------------------------------------
    def workload_active(self) -> bool:
        """Whether unfinished jobs exist or are still to arrive — the
        predicate gating fault-chain extension and the drain break.

        An unexhausted arrival source (or an explicit ``expect_arrivals``
        pledge from a service runner) counts as pending work: with every
        arrival queued from the start those jobs would be pending here,
        so the fault renewal chain must stay alive across stream gaps to
        keep the churn RNG draw sequence identical."""
        return (
            bool(self.active_jobs)
            or self._pending_arrivals > 0
            or not self.arrivals.exhausted
            or self.expect_arrivals
        )

    def _process_fault_event(self, ev) -> bool:
        """Dispatch one injector-scheduled event; returns whether the
        cluster state changed in a way that warrants a schedule pass."""
        kind = ev.kind
        if kind is EventKind.SERVER_FAIL:
            return self._process_server_fail(ev.payload)
        if kind is EventKind.SERVER_RECOVER:
            return self._process_server_recover(ev.payload)
        if kind is EventKind.COPY_FAIL:
            return self._process_copy_fail(ev.payload)
        faults = self.faults
        assert faults is not None
        if kind is EventKind.SERVER_SLOW_START:
            faults.on_slow_start(self, ev.payload)
            self.faults_injected += 1
            if self._fault_ins is not None:
                self._fault_ins.slowdowns.inc()
        else:  # SERVER_SLOW_END
            faults.on_slow_end(self, ev.payload)
        return False  # slowdowns don't change placement feasibility

    def _process_server_fail(self, sid: int) -> bool:
        faults = self.faults
        assert faults is not None
        if not self.cluster.mirror.up[sid]:
            return False  # defensive: chains schedule one fail per server
        if faults.profile.keep_one_up and self.cluster.num_up() <= 1:
            # Never crash the last healthy server — but extend the
            # renewal chain anyway so the failure process (and its RNG
            # stream position) is independent of cluster state.
            faults.schedule_next_failure(self, sid)
            return False
        self._open_decision_point("server_fail")
        self.apply(Fail(sid))
        orphans = self._orphaned
        self._orphaned = []
        self._run_hook(
            "server_fail", self.scheduler.on_server_fail, self.cluster[sid], orphans
        )
        faults.schedule_recovery(self, sid)
        return True

    def _process_server_recover(self, sid: int) -> bool:
        faults = self.faults
        assert faults is not None
        if self.cluster.mirror.up[sid]:
            return False  # defensive: one recovery is scheduled per crash
        self._open_decision_point("server_recover")
        self.apply(Recover(sid))
        self._run_hook("server_recover", self.scheduler.on_server_recover, self.cluster[sid])
        faults.schedule_next_failure(self, sid)
        return True

    def _process_copy_fail(self, copy: TaskCopy) -> bool:
        if not copy.live:
            return False  # stale: the copy finished or was killed first
        self._apply_kill(copy)
        self._tally_losses([copy])
        self.faults_injected += 1
        if self._fault_ins is not None:
            self._fault_ins.copy_fails.inc()
        self._policy_entry("copy_fail", self.scheduler.on_copy_failure, copy)
        return True

    def _arm_delayed_children(self, job: Job, finished_phase) -> None:
        """A phase with a shuffle delay becomes schedulable strictly
        between events; arm a wakeup so event-driven runs revisit it.
        (Slotted runs pick it up at the next slot boundary anyway.)"""
        if self.schedule_interval > 0:
            return
        for child in job.phases:
            if finished_phase.index not in child.parents or child.start_delay == 0:
                continue
            ready_at = job.phase_ready_time(child)
            if ready_at is not None and ready_at > self.now:
                self.events.push(ready_at, EventKind.SCHEDULE_TICK)

    def _run_schedule_pass(self) -> None:
        """One ``schedule`` entry point, its wall time counted."""
        t0 = _wallclock.perf_counter()
        self._policy_entry("schedule", self.scheduler.schedule)
        seconds = _wallclock.perf_counter() - t0
        self.schedule_passes += 1
        self.schedule_pass_total_s += seconds
        if seconds > self.schedule_pass_max_s:
            self.schedule_pass_max_s = seconds
        if self._ins is not None:
            self._ins.wall_schedule_pass.observe(seconds)

    # ------------------------------------------------------------------
    # Session API (DESIGN.md §5.8)
    # ------------------------------------------------------------------
    def start(self) -> "SimulationEngine":
        """Prime the session: pull the first arrival, start the fault
        processes, and lay down the slot grid.  Idempotent; every other
        session increment (step/run_until/drain/ingest) calls it first,
        so explicit use is only needed to pin the priming time.

        The push order — the first arrival, fault priming, the first
        slot tick — fixes event sequence numbers, and with them
        same-instant tie-breaks."""
        if self._started:
            return self
        self._started = True
        self._run_t0 = _wallclock.perf_counter()
        job = self._pull_arrival()
        if self.faults is not None:
            self.faults.prime(self)
        if self.schedule_interval > 0 and job is not None:
            aligned = (
                math.floor(job.arrival_time / self.schedule_interval)
                * self.schedule_interval
            )
            self.events.push(max(aligned, 0.0), EventKind.SCHEDULE_TICK)
        return self

    def _pull_arrival(self) -> Job | None:
        """Fetch the next job from the arrival source and ingest it.

        Engine-internal pulls happen while the tick chain is alive —
        at ``start()`` (the aligned initial tick is laid right after)
        or mid-instant inside arrival processing (where the current
        tick sits in the popped batch, invisible to ``has_kind``) — so
        ``_priming`` suppresses ingest()'s dead-chain tick re-arm,
        which is only for *external* ingests into an idle session.
        """
        self._priming = True
        try:
            job = self.arrivals.take()
            if job is not None:
                self.ingest(job)
        finally:
            self._priming = False
        return job

    def ingest(self, job: Job) -> Job:
        """Inject one job into a live session.

        The one way a job enters the session, whether the engine pulls
        it from its arrival source or a caller injects it: checks the
        job (feasibility, an arrival not behind the session clock, an
        unused id) and queues its arrival event.  Starts the session if
        needed, and clears a fault-tail halt — a new arrival revives the
        workload.  Jobs must be ingested in non-decreasing arrival order
        to match a run that knew the whole stream up front (the arrival
        sources enforce this; direct callers own it)."""
        if not self._started:
            self.start()
        self._admit(job, self._job_ids)
        self._pending_arrivals += 1
        self._halted = False
        self.events.push(job.arrival_time, EventKind.JOB_ARRIVAL, job)
        # A slotted session whose tick chain died while idle must re-arm
        # it at exactly the slot the uninterrupted chain would have hit:
        # _next_tick_time() jumps over the idle gap to the slot holding
        # the next event, which is this arrival.
        if (
            self.schedule_interval > 0
            and not self._priming
            and not self.events.has_kind(EventKind.SCHEDULE_TICK)
        ):
            nxt = self._next_tick_time()
            if nxt is not None:
                self.events.push(nxt, EventKind.SCHEDULE_TICK)
        return job

    def step(self) -> bool:
        """Process the next simulated instant; returns False when no
        runnable event remains.

        One instant = every queued event sharing the earliest timestamp
        (plus same-instant pushes), processed in the exact (time, kind,
        seq) order of the batched drain, closed by at most one schedule
        pass.  Raises when the instant lies past ``max_time`` (a
        starving policy); with faults attached, refuses (returns False)
        once only the fault tail remains."""
        if not self._started:
            self.start()
        if self._halted:
            return False
        events = self.events
        if not events:
            return False
        if self.faults is not None and not self.workload_active():
            # Only fault events remain once the workload drains.
            self._halted = True
            return False
        batch = events.pop_batch()
        t = batch[0].time
        if t > self.max_time:
            raise RuntimeError(
                f"simulation exceeded max_time={self.max_time:g} "
                f"(possible starvation under {self.scheduler.name})"
            )
        self._account_until(t)
        self.now = t
        self._process_instant(t, batch)
        return True

    def run_until(self, t: float, *, inclusive: bool = True) -> float:
        """Step through every instant up to ``t`` and return the clock.

        Processes instants while the next pending event is ≤ ``t``
        (< ``t`` with ``inclusive=False`` — the streaming runner uses
        the exclusive bound so equal-time arrivals land in one instant).
        The clock never advances past the last processed event, so a
        bound beyond the horizon leaves the session exactly where
        ``drain()`` would.  The max_time/starvation guards apply to each
        step, so a stuck slotted session raises instead of spinning."""
        if not self._started:
            self.start()
        while not self._halted:
            nt = self.events.peek_time()
            if nt is None or (nt > t if inclusive else nt >= t):
                break
            if not self.step():
                break
        return self.now

    def drain(self) -> int:
        """Step until no runnable event remains; returns instants run."""
        instants = 0
        while self.step():
            instants += 1
        return instants

    def finalize(self) -> SimulationResult:
        """Close the session and build its result.

        Flushes the sim-time / wall-run gauges, rejects a drained queue
        that left jobs unfinished (deadlock guard), and snapshots the
        result."""
        ins = self._ins
        if ins is not None:
            ins.sim_time.set(self.now)
            if self._run_t0 is not None:
                ins.wall_run.set(_wallclock.perf_counter() - self._run_t0)
        if self.active_jobs:
            raise RuntimeError(
                f"event queue drained with {len(self.active_jobs)} jobs unfinished"
            )
        return build_result(self)

    def partial_result(self) -> SimulationResult:
        """Result over the jobs finished *so far* — the live-metrics
        variant of finalize(): no completeness check, no gauge flush,
        valid between any two instants of a running session."""
        return build_result(self)

    def run(self) -> SimulationResult:
        """One-shot run: start → drain → finalize."""
        self.start()
        self.drain()
        return self.finalize()

    # ------------------------------------------------------------------
    # Pickling (checkpoint/restore, DESIGN.md §5.8)
    # ------------------------------------------------------------------
    def __getstate__(self):
        state = self.__dict__.copy()
        # Wall-clock anchor is meaningless across processes; finalize()
        # after a restore simply skips the wall_run gauge.
        state["_run_t0"] = None
        return state

    # ------------------------------------------------------------------
    # One instant of the batched drain
    # ------------------------------------------------------------------
    def _process_instant(self, t: float, batch) -> None:
        # Batched drain (DESIGN.md §5.6): every event sharing the
        # earliest timestamp is popped in one heap sweep and processed
        # from a local list, preserving the exact (time, kind, seq)
        # order the per-event loop produced.  Two escape valves keep the
        # order bit-identical when processing pushes *new* events at the
        # current instant: (a) a head check before each local event, in
        # case a pushed event sorts earlier (smaller kind — pushed seqs
        # are always larger); (b) a re-drain once the local list runs
        # out.  One schedule pass still closes each instant, exactly as
        # before; batching never reorders or merges decision points.
        obs = self.observability
        tracer = obs.tracer if obs is not None else None
        prof = obs.profiler if obs is not None else None
        ev_child = self._ev_child
        span_name = self._ev_span_name
        events = self.events
        sanitizer = self.sanitizer
        slotted = self.schedule_interval > 0

        idx = 0
        n = len(batch)
        while True:
            # -- select the next event in exact pop order ----------
            if idx < n:
                ev = batch[idx]
                hk = events.peek_key()
                if hk is not None and hk[0] == t and (hk[1], hk[2]) < (ev.kind, ev.seq):
                    ev = events.pop()  # zero-delay push sorted earlier
                else:
                    idx += 1
            elif events.peek_time() == t:
                batch = events.pop_batch()  # pushed while processing
                n = len(batch)
                ev = batch[0]
                idx = 1
            else:
                break
            if self.faults is not None and not self.workload_active():
                self._halted = True  # drop the fault tail mid-instant too
                break

            self.events_processed += 1
            kind = ev.kind
            if ev_child is not None:
                ev_child[kind].inc()
            span = tracer.enter(span_name[kind], t) if tracer is not None else None
            frame = prof.enter("engine") if prof is not None else None
            try:
                if kind is EventKind.JOB_ARRIVAL:
                    self._process_arrival(ev.payload)
                    dirty = True
                elif kind is EventKind.COPY_FINISH:
                    self._process_copy_finish(ev.payload)
                    dirty = True
                elif kind is not EventKind.SCHEDULE_TICK:
                    dirty = self._process_fault_event(ev)
                else:  # SCHEDULE_TICK
                    dirty = False
                    self._run_schedule_pass()
                    # Slotted mode sustains the tick chain; event-driven
                    # mode only sees one-shot wakeups (delayed-phase
                    # arming).  `idx < n` counts locally-held events the
                    # per-event loop would still see queued.
                    if slotted and (self.active_jobs or idx < n or events):
                        nxt = self._next_tick_time()
                        if nxt is not None:
                            events.push(nxt, EventKind.SCHEDULE_TICK)

                if not slotted and dirty and idx >= n and events.peek_time() != t:
                    # Last state change of this instant: one pass.
                    self._run_schedule_pass()
            finally:
                if frame is not None:
                    prof.exit(frame)
                if span is not None:
                    tracer.exit(span, t)

            if sanitizer is not None:
                sanitizer.after_event(self, f"{kind.name} @ t={t:g}")
            if idx >= n:
                # Mid-batch the locally-held events are still pending
                # work, so starvation can only be judged at the end of
                # the instant (the per-event loop agrees: it never
                # fired with same-time events still queued).
                self._check_progress()

    def _next_tick_time(self) -> Optional[float]:
        """Next slot boundary; jumps over idle gaps to the slot containing
        the next event when nothing is running."""
        base = self.now + self.schedule_interval
        if self.active_jobs:
            return base
        nxt = self.events.peek()
        if nxt is None:
            return None
        k = math.ceil(nxt.time / self.schedule_interval)
        return max(base, k * self.schedule_interval)

    def _check_progress(self) -> None:
        """Detect starvation: active jobs, nothing running, nothing queued."""
        if self.active_jobs and not self.events:
            running = self.cluster.running_copy_count()
            if running == 0:
                stuck = sorted(self.active_jobs)
                raise RuntimeError(
                    f"scheduler {self.scheduler.name} starved jobs {stuck}: "
                    "no copies running and no events pending"
                )
