"""Deterministic replay of a recorded decision trace.

A :class:`~repro.sim.actions.DecisionTrace` recorded by the engine is a
complete account of every scheduler-originated mutation: which task was
launched (or which copy killed), where, at which decision point, and
why that point opened.  Replaying the trace against a *fresh* cluster
and workload with the same duration RNG therefore reconstructs the
entire simulation — every engine-internal consequence (copy finishes,
first-copy-wins kills, job completions) re-derives itself from the same
events — and must end in a bit-identical
:class:`~repro.sim.metrics.SimulationResult`.

That equality is the **replay determinism oracle**: it complements the
runtime sanitizer (§5.2), which checks *state invariants* within one
run, by checking *decision sufficiency* across runs — if the engine ever
consulted hidden state (wall clock, hash order, leftover RNG coupling)
the replayed run would diverge and :func:`assert_replay_identical`
would name the first differing job.

:class:`ReplayScheduler` is a drop-in policy that emits the recorded
actions instead of deciding: it counts scheduler entry points exactly
as the recording engine did (arrival / task-finish / job-finish hooks
and schedule passes) and applies the decisions journaled at each
ordinal.  Alignment is by ordinal, not timestamp, so several passes at
one simulated time replay unambiguously.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.faults import FaultProfile
from repro.schedulers.base import Scheduler
from repro.sim.actions import Decision, DecisionTrace, Kill, Launch
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import SimulationResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.sim.engine import ClusterView
    from repro.workload.job import Job

__all__ = [
    "ReplayScheduler",
    "ReplayDivergence",
    "replay_trace",
    "assert_replay_identical",
]


class ReplayDivergence(RuntimeError):
    """A replayed run did not reproduce the recorded one."""


class ReplayScheduler(Scheduler):
    """Re-emits a recorded decision sequence instead of deciding.

    The engine invokes policy entry points in a deterministic order; the
    recording engine numbered them (``Decision.point``) and this
    scheduler counts them identically, applying every decision recorded
    at the current ordinal.  Any misalignment — a decision whose point
    has already passed, or an unresolvable task/copy reference — raises
    :class:`ReplayDivergence` at the exact first divergent step rather
    than letting the runs drift apart silently.
    """

    def __init__(self, decisions: Iterable[Decision], *, name: str | None = None) -> None:
        # Fault decisions (kind "fail"/"recover") are journaled for the
        # audit trail but filtered here: the replay engine re-injects
        # them through its own reconstructed FaultInjector (same
        # churn_seed ⇒ same realization), so re-applying them from the
        # trace would fail/recover each server twice.  The entry-point
        # ordinals still line up because the fault hooks below advance
        # the point counter exactly as the recording engine did.
        self._decisions: list[Decision] = sorted(
            (d for d in decisions if d.kind in ("launch", "kill")),
            key=lambda d: d.seq,
        )
        self._cursor = 0
        self._point = 0
        if name is not None:
            self.name = name
        elif self._decisions:
            self.name = self._decisions[0].policy
        else:
            self.name = "replay"

    # -- entry points: each advances the ordinal and drains its decisions
    def on_job_arrival(self, job, view: "ClusterView") -> None:
        self._advance(view)

    def on_task_finish(self, task, view: "ClusterView") -> None:
        self._advance(view)

    def on_job_finish(self, job, view: "ClusterView") -> None:
        self._advance(view)

    def schedule(self, view: "ClusterView") -> None:
        self._advance(view)

    def on_server_fail(self, server, orphans, view: "ClusterView") -> None:
        self._advance(view)

    def on_server_recover(self, server, view: "ClusterView") -> None:
        self._advance(view)

    def on_copy_failure(self, copy, view: "ClusterView") -> None:
        self._advance(view)

    # ------------------------------------------------------------------
    def _advance(self, view: "ClusterView") -> None:
        self._point += 1
        while self._cursor < len(self._decisions):
            d = self._decisions[self._cursor]
            if d.point > self._point:
                break
            if d.point < self._point:
                raise ReplayDivergence(
                    f"decision #{d.seq} belongs to decision point {d.point} "
                    f"but the replay already reached point {self._point} — "
                    "the engine's entry-point sequence diverged from the recording"
                )
            view.apply(self._resolve(d, view))
            self._cursor += 1

    def _resolve(self, d: Decision, view: "ClusterView") -> Launch | Kill:
        """Re-bind a decision's structural references to live objects."""
        job = next((j for j in view.active_jobs if j.job_id == d.job_id), None)
        if job is None:
            raise ReplayDivergence(
                f"decision #{d.seq}: job {d.job_id} is not active at "
                f"t={view.time:g} in the replay"
            )
        try:
            task = job.phases[d.phase_index].task(d.task_index)
        except IndexError:
            raise ReplayDivergence(
                f"decision #{d.seq}: task {d.task_uid} does not exist in "
                "the replayed workload"
            ) from None
        if d.kind == "launch":
            return Launch(task, d.server_id, clone=d.clone)
        if d.kind == "kill":
            assert d.copy_index is not None
            if d.copy_index >= len(task.copies):
                raise ReplayDivergence(
                    f"decision #{d.seq}: task {d.task_uid} has only "
                    f"{len(task.copies)} copies, cannot kill #{d.copy_index}"
                )
            return Kill(task.copies[d.copy_index])
        raise ReplayDivergence(f"decision #{d.seq}: unknown kind {d.kind!r}")

    def assert_exhausted(self) -> None:
        """Every recorded decision must have been re-applied."""
        if self._cursor != len(self._decisions):
            d = self._decisions[self._cursor]
            raise ReplayDivergence(
                f"replay ended with {len(self._decisions) - self._cursor} "
                f"decisions unapplied (first: #{d.seq} {d.kind} of task "
                f"{d.task_uid} at point {d.point})"
            )


def replay_trace(
    trace: DecisionTrace | Sequence[Decision],
    cluster: "Cluster",
    jobs: Iterable["Job"],
    *,
    seed: int | None = None,
    schedule_interval: float | None = None,
    max_time: float = math.inf,
    sanitize: bool | None = None,
    observability=None,
    fault_profile: FaultProfile | None = None,
    churn_seed: int | None = None,
) -> SimulationResult:
    """Re-execute a recorded trace against a fresh cluster + workload.

    ``seed`` and ``schedule_interval`` default to the values stored in
    the trace's ``meta`` (present when recorded via
    :func:`repro.sim.runner.run_recorded`); they must match the
    recording run for the duration RNG and slot grid to line up.
    Likewise ``fault_profile``/``churn_seed`` default to the recording's
    ``meta["faults"]`` — the replay engine reconstructs the same
    injector and re-derives the identical failure realization, so
    recorded ``Fail``/``Recover`` decisions are verified, not re-applied.
    ``observability`` attaches a per-run metrics/span/profiler bundle —
    the replayed run's sim-derived metrics must equal the recording's.
    """
    meta = trace.meta if isinstance(trace, DecisionTrace) else {}
    if seed is None:
        if "seed" not in meta:
            raise ValueError("seed not given and absent from trace meta")
        seed = int(meta["seed"])
    if schedule_interval is None:
        schedule_interval = float(meta.get("schedule_interval", 0.0))
    faults_meta = meta.get("faults")
    if faults_meta:
        if fault_profile is None:
            fault_profile = FaultProfile.from_meta(faults_meta["profile"])
        if churn_seed is None and faults_meta.get("churn_seed") is not None:
            churn_seed = int(faults_meta["churn_seed"])
    scheduler = ReplayScheduler(trace, name=meta.get("policy"))
    engine = SimulationEngine(
        cluster,
        scheduler,
        jobs,
        seed=seed,
        schedule_interval=schedule_interval,
        max_time=max_time,
        sanitize=sanitize,
        observability=observability,
        fault_profile=fault_profile,
        churn_seed=churn_seed,
    )
    result = engine.run()
    scheduler.assert_exhausted()
    return result


def assert_replay_identical(
    recorded: SimulationResult, replayed: SimulationResult
) -> None:
    """Raise :class:`ReplayDivergence` unless the two results are
    bit-for-bit identical in every simulated quantity.

    Per-job records (flow times, running times, copy/clone counts,
    resource-seconds) are compared with exact float equality — the
    oracle's whole point — and so are the aggregate counters.  Wall-clock
    measurements (``schedule_pass_seconds``) are excluded: they measure
    the host, not the simulation.
    """
    if len(recorded.records) != len(replayed.records):
        raise ReplayDivergence(
            f"job count differs: recorded {len(recorded.records)}, "
            f"replayed {len(replayed.records)}"
        )
    for a, b in zip(recorded.records, replayed.records):
        if a != b:
            raise ReplayDivergence(
                f"job {a.job_id} diverged:\n  recorded: {a}\n  replayed: {b}"
            )
    for attr in (
        "scheduler_name",
        "cluster_capacity",
        "avg_utilization",
        "clones_launched",
        "copies_launched",
        "simulated_time",
        "events_processed",
        "faults_injected",
        "copies_lost",
        "recoveries_masked_by_clone",
        "tasks_requeued",
    ):
        va, vb = getattr(recorded, attr), getattr(replayed, attr)
        if va != vb:
            raise ReplayDivergence(f"{attr} diverged: recorded {va!r}, replayed {vb!r}")
