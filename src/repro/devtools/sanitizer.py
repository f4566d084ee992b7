"""Runtime sanitizer for the simulation engine.

The vectorized placement engine is only trustworthy while a set of
bookkeeping invariants hold (DESIGN.md §5.2).  The static linter
(``tools/repro_lint``) keeps the *code* from violating them; this module
checks the *running state*: with sanitization enabled
(``REPRO_SANITIZE=1`` or ``SimulationEngine(..., sanitize=True)``), the
engine re-derives every invariant from first principles after each
event and raises :class:`SanitizerError` on the first divergence.

Invariants checked (paper references in parentheses):

* **capacity-conservation** — per server, the allocation stays within
  capacity (``EPS`` slack, Eq. 5 of Sec. 3's capacity model; with the
  exact availability derivation below this is ``allocated + available
  == capacity``), the allocation array equals the sum of the demands of
  the server's resident copies, and an idle server's allocation is
  exactly zero;
* **mirror-coherence** — every availability entry equals its derivation
  from allocation, capacity and up flag, bit for bit, and every block
  bound of the placement index is at least its members' availability;
* **clone-bound** — no task holds more than ``1 + max_extra_clones``
  live copies (the Sec. 5 cap behind Thm. 2's speedup bound), and each
  task's cached live-copy counter matches its copy list;
* **negative-availability** — no availability or allocation entry is
  below ``-EPS`` anywhere;
* **time-monotonicity** — simulated time never moves backwards;
* **failed-server** — a crashed server (fault injection, DESIGN.md
  §5.5) hosts nothing: zero allocation, zero advertised availability,
  no resident copies, and the mirror's ``up`` flag agrees;
* **requeue-coherence** — a PENDING task has zero live copies and each
  phase's cached pending count matches its task states (fault requeues
  must keep both in sync);
* **clone-budget** — the engine's incremental ``clone_occupancy`` (the
  δ-budget numerator of Sec. 5) equals the sum of live clone demands
  re-derived from the cluster, and is exactly zero when no clone is
  live.

The sanitizer is O(servers + running copies) per event, so it roughly
doubles simulation cost — keep it off for benchmarks and sweeps, on for
tests and new-scheduler bring-up.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.resources import EPS
from repro.workload.task import TaskState

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import SimulationEngine

__all__ = [
    "InvariantKind",
    "SanitizerError",
    "SanitizerViolation",
    "SimulationSanitizer",
    "sanitize_default",
]


def sanitize_default() -> bool:
    """True when the ``REPRO_SANITIZE`` env toggle is on."""
    flag = os.environ.get("REPRO_SANITIZE", "").strip().lower()
    return flag not in ("", "0", "false", "no")


class InvariantKind(enum.Enum):
    """The violation classes a sanitizer report can name."""

    CAPACITY_CONSERVATION = "capacity-conservation"
    MIRROR_COHERENCE = "mirror-coherence"
    CLONE_BOUND = "clone-bound"
    NEGATIVE_AVAILABILITY = "negative-availability"
    TIME_MONOTONICITY = "time-monotonicity"
    FAILED_SERVER = "failed-server"
    REQUEUE_COHERENCE = "requeue-coherence"
    CLONE_BUDGET = "clone-budget"


@dataclass(frozen=True)
class SanitizerViolation:
    """One invariant breach, tied to the event and entity that exposed it."""

    kind: InvariantKind
    message: str
    event: str
    server_id: int | None = None
    job_id: int | None = None
    task_uid: tuple[int, int, int] | None = None

    def __str__(self) -> str:
        where = []
        if self.server_id is not None:
            where.append(f"server={self.server_id}")
        if self.job_id is not None:
            where.append(f"job={self.job_id}")
        if self.task_uid is not None:
            where.append(f"task={self.task_uid}")
        loc = f" [{', '.join(where)}]" if where else ""
        return f"{self.kind.value}{loc} after {self.event}: {self.message}"


class SanitizerError(AssertionError):
    """Raised on the first event whose post-state breaks an invariant."""

    def __init__(self, violations: list[SanitizerViolation]) -> None:
        self.violations = violations
        lines = "\n".join(f"  - {v}" for v in violations)
        super().__init__(
            f"simulation sanitizer: {len(violations)} invariant "
            f"violation(s):\n{lines}"
        )


class SimulationSanitizer:
    """Re-derives the engine's invariants from scratch after each event.

    ``max_copies`` bounds *live* copies per task (original + clones).
    When not given it is inferred from the scheduler's
    ``CloningPolicy`` (``scheduler.policy.max_copies``) or the engine's
    ``max_copies_per_task``; with neither available the clone-cap check
    is skipped (the copy-list coherence check still runs).  The engine
    is read at construction and passed to every check, never stored:
    the sanitizer holds no reference back to the engine that owns it.
    """

    def __init__(
        self, engine: "SimulationEngine", *, max_copies: int | None = None
    ) -> None:
        if max_copies is None:
            policy = getattr(engine.scheduler, "policy", None)
            max_copies = getattr(policy, "max_copies", None)
        if max_copies is None:
            max_copies = engine.max_copies_per_task
        self.max_copies = max_copies
        self._last_time = -float("inf")

    # ------------------------------------------------------------------
    def check(
        self, engine: "SimulationEngine", event: str = "<manual check>"
    ) -> list[SanitizerViolation]:
        """All current invariant violations (empty when the state is clean)."""
        out: list[SanitizerViolation] = []
        out.extend(self._check_time(engine, event))
        out.extend(self._check_servers(engine, event))
        out.extend(self._check_mirror(engine, event))
        out.extend(self._check_clone_bounds(engine, event))
        out.extend(self._check_clone_budget(engine, event))
        return out

    def after_event(self, engine: "SimulationEngine", event: str) -> None:
        """Engine hook: validate the post-event state, raise on breakage."""
        violations = self.check(engine, event)
        if violations:
            raise SanitizerError(violations)

    # ------------------------------------------------------------------
    # Individual invariants
    # ------------------------------------------------------------------
    def _check_time(
        self, engine: "SimulationEngine", event: str
    ) -> list[SanitizerViolation]:
        now = engine.now
        out: list[SanitizerViolation] = []
        if now < self._last_time:
            out.append(
                SanitizerViolation(
                    InvariantKind.TIME_MONOTONICITY,
                    f"now={now:g} moved backwards from {self._last_time:g}",
                    event,
                )
            )
        self._last_time = max(self._last_time, now)
        return out

    def _check_servers(
        self, engine: "SimulationEngine", event: str
    ) -> list[SanitizerViolation]:
        """Per-server capacity checks, vectorized over the state arrays;
        only flagged servers and the resident map are visited one by one."""
        out: list[SanitizerViolation] = []
        mirror = engine.cluster.mirror
        resident = mirror.resident
        up = mirror.up
        cap = (mirror.cap_cpu, mirror.cap_mem)
        alloc = (mirror.alloc_cpu, mirror.alloc_mem)
        avail = (mirror.avail_cpu, mirror.avail_mem)
        # A crashed server hosts nothing: the Fail applier killed every
        # resident first (snapping allocation to exactly zero), and a
        # down server's availability derives to exactly zero.
        down = ~up
        leaking = down & (
            (alloc[0] != 0.0) | (alloc[1] != 0.0) | (avail[0] != 0.0) | (avail[1] != 0.0)
        )
        flagged = set(np.flatnonzero(leaking).tolist())
        flagged.update(i for i in resident if not up[i])
        for i in sorted(flagged):
            problems = []
            if resident.get(i):
                problems.append(f"{len(resident[i])} resident copies")
            if alloc[0][i] != 0.0 or alloc[1][i] != 0.0:
                problems.append(f"allocated=({alloc[0][i]:g}, {alloc[1][i]:g})")
            if avail[0][i] != 0.0 or avail[1][i] != 0.0:
                problems.append(f"available=({avail[0][i]:g}, {avail[1][i]:g})")
            out.append(
                SanitizerViolation(
                    InvariantKind.FAILED_SERVER,
                    "down server still holds " + ", ".join(problems),
                    event,
                    server_id=i,
                )
            )
        for a, v, c, dim in zip(alloc, avail, cap, ("cpu", "mem")):
            for i in np.flatnonzero(up & ((v < -EPS) | (a < -EPS))).tolist():
                out.append(
                    SanitizerViolation(
                        InvariantKind.NEGATIVE_AVAILABILITY,
                        f"{dim}: available={v[i]:g}, allocated={a[i]:g}",
                        event,
                        server_id=i,
                    )
                )
            for i in np.flatnonzero(up & (a > c + EPS)).tolist():
                out.append(
                    SanitizerViolation(
                        InvariantKind.CAPACITY_CONSERVATION,
                        f"{dim}: allocated {a[i]:g} exceeds capacity {c[i]:g}",
                        event,
                        server_id=i,
                    )
                )
        # An idle server's allocation is exactly zero: the last release
        # snaps it, so any residue is a lost release.
        idle = up & ((alloc[0] != 0.0) | (alloc[1] != 0.0))
        for i in np.flatnonzero(idle).tolist():
            if i not in resident:
                out.append(
                    SanitizerViolation(
                        InvariantKind.CAPACITY_CONSERVATION,
                        f"idle server allocates ({alloc[0][i]:g}, {alloc[1][i]:g})",
                        event,
                        server_id=i,
                    )
                )
        # A hosting server's allocation must equal the sum of its
        # resident demands.  The engine adds/clamps incrementally, so
        # allow one EPS of accumulated round-off per resident copy.
        for i in sorted(resident):
            if not up[i]:
                continue  # reported as a failed server above
            copies = resident[i]
            tol = EPS * (len(copies) + 1)
            sum_cpu = 0.0
            sum_mem = 0.0
            for copy in copies:
                if not copy.live:
                    out.append(
                        SanitizerViolation(
                            InvariantKind.CAPACITY_CONSERVATION,
                            f"dead copy {copy.copy_uid} still resident",
                            event,
                            server_id=i,
                            task_uid=copy.task.uid,
                        )
                    )
                sum_cpu += copy.task.demand.cpu
                sum_mem += copy.task.demand.mem
            a_cpu, a_mem = alloc[0].item(i), alloc[1].item(i)
            if abs(sum_cpu - a_cpu) > tol or abs(sum_mem - a_mem) > tol:
                out.append(
                    SanitizerViolation(
                        InvariantKind.CAPACITY_CONSERVATION,
                        f"allocated ({a_cpu:g}, {a_mem:g}) != sum of {len(copies)} "
                        f"running copies ({sum_cpu:g}, {sum_mem:g})",
                        event,
                        server_id=i,
                    )
                )
        return out

    def _check_mirror(
        self, engine: "SimulationEngine", event: str
    ) -> list[SanitizerViolation]:
        out: list[SanitizerViolation] = []
        mirror = engine.cluster.mirror
        # Bitwise on purpose: availability is stored as exactly its
        # derivation, and the proof that placements equal the per-server
        # reference loops depends on it never differing by one ulp.
        derived = mirror.derived_availability()
        for name, stored, truth in zip(
            ("avail_cpu", "avail_mem"), (mirror.avail_cpu, mirror.avail_mem), derived
        ):
            for i in np.flatnonzero(stored != truth).tolist():
                out.append(
                    SanitizerViolation(
                        InvariantKind.MIRROR_COHERENCE,
                        f"mirror.{name}[{i}]={stored[i]:g} != {truth[i]:g} "
                        "derived from its allocation",
                        event,
                        server_id=i,
                    )
                )
        for k in mirror.loose_bounds():
            out.append(
                SanitizerViolation(
                    InvariantKind.MIRROR_COHERENCE,
                    f"mirror block {k}: availability bound below a member's availability",
                    event,
                )
            )
        return out

    def _check_clone_bounds(
        self, engine: "SimulationEngine", event: str
    ) -> list[SanitizerViolation]:
        out: list[SanitizerViolation] = []
        lifetime_cap = engine.max_copies_per_task
        # Every live copy must still hold its reservation — a live copy
        # missing from its server means it was released early (or twice)
        # while the engine still expects it to finish.  Copies are told
        # apart by identity: ``copy_uid`` restarts at 0 in a new process,
        # so after a restore a new copy can carry a restored copy's uid.
        resident = {
            (sid, id(c))
            for sid, copies in engine.cluster.mirror.resident.items()
            for c in copies
        }
        for job_id in sorted(engine.active_jobs):
            job = engine.active_jobs[job_id]
            for phase in job.phases:
                pending = sum(
                    1 for t in phase.tasks if t.state is TaskState.PENDING
                )
                if pending != phase.num_pending:
                    out.append(
                        SanitizerViolation(
                            InvariantKind.REQUEUE_COHERENCE,
                            f"phase {phase.index}: cached pending count "
                            f"{phase.num_pending} != actual {pending}",
                            event,
                            job_id=job_id,
                        )
                    )
                for task in phase.tasks:
                    live = 0
                    for copy in task.copies:
                        if not copy.live:
                            continue
                        live += 1
                        if (copy.server_id, id(copy)) not in resident:
                            out.append(
                                SanitizerViolation(
                                    InvariantKind.CAPACITY_CONSERVATION,
                                    f"live copy {copy.copy_uid} is not "
                                    f"resident on server {copy.server_id} — "
                                    "released early or twice",
                                    event,
                                    server_id=copy.server_id,
                                    job_id=job_id,
                                    task_uid=task.uid,
                                )
                            )
                    if task.state is TaskState.PENDING and live:
                        out.append(
                            SanitizerViolation(
                                InvariantKind.REQUEUE_COHERENCE,
                                f"PENDING task holds {live} live copies",
                                event,
                                job_id=job_id,
                                task_uid=task.uid,
                            )
                        )
                    if live != task.num_live_copies:
                        out.append(
                            SanitizerViolation(
                                InvariantKind.CLONE_BOUND,
                                f"cached live-copy count "
                                f"{task.num_live_copies} != actual {live}",
                                event,
                                job_id=job_id,
                                task_uid=task.uid,
                            )
                        )
                    if self.max_copies is not None and live > self.max_copies:
                        out.append(
                            SanitizerViolation(
                                InvariantKind.CLONE_BOUND,
                                f"{live} live copies exceed the cap of "
                                f"{self.max_copies} (1 original + "
                                f"{self.max_copies - 1} extra clones)",
                                event,
                                job_id=job_id,
                                task_uid=task.uid,
                            )
                        )
                    # Fault-killed copies don't count against the
                    # lifetime cap (they never competed for the task).
                    launched = task.num_copies
                    if (
                        lifetime_cap is not None
                        and launched - task.fault_losses > lifetime_cap
                    ):
                        out.append(
                            SanitizerViolation(
                                InvariantKind.CLONE_BOUND,
                                f"{launched} total copies "
                                f"({task.fault_losses} fault losses) exceed "
                                f"max_copies_per_task={lifetime_cap}",
                                event,
                                job_id=job_id,
                                task_uid=task.uid,
                            )
                        )
        return out

    def _check_clone_budget(
        self, engine: "SimulationEngine", event: str
    ) -> list[SanitizerViolation]:
        """The incremental clone occupancy must match a from-scratch
        rescan of live clone copies — the δ-budget accounting of
        ``CloningPolicy.budget_remaining`` reads it every pass, so any
        leak here silently starves (or overruns) cloning."""
        out: list[SanitizerViolation] = []
        occ = engine.clone_occupancy
        sum_cpu = 0.0
        sum_mem = 0.0
        live_clones = 0
        for copies in engine.cluster.mirror.resident.values():
            for copy in copies:
                if copy.is_clone and copy.live:
                    live_clones += 1
                    sum_cpu += copy.task.demand.cpu
                    sum_mem += copy.task.demand.mem
        if occ.cpu < 0.0 or occ.mem < 0.0:
            out.append(
                SanitizerViolation(
                    InvariantKind.CLONE_BUDGET,
                    f"clone occupancy went negative: {occ!r}",
                    event,
                )
            )
        if live_clones == 0:
            # The release path snaps to exactly zero with the last live
            # clone — bitwise, not within-EPS, by design.
            if occ.cpu != 0.0 or occ.mem != 0.0:
                out.append(
                    SanitizerViolation(
                        InvariantKind.CLONE_BUDGET,
                        f"no live clones but clone occupancy is {occ!r}",
                        event,
                    )
                )
            return out
        tol = EPS * (engine.clones_launched + 1)
        if abs(occ.cpu - sum_cpu) > tol or abs(occ.mem - sum_mem) > tol:
            out.append(
                SanitizerViolation(
                    InvariantKind.CLONE_BUDGET,
                    f"clone occupancy {occ!r} != sum of {live_clones} live "
                    f"clone demands ({sum_cpu:g}, {sum_mem:g})",
                    event,
                )
            )
        return out
