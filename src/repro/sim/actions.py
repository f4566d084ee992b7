"""The engine–scheduler action protocol.

Schedulers do not mutate the cluster imperatively; they emit *typed
actions* — :class:`Launch` and :class:`Kill` — that the engine validates
and applies through a single choke point
(:meth:`~repro.sim.engine.SimulationEngine.apply`).  Every applied
action is journaled as a frozen :class:`Decision` carrying the
simulated time, the event cause that opened the scheduling opportunity,
and the policy that decided — making a whole schedule an auditable,
serializable sequence of decisions, the representation the
competitive-analysis literature reasons about and the basis of batched
application and of replay.

Three layers:

* **Actions** (`Launch`, `Kill`, plus the fault-injector's `Fail` /
  `Recover`) reference live simulation objects and are what policy code
  (or the deterministic fault processes of :mod:`repro.faults`)
  constructs and hands to the engine's ``apply``.
* **Decisions** are the serializable residue of an applied action: pure
  ints/floats/strs identifying the task/copy/server *structurally*
  (job id, phase index, task index, copy index), so a recorded decision
  can be re-resolved against a *fresh* cluster and workload.
* **DecisionTrace** is the bounded append-only journal.  It refuses to
  grow past ``maxlen`` (raising :class:`TraceLimitExceeded`) rather
  than silently dropping decisions — a truncated trace could never
  replay, so the bound is a guard rail, not a ring buffer.

Validation failures raise :class:`InvalidAction`, a structured error
naming the offending task/copy/server, *before* any state (including
the duration RNG) is touched — a rejected action leaves the engine
bit-identical to before the attempt.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Union

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.server import Server
    from repro.workload.task import Task, TaskCopy

__all__ = [
    "Launch",
    "Kill",
    "Fail",
    "Recover",
    "Action",
    "FAULT_POLICY",
    "Decision",
    "DecisionTrace",
    "InvalidAction",
    "TraceLimitExceeded",
    "TRACE_SCHEMA",
    "DEFAULT_TRACE_MAXLEN",
]

#: JSONL schema tag written in the header line of an exported trace.
TRACE_SCHEMA = "repro-decision-trace/v1"

#: ``Decision.policy`` value for journal entries originated by the
#: fault injector rather than a scheduling policy.
FAULT_POLICY = "fault-injector"

#: Default bound on a DecisionTrace.  Generous (a 10k-job trace-sim run
#: stays well under 1M decisions) yet finite, so a runaway scheduler
#: cannot silently eat the host's memory through the journal.
DEFAULT_TRACE_MAXLEN = 2_000_000


# ======================================================================
# Actions — what schedulers emit
# ======================================================================
@dataclass(frozen=True)
class Launch:
    """Place one copy of ``task`` on ``server`` (a view or a server id).

    ``clone=True`` marks the copy as an extra (cloned) attempt; the
    engine also auto-promotes a launch of an already-running task to a
    clone, mirroring the historical ``ClusterView.launch`` semantics.
    """

    task: "Task"
    server: "Server | int"
    clone: bool = False


@dataclass(frozen=True)
class Kill:
    """Terminate a *live* task copy and release its reservation.

    Killing a copy that already finished or was already killed is a
    protocol violation — the engine raises :class:`InvalidAction`
    instead of silently corrupting occupancy accounting.
    """

    copy: "TaskCopy"


@dataclass(frozen=True)
class Fail:
    """Mark a server failed (crash semantics, :mod:`repro.faults`).

    The engine kills every resident copy (engine-internal kills, like
    first-copy-wins preemption), zeroes the server's availability, and
    re-queues tasks left with no live copy as PENDING.  Failing an
    already-down server raises :class:`InvalidAction`.  ``server`` is a
    view or a server id.
    """

    server: "Server | int"


@dataclass(frozen=True)
class Recover:
    """Return a failed server to service with its full capacity.

    Recovering a server that is already up raises
    :class:`InvalidAction`.  ``server`` is a view or a server id.
    """

    server: "Server | int"


Action = Union[Launch, Kill, Fail, Recover]


# ======================================================================
# Errors
# ======================================================================
class InvalidAction(RuntimeError):
    """A typed action failed validation at the engine choke point.

    Subclasses ``RuntimeError`` for continuity with the pre-protocol
    engine errors; carries structured fields naming the entities
    involved so tooling (and tests) need not parse the message.
    """

    def __init__(
        self,
        message: str,
        *,
        kind: str,
        time: float,
        task_uid: tuple[int, int, int] | None = None,
        copy_index: int | None = None,
        server_id: int | None = None,
    ) -> None:
        super().__init__(message)
        self.kind = kind
        self.time = time
        self.task_uid = task_uid
        self.copy_index = copy_index
        self.server_id = server_id


class TraceLimitExceeded(RuntimeError):
    """The bounded DecisionTrace refused to grow past its ``maxlen``."""

    def __init__(self, maxlen: int) -> None:
        super().__init__(
            f"decision trace exceeded its bound of {maxlen} decisions — "
            "raise trace_maxlen or disable recording for this run"
        )
        self.maxlen = maxlen


# ======================================================================
# Decisions — the serializable journal entries
# ======================================================================
@dataclass(frozen=True)
class Decision:
    """One applied action, with enough metadata to replay and audit it.

    ``point`` is the ordinal of the scheduler entry point (arrival /
    task-finish / job-finish hook or schedule pass) during which the
    decision was made; the replay engine re-opens the same entry points
    in the same order, so ``point`` pins each decision to its exact
    scheduling opportunity without relying on timestamps (several
    passes can share one simulated time).
    """

    seq: int          # position in the trace (0-based, dense)
    time: float       # simulated time of application
    point: int        # decision-point ordinal (see above)
    cause: str        # entry point kind: job_arrival | task_finish | job_finish |
                      # schedule | server_fail | server_recover | copy_fail
    policy: str       # scheduler name that emitted the action (or FAULT_POLICY)
    kind: str         # "launch" | "kill" | "fail" | "recover"
    job_id: int
    phase_index: int
    task_index: int
    server_id: int
    clone: bool = False
    copy_index: int | None = None  # which task.copies[...] a Kill targets

    @property
    def task_uid(self) -> tuple[int, int, int]:
        return (self.job_id, self.phase_index, self.task_index)

    def to_json(self) -> str:
        # An explicit field dict: dataclasses.asdict deep-copies every
        # field and takes about 3x as long for the same bytes.
        return json.dumps(
            {
                "seq": self.seq,
                "time": self.time,
                "point": self.point,
                "cause": self.cause,
                "policy": self.policy,
                "kind": self.kind,
                "job_id": self.job_id,
                "phase_index": self.phase_index,
                "task_index": self.task_index,
                "server_id": self.server_id,
                "clone": self.clone,
                "copy_index": self.copy_index,
            },
            separators=(",", ":"),
            sort_keys=True,
        )

    @staticmethod
    def from_json(line: str) -> "Decision":
        return Decision(**json.loads(line))


@dataclass
class DecisionTrace:
    """Bounded, append-only journal of applied decisions.

    ``meta`` carries run provenance (policy name, seed, schedule
    interval, workload descriptors, expected results …) so an exported
    trace is self-describing; :mod:`repro.sim.replay` consumes it.
    """

    maxlen: int = DEFAULT_TRACE_MAXLEN
    meta: dict = field(default_factory=dict)
    _decisions: list[Decision] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.maxlen < 1:
            raise ValueError("trace maxlen must be positive")

    # -- journal protocol ----------------------------------------------
    def append(self, decision: Decision) -> None:
        if len(self._decisions) >= self.maxlen:
            raise TraceLimitExceeded(self.maxlen)
        self._decisions.append(decision)

    def __len__(self) -> int:
        return len(self._decisions)

    def __iter__(self) -> Iterator[Decision]:
        return iter(self._decisions)

    def __getitem__(self, i: int) -> Decision:
        return self._decisions[i]

    @property
    def decisions(self) -> tuple[Decision, ...]:
        return tuple(self._decisions)

    # -- JSONL export / import -----------------------------------------
    def dump_jsonl(self, path: str | Path) -> None:
        """Write header (schema + meta) plus one decision per line."""
        path = Path(path)
        with path.open("w", encoding="utf-8") as fh:
            header = {"schema": TRACE_SCHEMA, "maxlen": self.maxlen, "meta": self.meta}
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for d in self._decisions:
                fh.write(d.to_json() + "\n")

    @staticmethod
    def load_jsonl(path: str | Path) -> "DecisionTrace":
        path = Path(path)
        with path.open("r", encoding="utf-8") as fh:
            header_line = fh.readline()
            if not header_line.strip():
                raise ValueError(f"{path}: empty trace file")
            header = json.loads(header_line)
            if header.get("schema") != TRACE_SCHEMA:
                raise ValueError(
                    f"{path}: unknown trace schema {header.get('schema')!r} "
                    f"(expected {TRACE_SCHEMA!r})"
                )
            trace = DecisionTrace(
                maxlen=int(header.get("maxlen", DEFAULT_TRACE_MAXLEN)),
                meta=dict(header.get("meta", {})),
            )
            for line in fh:
                if line.strip():
                    trace.append(Decision.from_json(line))
        return trace
