"""Deterministic checkpoint/restore of a live simulation session.

The persistence layer of the session API (DESIGN.md §5.8).  A
checkpoint captures the *complete* engine state between two instants —
event queue (including its sequence counter), cluster and its SoA
placement mirror, scheduler (priorities, caches), all three RNG streams
(duration, policy, churn), the fault injector, the clone-budget ledger,
the decision trace and observability bundle — so that

    restore(checkpoint(engine at t)) → drain → finalize

is bit-identical to letting the original engine run uninterrupted.

Determinism argument
--------------------

The engine's evolution from one instant to the next is a pure function
of (event queue contents, mutable simulation state, RNG stream states):
every wall-clock read is segregated into profiling fields that never
feed back into decisions (repro-lint RL010 enforces this), and every
decision flows through the ``apply`` choke point.  Pickling snapshots
exactly that closure of state — aliasing included, because pickle's
memo preserves object identity (a task copy referenced by both the
resident map and the event queue revives as one object, not two).
Nothing the engine owns points back at it — scheduler views are built
per call, and the span tracer, fault injector and sanitizer take the
engine or its clock as an argument — so the state holds no closure to
rebind.  The only deliberately excluded state is host-specific: the
wall-time anchor of the run (``finalize`` after restore skips the
wall_run gauge).  Pull-based arrival sources serialize their consumed
count and re-attach the byte stream after restore; the engine pulls the
next job at exactly the same decision point either way.

Checkpoints are *internal* state snapshots built on :mod:`pickle`: load
only files you produced (the standard pickle caveat).  A checkpoint is
two pickles back to back: a small header ``{"format", "info",
"state_bytes"}`` and then the engine state itself, pickled once.  The
header carries a format tag, the summary and the state's sha256, and
must end exactly ``state_bytes`` before the end of the file, so a
truncated, extended or foreign file fails loudly instead of reviving
garbage.
"""

from __future__ import annotations

import hashlib
import io
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import SimulationEngine

__all__ = [
    "CHECKPOINT_FORMAT",
    "CheckpointInfo",
    "checkpoint_bytes",
    "restore_bytes",
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_info",
]

#: Format tag in the header; bumped on any layout change.  v2 pickled
#: per-server state as the mirror's arrays and resident map (no Server
#: objects); v3 pickles queued events as plain ``Event`` tuples, each
#: server's resident copies as a list in launch order and the rack map
#: as an int32 array; v4 writes the state pickle once, after a header
#: naming its length, instead of nesting it as bytes in an envelope
#: pickle; v5 pickles each phase's h(r) as ``_speedup``, ``None`` until
#: first read, where v4 pickled a fitted ``speedup``, and a task that
#: never launched holds an empty tuple of copies; v6 holds only live
#: work: a finished task keeps a ``ledger`` in place of its copies
#: (and of v5's ``finish_time`` slot), a finished job is present only
#: as its ``JobRecord`` in ``records`` (v5 kept every finished job in
#: ``finished_jobs`` and every job in ``jobs``); v7 holds no view, clock
#: or injector back-reference to the engine, pickles the mirror's
#: capacity and slowdown columns as distinct values plus an index, its
#: allocation columns as their entries other than +0.0, an all-up mask
#: as its length, and a round-robin rack map as its recipe.  v1–v6
#: files are rejected by name, like a foreign one.
CHECKPOINT_FORMAT = "repro-checkpoint-v7"

#: Fixed pickle protocol so checkpoints written by any supported
#: interpreter (3.10–3.12) load on any other.  Protocol 5 writes each
#: mirror array in-band from its own buffer (a ``PickleBuffer``) instead
#: of through a temporary ``bytes`` the pickler's memo keeps alive, and
#: loads it with one copy into a fresh, writable ``bytearray``.
_PROTOCOL = 5


@dataclass(frozen=True)
class CheckpointInfo:
    """Summary metadata stored beside (and readable without) the state."""

    format: str
    sim_time: float
    events_processed: int
    jobs_total: int
    jobs_finished: int
    jobs_active: int
    arrivals_consumed: int
    scheduler: str
    digest: str

    def to_dict(self) -> dict:
        return {
            "format": self.format,
            "sim_time": self.sim_time,
            "events_processed": self.events_processed,
            "jobs_total": self.jobs_total,
            "jobs_finished": self.jobs_finished,
            "jobs_active": self.jobs_active,
            "arrivals_consumed": self.arrivals_consumed,
            "scheduler": self.scheduler,
            "digest": self.digest,
        }


def _info_for(engine: "SimulationEngine", digest: str) -> CheckpointInfo:
    return CheckpointInfo(
        format=CHECKPOINT_FORMAT,
        sim_time=engine.now,
        events_processed=engine.events_processed,
        jobs_total=len(engine._job_ids),
        jobs_finished=len(engine.records),
        jobs_active=len(engine.active_jobs),
        arrivals_consumed=engine.arrivals.consumed,
        scheduler=engine.scheduler.name,
        digest=digest,
    )


def _dump(engine: "SimulationEngine") -> tuple[bytes, bytes, CheckpointInfo]:
    """Pickle the engine once; returns ``(header, state, info)``."""
    state = pickle.dumps(engine, protocol=_PROTOCOL)
    info = _info_for(engine, hashlib.sha256(state).hexdigest())
    header = pickle.dumps(
        {"format": CHECKPOINT_FORMAT, "info": info.to_dict(), "state_bytes": len(state)},
        protocol=_PROTOCOL,
    )
    return header, state, info


def checkpoint_bytes(engine: "SimulationEngine") -> tuple[bytes, CheckpointInfo]:
    """Serialize a session to bytes; returns ``(payload, info)``.

    The engine must be between instants (not inside ``step()``) — every
    public session increment leaves it there.
    """
    header, state, info = _dump(engine)
    return header + state, info


def _header(payload: bytes) -> tuple[dict, int]:
    """Unpickle and check a checkpoint header; returns it with the offset
    at which the state begins.

    A truncated or bit-flipped file usually breaks the header's own
    pickle stream, and unpickling garbage raises almost anything
    (UnpicklingError, EOFError, UnicodeDecodeError, …); every such
    failure becomes the same ``ValueError`` the length and digest
    checks raise.  The header must end exactly ``state_bytes`` before
    the end of the payload: a cut anywhere after the header, or bytes
    appended, fails that check before the state is read.
    """
    stream = io.BytesIO(payload)
    try:
        header = pickle.load(stream)
    except Exception as exc:
        raise ValueError(
            f"unreadable {CHECKPOINT_FORMAT} header (truncated or corrupted): {exc!r}"
        ) from exc
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(
            f"not a {CHECKPOINT_FORMAT} checkpoint "
            f"(format={header.get('format') if isinstance(header, dict) else None!r})"
        )
    info, size = header.get("info"), header.get("state_bytes")
    start = stream.tell()
    if (
        not isinstance(info, dict)
        or type(size) is not int
        or len(payload) != start + size
    ):
        raise ValueError(f"damaged {CHECKPOINT_FORMAT} checkpoint (truncated or corrupted)")
    return header, start


def restore_bytes(payload: bytes) -> "SimulationEngine":
    """Revive a session from :func:`checkpoint_bytes` output."""
    header, start = _header(payload)
    state = memoryview(payload)[start:]
    if hashlib.sha256(state).hexdigest() != header["info"].get("digest"):
        raise ValueError("checkpoint state digest mismatch (truncated or corrupted)")
    return pickle.loads(state)


def save_checkpoint(engine: "SimulationEngine", path: str | Path) -> CheckpointInfo:
    """Write a checkpoint file atomically (tmp + rename); returns info.

    The rename makes a crash mid-write leave either the previous
    checkpoint or the new one, never a torn file — the service loop
    overwrites one path periodically and relies on this.  Header and
    state are written one after the other, never joined in memory.
    """
    header, state, info = _dump(engine)
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as fh:
        fh.write(header)
        fh.write(state)
    tmp.replace(path)
    return info


def load_checkpoint(path: str | Path) -> "SimulationEngine":
    """Revive a session from a checkpoint file."""
    return restore_bytes(Path(path).read_bytes())


def checkpoint_info(path: str | Path) -> CheckpointInfo:
    """Read only the metadata summary of a checkpoint file."""
    return CheckpointInfo(**_header(Path(path).read_bytes())[0]["info"])
