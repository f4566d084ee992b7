"""Job arrival processes and arrival *sources*.

The analytical model treats (a_1, …, a_N) as an arbitrary sequence
(Sec. 3); the experiments use roughly fixed inter-arrival gaps (≈200 s
lightly loaded, ≈20 s heavily loaded, Sec. 6.2) which in practice jitter
around the target.  The helper functions below produce arrival-time
lists consumed by the simulation runner.

The second half of this module is the workload layer of the session API
(DESIGN.md §5.8): an :class:`ArrivalSource` feeds jobs to a
:class:`~repro.sim.engine.SimulationEngine` one at a time as the
simulation advances — :class:`StaticSource` over a job list known up
front, :class:`GeneratorSource` over any job iterator,
:class:`JsonlSource` over a job-spec line stream.  Sources must yield
non-decreasing arrival times; the engine rejects out-of-order ingests,
because a job arriving "in the past" could not be replayed by a run
that knew the stream up front.

Byte-identity note: the engine pulls the next job *while processing the
previous arrival event*, so a JOB_ARRIVAL for job k+1 is queued before
any event of job k's placement and the heap always holds the next
arrival.  The event queue orders by (time, kind, seq) and same-kind
pushes preserve stream order, so the processing order — and therefore
every RNG draw and decision point — is the one a queue holding every
arrival from the start would give.
"""

from __future__ import annotations

import json
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.workload.job import Job

__all__ = [
    "fixed_interarrival",
    "poisson_arrivals",
    "arrivals_from_list",
    "ArrivalSource",
    "StaticSource",
    "GeneratorSource",
    "JsonlSource",
]


def fixed_interarrival(
    n: int,
    gap: float,
    *,
    start: float = 0.0,
    jitter: float = 0.0,
    rng: np.random.Generator | None = None,
) -> list[float]:
    """``n`` arrivals spaced ``gap`` apart, optionally uniformly jittered
    by ±``jitter``·gap (the paper's "around 20/200 seconds")."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if gap < 0:
        raise ValueError("gap must be non-negative")
    if not 0.0 <= jitter < 1.0:
        raise ValueError("jitter must be in [0, 1)")
    times = start + gap * np.arange(n, dtype=float)
    if jitter > 0:
        if rng is None:
            rng = np.random.default_rng(0)
        times = times + rng.uniform(-jitter * gap, jitter * gap, size=n)
        times = np.maximum.accumulate(np.maximum(times, start))
    return [float(t) for t in times]


def poisson_arrivals(
    n: int,
    rate: float,
    *,
    start: float = 0.0,
    rng: np.random.Generator | None = None,
) -> list[float]:
    """``n`` Poisson-process arrivals with the given rate (jobs/second)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if rate <= 0:
        raise ValueError("rate must be positive")
    if rng is None:
        rng = np.random.default_rng(0)
    gaps = rng.exponential(1.0 / rate, size=n)
    return [float(t) for t in start + np.cumsum(gaps)]


def arrivals_from_list(times: Sequence[float]) -> list[float]:
    """Validate and normalize an explicit arrival sequence."""
    out = [float(t) for t in times]
    if any(t < 0 for t in out):
        raise ValueError("arrival times must be non-negative")
    if any(b < a for a, b in zip(out, out[1:])):
        raise ValueError("arrival times must be non-decreasing")
    return out


# ----------------------------------------------------------------------
# Arrival sources (session workload layer, DESIGN.md §5.8)
# ----------------------------------------------------------------------
class ArrivalSource:
    """Where a session's jobs come from.

    The engine pulls jobs through :meth:`take`, once at ``start()`` and
    then job *k+1* while processing job *k*'s arrival, and admits each
    through its ``ingest()``.  ``exhausted`` must flip to True only
    when :meth:`take` can never return another job — it keeps the
    engine's ``workload_active()`` predicate (and with it the fault
    renewal chain) alive while the stream is open.  ``consumed`` counts
    jobs already emitted; checkpoint restore uses it to fast-forward a
    re-attached stream.
    """

    def take(self) -> Job | None:
        """Next job, or None once the stream has permanently ended.

        Implementations must *block* until a job or end-of-stream: a
        transient None would let the engine process later-timestamped
        events before an arrival it has not seen yet, breaking the
        equivalence with a run that knew the stream up front.  (The
        service layer's stdin feed converts SIGTERM into end-of-stream
        so a blocked take unblocks on shutdown.)
        """
        return None

    @property
    def exhausted(self) -> bool:
        """True once no further job can ever be taken."""
        return True

    @property
    def consumed(self) -> int:
        """Jobs emitted via :meth:`take` so far."""
        return 0


class StaticSource(ArrivalSource):
    """A job list known up front, handed out in arrival order.

    The list is sorted once, stably, so equal arrivals keep the order
    they were given in, which fixes their same-instant tie-break.
    :meth:`take` hands out one job and drops the list's reference to
    it, so a taken job is named only by the engine; :meth:`remaining`
    lists the jobs not taken yet without taking them.  A pickled source
    holds only those.
    """

    def __init__(self, jobs: Iterable[Job]) -> None:
        self._jobs: list[Job | None] = sorted(jobs, key=lambda j: j.arrival_time)
        self._next = 0  # index in _jobs of the next job to hand out
        self._consumed = 0

    def remaining(self) -> Iterator[Job]:
        """The jobs not taken yet, in the order :meth:`take` hands them out."""
        return islice(self._jobs, self._next, None)

    def take(self) -> Job | None:
        i = self._next
        if i == len(self._jobs):
            return None
        job, self._jobs[i] = self._jobs[i], None
        self._next = i + 1
        self._consumed += 1
        return job

    @property
    def exhausted(self) -> bool:
        return self._next == len(self._jobs)

    @property
    def consumed(self) -> int:
        return self._consumed

    def __getstate__(self):
        return {"_jobs": self._jobs[self._next :], "_next": 0, "_consumed": self._consumed}


class GeneratorSource(ArrivalSource):
    """Pull source over any job iterator (generator, list iterator, …).

    Enforces the non-decreasing-arrival contract at the source boundary
    so a violation names the offending job before the engine sees it.
    Not checkpointable — a live generator's continuation can't be
    serialized; use :class:`JsonlSource` or :class:`StaticSource` when
    sessions must survive a restore.
    """

    def __init__(self, jobs: Iterable[Job]) -> None:
        self._it: Iterator[Job] = iter(jobs)
        self._exhausted = False
        self._consumed = 0
        self._last_arrival = float("-inf")

    def take(self) -> Job | None:
        if self._exhausted:
            return None
        try:
            job = next(self._it)
        except StopIteration:
            self._exhausted = True
            return None
        if job.arrival_time < self._last_arrival:
            raise ValueError(
                f"job {job.job_id}: arrival {job.arrival_time:g} out of order "
                f"(previous arrival {self._last_arrival:g})"
            )
        self._last_arrival = job.arrival_time
        self._consumed += 1
        return job

    @property
    def exhausted(self) -> bool:
        return self._exhausted

    @property
    def consumed(self) -> int:
        return self._consumed

    def __getstate__(self):
        raise TypeError(
            "GeneratorSource is not checkpointable (live iterator); "
            "use JsonlSource or StaticSource for resumable sessions"
        )


class JsonlSource(ArrivalSource):
    """Pull source over a JSONL stream of job-spec lines.

    Each non-blank line is one JSON object in the `repro-trace-v1` job
    schema (see ``workload/google_trace.py``: name, arrival_time,
    phases[]; optional job_id).  Lines lacking an explicit ``job_id``
    get a deterministic sequential id (the stream ordinal), so a
    restored session re-reading the same stream materializes identical
    jobs — the process-global job counter is not stable across legs.

    A line that fails to decode or validate raises ``ValueError``
    prefixed with its stream ordinal (``JSONL line k``: the 0-based
    count of non-blank lines before it, the id a line without
    ``job_id`` gets).

    Checkpointable by detaching: pickling keeps the consumed count, the
    ordering watermark and the (terminal) exhaustion flag; a revived
    mid-stream source refuses :meth:`take` until :meth:`attach` re-binds
    a line iterator (``skip_consumed=True`` fast-forwards a stream
    restarted from the beginning; pass False when the stream itself
    resumes mid-way, e.g. a still-open socket).  A source revived from a
    cut *after* end-of-stream stays exhausted — attach re-binds bytes,
    it never un-ends the stream.
    """

    def __init__(
        self,
        lines: Iterable[str] | None = None,
        *,
        decoder: Callable[[dict], Job] | None = None,
    ) -> None:
        self._lines: Iterator[str] | None = iter(lines) if lines is not None else None
        self._decoder = decoder
        self._exhausted = False
        self._consumed = 0
        self._last_arrival = float("-inf")

    def _decode(self, line: str) -> Job:
        obj = json.loads(line)
        if self._decoder is not None:
            return self._decoder(obj)
        from repro.workload.google_trace import job_from_spec, spec_from_dict

        spec = spec_from_dict(obj)
        if spec.job_id is None:
            spec = type(spec)(
                name=spec.name,
                arrival_time=spec.arrival_time,
                phases=spec.phases,
                job_id=self._consumed,
            )
        return job_from_spec(spec)

    def take(self) -> Job | None:
        if self._exhausted:
            return None
        if self._lines is None:
            raise RuntimeError(
                "JsonlSource is detached (restored from checkpoint); "
                "call attach(lines) before resuming the session"
            )
        for line in self._lines:
            if not line.strip():
                continue
            try:
                job = self._decode(line)
            except KeyError as exc:
                raise ValueError(f"JSONL line {self._consumed}: missing {exc}") from exc
            except (ValueError, TypeError) as exc:
                raise ValueError(f"JSONL line {self._consumed}: {exc}") from exc
            if job.arrival_time < self._last_arrival:
                raise ValueError(
                    f"JSONL line {self._consumed}: job {job.job_id}: arrival "
                    f"{job.arrival_time:g} out of order "
                    f"(previous arrival {self._last_arrival:g})"
                )
            self._last_arrival = job.arrival_time
            self._consumed += 1
            return job
        self._exhausted = True
        return None

    def attach(self, lines: Iterable[str], *, skip_consumed: bool = True) -> None:
        """Re-bind a line iterator after a checkpoint restore.

        Exhaustion is terminal: a checkpoint cut *after* end-of-stream
        revives with ``exhausted`` already True, and attach keeps it
        that way.  Clearing the flag here (the historical behaviour)
        made ``workload_active()`` count the source as pending work
        forever, so the fault-renewal chain never wound down and the
        restored leg drained clear to ``max_time`` instead of stopping
        where the original run stopped.
        """
        it = iter(lines)
        if skip_consumed:
            seen = 0
            while seen < self._consumed:
                line = next(it, None)
                if line is None:
                    raise ValueError(
                        f"stream ended after {seen} jobs while fast-forwarding "
                        f"past {self._consumed} already-consumed jobs"
                    )
                if line.strip():
                    seen += 1
        self._lines = it

    @property
    def exhausted(self) -> bool:
        return self._exhausted

    @property
    def consumed(self) -> int:
        return self._consumed

    def __getstate__(self):
        return {
            "_lines": None,
            "_decoder": None,
            "_exhausted": self._exhausted,
            "_consumed": self._consumed,
            "_last_arrival": self._last_arrival,
        }
