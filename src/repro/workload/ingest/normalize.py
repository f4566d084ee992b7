"""Streaming trace-row → :class:`TraceJobSpec` normalization.

The assembler consumes the uniform :class:`~.readers.TraceRow` stream
and emits fully-formed job specs in non-decreasing arrival order — the
contract every :class:`~repro.workload.arrivals.ArrivalSource` needs —
doing O(1) work per row outside the periodic linger sweep.  Its working
set is the open job builders, the rows inside the reorder window, the
closed specs waiting for an earlier job to close, the reader's one
chunk of lines (:data:`~.readers.CHUNK_BYTES`), and the keys of the
last :data:`CLOSED_KEY_MEMORY` closed jobs at about 80 bytes a key
(75–145 while the set grows).  Builders and window follow trace
concurrency, the waiting specs how long the earliest open job stays
open, and the key memory grows with trace length until it is full.

Pipeline stages, all single-pass:

1. **Ordering** — rows may arrive up to ``reorder_window`` seconds out
   of order (Alibaba's batch_task table interleaves by job, not time);
   a min-heap delays each row until the watermark passes.  A row older
   than the watermark is an *out-of-order timestamp* error, never a
   silent drop.
2. **Assembly** — per-job builders accumulate task events (Google) or
   task groups (Alibaba).  Duplicate task submissions / duplicate task
   groups and rows for already-emitted jobs are *duplicate id* errors.
3. **Demand scaling** — raw schema units map deterministically to
   cores/GB via a per-schema :class:`DemandScale`; a request exceeding
   the schema's machine capacity is a *capacity* error.
4. **Finalization** — a job closes once the watermark passes ``linger``
   seconds of job inactivity while no task is running, or at end of
   stream.  Closure is never eager: a Google job may submit more tasks
   after the current ones all finished, and a scheduled task may run for
   days before its FINISH row, so only sustained *idle* silence (or EOF)
   ends a job.
5. **Emission** — closed jobs wait in an arrival-ordered pending heap
   until no open or future job can precede them, then stream out with
   dense stream-ordinal ``job_id``s (0, 1, 2, …).

Every numeric derivation (θ from the observed duration mean, σ from the
population standard deviation, demand means) is a pure function of the
input bytes, so two ingestions of the same file are byte-identical —
the property the ``identity`` CI gate pins.
"""

from __future__ import annotations

import heapq
import math
from collections import OrderedDict, deque
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from repro.workload.google_trace import PhaseSpec, TraceJobSpec
from repro.workload.ingest.errors import TraceFormatError
from repro.workload.ingest.readers import TraceReader, TraceRow

__all__ = [
    "DemandScale",
    "SCHEMA_SCALES",
    "REORDER_WINDOWS",
    "normalize_stream",
]


@dataclass(frozen=True)
class DemandScale:
    """Deterministic raw-units → (cores, GB) mapping for one schema.

    ``max_cpu``/``max_mem`` bound the *raw* request a single row may
    carry — one machine's worth in the schema's own units.  A row above
    the bound is malformed (a task that can never be placed), reported
    as a capacity error rather than scaled down silently.
    ``floor_cpu``/``floor_mem`` replace all-zero requests (common in the
    Google traces for free-tier work) so materialized phases always
    demand some resource.
    """

    cpu: float
    mem: float
    max_cpu: float
    max_mem: float
    floor_cpu: float = 0.05
    floor_mem: float = 0.05

    def apply(self, cpu: float | None, mem: float | None, row: TraceRow,
              *, schema: str, path) -> tuple[float, float]:
        raw_cpu = cpu if cpu is not None else 0.0
        raw_mem = mem if mem is not None else 0.0
        if raw_cpu < 0 or raw_mem < 0:
            raise TraceFormatError(
                f"negative resource request (cpu={raw_cpu:g}, mem={raw_mem:g})",
                path=path, line=row.line, schema=schema,
            )
        if raw_cpu > self.max_cpu or raw_mem > self.max_mem:
            raise TraceFormatError(
                f"resource request exceeds machine capacity "
                f"(cpu={raw_cpu:g}/{self.max_cpu:g}, "
                f"mem={raw_mem:g}/{self.max_mem:g} raw units)",
                path=path, line=row.line, schema=schema,
            )
        scaled_cpu = raw_cpu * self.cpu
        scaled_mem = raw_mem * self.mem
        if scaled_cpu <= 0.0 and scaled_mem <= 0.0:
            return self.floor_cpu, self.floor_mem
        return scaled_cpu, scaled_mem


#: Per-schema scaling.  Google requests are fractions of the largest
#: machine — modelled as 32 cores / 64 GB, matching the simulator's
#: mid-size server classes.  Alibaba plan_cpu is percent-of-core
#: (100 = 1 core, machines are 96 cores) and plan_mem is normalized to
#: 100 = one machine's memory, mapped onto the same 64 GB machine.
#: Frozen: shared module state must stay immutable (repro-lint RL014).
SCHEMA_SCALES: Mapping[str, DemandScale] = MappingProxyType({
    "google2011": DemandScale(cpu=32.0, mem=64.0, max_cpu=1.0, max_mem=1.0),
    "google2019": DemandScale(cpu=32.0, mem=64.0, max_cpu=1.0, max_mem=1.0),
    "alibaba2018": DemandScale(cpu=0.01, mem=0.64, max_cpu=9600.0, max_mem=100.0),
})

#: How far out of time order each schema's rows may legally arrive (s).
#: Google event tables are timestamp-sorted; Alibaba batch_task is
#: grouped by job, so intervals interleave within a generous window.
#: Frozen: shared module state must stay immutable (repro-lint RL014).
REORDER_WINDOWS: Mapping[str, float] = MappingProxyType({
    "google2011": 0.0,
    "google2019": 0.0,
    "alibaba2018": 900.0,
})

#: Closed-job keys remembered for duplicate detection, oldest forgotten
#: first.  Bounded so the memory stops growing with trace length;
#: duplicates further apart than this many jobs are indistinguishable
#: from new jobs.
CLOSED_KEY_MEMORY = 100_000


def _closed_key(key: str) -> int | str:
    """``key`` as the closed-key memory holds it.

    A canonical ASCII decimal (ASCII digits only, no leading zero unless
    it is ``"0"``) is held as its int: 32 bytes for a ten-digit Google job
    ID, whose str takes 59 (51 on Python 3.12).  Any other key stays a
    str.  Distinct keys map to distinct values and no str equals an int,
    so membership answers exactly as it would for the raw keys.
    Non-ASCII digits stay str, because ``int("\u0667") == 7``.
    """
    if key.isascii() and key.isdigit() and (key[0] != "0" or len(key) == 1):
        return int(key)
    return key


class _TaskAcc:
    """Lifecycle accumulator for one Google task."""

    __slots__ = ("cpu", "mem", "scheduled_at", "duration", "done", "running")

    def __init__(self, cpu: float | None, mem: float | None) -> None:
        self.cpu = cpu
        self.mem = mem
        self.scheduled_at: float | None = None
        self.duration: float | None = None
        self.done = False
        self.running = False


class _JobBuilder:
    """Accumulates one trace job until it can be finalized."""

    __slots__ = (
        "key", "arrival", "last_activity", "tasks", "groups", "kind",
        "ordinal", "running",
    )

    def __init__(self, key: str, arrival: float, kind: str, ordinal: int) -> None:
        self.key = key
        self.arrival = arrival
        self.last_activity = arrival
        self.kind = kind
        self.ordinal = ordinal
        # Scheduled-but-unterminated tasks: while > 0 the job is live no
        # matter how long its tasks run, so the linger sweep skips it.
        self.running = 0
        # event-based: task index → _TaskAcc
        self.tasks: dict[int, _TaskAcc] = {}
        # group-based: list of (phase_name, parents, instances, duration,
        #                       cpu, mem) in row order
        self.groups: list[tuple[str, tuple[int, ...], int, float | None,
                                float | None, float | None]] = []

def _mean_std(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return mean, math.sqrt(max(var, 0.0))


def _build_event_spec(
    builder: _JobBuilder,
    *,
    schema: str,
    epoch: float,
    default_theta: float,
    min_theta: float,
) -> TraceJobSpec:
    """One single-phase spec from a Google task-event job."""
    durations = sorted(
        t.duration for t in builder.tasks.values() if t.duration is not None
    )
    if durations:
        theta, sigma = _mean_std(durations)
    else:
        theta, sigma = default_theta, 0.0
    theta = max(theta, min_theta)
    # Demand: mean scaled request over the submitted tasks (requests
    # were validated and scaled when each task was ingested).
    cpus = [t.cpu for t in builder.tasks.values()]
    mems = [t.mem for t in builder.tasks.values()]
    cpu = sum(cpus) / len(cpus)
    mem = sum(mems) / len(mems)
    phase = PhaseSpec(
        num_tasks=len(builder.tasks),
        cpu=cpu,
        mem=mem,
        theta=theta,
        sigma=sigma,
        parents=(),
    )
    return TraceJobSpec(
        name=f"{schema}-{builder.key}",
        arrival_time=builder.arrival - epoch,
        phases=(phase,),
    )


def _build_group_spec(
    builder: _JobBuilder,
    *,
    schema: str,
    epoch: float,
    default_theta: float,
    min_theta: float,
) -> TraceJobSpec:
    """A DAG spec from an Alibaba task-group job.

    DAG-named groups (``M1``, ``J3_1_2``) are ordered by phase number
    and re-indexed densely; parent references to phases absent from the
    excerpt are dropped (truncation artefact), while a parent that does
    not *precede* its child after ordering is a malformed DAG.  Opaque
    ``task_…`` names become independent phases in row order.
    """
    dag = [g for g in builder.groups if g[0].isdigit()]
    opaque = [g for g in builder.groups if not g[0].isdigit()]
    dag.sort(key=lambda g: int(g[0]))
    rank = {name: i for i, (name, *_rest) in enumerate(dag)}
    phases: list[PhaseSpec] = []
    for i, (name, parents, instances, duration, cpu, mem) in enumerate(dag):
        mapped = tuple(
            sorted(rank[str(p)] for p in parents if str(p) in rank)
        )
        if any(p >= i for p in mapped):
            raise TraceFormatError(
                f"job {builder.key!r}: phase {name} lists a non-preceding "
                f"parent (cyclic or self-referential DAG)",
                schema=schema,
            )
        theta = max(duration if duration is not None else default_theta, min_theta)
        phases.append(
            PhaseSpec(
                num_tasks=instances,
                cpu=cpu if cpu is not None else 0.0,
                mem=mem if mem is not None else 0.0,
                theta=theta,
                sigma=0.0,
                parents=mapped,
            )
        )
    for _name, _parents, instances, duration, cpu, mem in opaque:
        theta = max(duration if duration is not None else default_theta, min_theta)
        phases.append(
            PhaseSpec(
                num_tasks=instances,
                cpu=cpu if cpu is not None else 0.0,
                mem=mem if mem is not None else 0.0,
                theta=theta,
                sigma=0.0,
                parents=(),
            )
        )
    return TraceJobSpec(
        name=f"{schema}-{builder.key}",
        arrival_time=builder.arrival - epoch,
        phases=tuple(phases),
    )


def _ordered(
    rows: Iterable[TraceRow], window: float, *, schema: str, path
) -> Iterator[TraceRow]:
    """Release rows in time order, tolerating ``window`` of disorder."""
    if window <= 0.0:
        last = -math.inf
        for row in rows:
            if row.time < last:
                raise TraceFormatError(
                    f"out-of-order timestamp {row.time:g} after {last:g}",
                    path=path, line=row.line, schema=schema,
                )
            last = row.time
            yield row
        return
    heap: list[tuple[float, int, TraceRow]] = []
    seq = 0
    watermark = -math.inf
    for row in rows:
        if row.time < watermark - window:
            raise TraceFormatError(
                f"out-of-order timestamp {row.time:g} is more than "
                f"{window:g}s behind the stream high-water mark {watermark:g}",
                path=path, line=row.line, schema=schema,
            )
        watermark = max(watermark, row.time)
        heapq.heappush(heap, (row.time, seq, row))
        seq += 1
        while heap and heap[0][0] <= watermark - window:
            yield heapq.heappop(heap)[2]
    while heap:
        yield heapq.heappop(heap)[2]


def normalize_stream(
    reader: TraceReader,
    *,
    scale: DemandScale | None = None,
    window: tuple[float, float] | None = None,
    min_tasks: int | None = None,
    max_tasks: int | None = None,
    max_jobs: int | None = None,
    default_theta: float = 30.0,
    min_theta: float = 1e-3,
    linger: float = 3600.0,
    reorder_window: float | None = None,
    rebase: bool = True,
) -> Iterator[TraceJobSpec]:
    """Stream :class:`TraceJobSpec` records out of a raw trace reader.

    ``window=(start, end)`` keeps only jobs arriving inside the raw-time
    interval (see :func:`~repro.workload.ingest.filters.find_peak_window`)
    and rebases arrivals to the window start.  ``min_tasks``/``max_tasks``
    are the concentrated-task filter; ``max_jobs`` stops the stream
    early (fixture excerpts, smoke runs).  Emitted specs carry dense
    stream-ordinal ``job_id``s and non-decreasing ``arrival_time``.
    """
    schema = reader.schema
    path = reader.path
    if scale is None:
        scale = SCHEMA_SCALES[schema]
    if reorder_window is None:
        reorder_window = REORDER_WINDOWS[schema]

    # Open builders in open order.  Rows come out of _ordered in
    # non-decreasing time, so builders open in non-decreasing arrival and
    # the first one holds the earliest open arrival.  An OrderedDict, not
    # a dict: a dict's first entry is found by skipping the slots that
    # closed builders left at its front, an OrderedDict's in O(1).
    open_jobs: OrderedDict[str, _JobBuilder] = OrderedDict()
    # Closed keys as a set for lookup plus a FIFO for eviction.
    closed_keys: set[int | str] = set()
    closed_order: deque[int | str] = deque()
    # Min-heap of finalized specs keyed by (raw arrival, open ordinal):
    # builders open in arrival order, so the tie-break is deterministic.
    pending: list[tuple[float, int, TraceJobSpec]] = []
    opened = 0
    emitted = 0
    epoch: float | None = None

    def remember_closed(key: str) -> None:
        # A key is never remembered twice: its rows raise a duplicate
        # until it is forgotten, so the FIFO holds each key once.
        held = _closed_key(key)
        closed_keys.add(held)
        closed_order.append(held)
        if len(closed_order) > CLOSED_KEY_MEMORY:
            closed_keys.remove(closed_order.popleft())

    def finalize(builder: _JobBuilder) -> None:
        base = epoch if epoch is not None else 0.0
        if window is not None:
            if not (window[0] <= builder.arrival < window[1]):
                remember_closed(builder.key)
                return
            base = window[0] if rebase else 0.0
        if builder.kind == "event":
            spec = _build_event_spec(
                builder, schema=schema, epoch=base,
                default_theta=default_theta, min_theta=min_theta,
            )
        else:
            spec = _build_group_spec(
                builder, schema=schema, epoch=base,
                default_theta=default_theta, min_theta=min_theta,
            )
        remember_closed(builder.key)
        n = spec.num_tasks()
        if min_tasks is not None and n < min_tasks:
            return
        if max_tasks is not None and n > max_tasks:
            return
        heapq.heappush(pending, (builder.arrival, builder.ordinal, spec))

    def releasable() -> Iterator[TraceJobSpec]:
        """Emit pending specs no open job can still precede."""
        nonlocal emitted
        while pending:
            if max_jobs is not None and emitted >= max_jobs:
                return
            arrival = pending[0][0]
            if open_jobs and next(iter(open_jobs.values())).arrival < arrival:
                return
            _, _, spec = heapq.heappop(pending)
            spec = replace(spec, job_id=emitted)
            emitted += 1
            yield spec

    def ingest_event(row: TraceRow, builder: _JobBuilder) -> None:
        builder.last_activity = max(builder.last_activity, row.time)
        if row.event == "submit":
            if row.task in builder.tasks:
                raise TraceFormatError(
                    f"duplicate submit for task {row.task} of job "
                    f"{builder.key!r}",
                    path=path, line=row.line, schema=schema,
                )
            cpu, mem = scale.apply(row.cpu, row.mem, row, schema=schema, path=path)
            builder.tasks[row.task] = _TaskAcc(cpu, mem)
            return
        acc = builder.tasks.get(row.task)
        if acc is None:
            # SCHEDULE/FINISH for a task submitted before the excerpt
            # started: open an implicit submission so durations count.
            cpu, mem = scale.apply(row.cpu, row.mem, row, schema=schema, path=path)
            acc = _TaskAcc(cpu, mem)
            builder.tasks[row.task] = acc
        if row.event == "schedule":
            acc.scheduled_at = row.time
            acc.done = False
            if not acc.running:
                acc.running = True
                builder.running += 1
        elif row.event == "finish":
            if acc.scheduled_at is not None:
                acc.duration = row.time - acc.scheduled_at
            acc.done = True
            if acc.running:
                acc.running = False
                builder.running -= 1
        elif row.event == "dead":
            acc.done = True
            if acc.running:
                acc.running = False
                builder.running -= 1

    def ingest_group(row: TraceRow, builder: _JobBuilder) -> None:
        builder.last_activity = max(
            builder.last_activity, row.end if row.end is not None else row.time
        )
        if any(g[0] == row.phase for g in builder.groups):
            raise TraceFormatError(
                f"duplicate task group {row.phase!r} in job {builder.key!r}",
                path=path, line=row.line, schema=schema,
            )
        # Validate the request eagerly so the error names this line.
        cpu, mem = scale.apply(row.cpu, row.mem, row, schema=schema, path=path)
        duration = (row.end - row.time) if row.end is not None else None
        builder.groups.append(
            (row.phase, row.parents, row.instances, duration, cpu, mem)
        )

    # Stale-job sweeps run on a coarse trace-time stride, not per row,
    # so the linger scan costs O(open) once per stride instead of per row.
    sweep_stride = max(linger / 4.0, 1.0)
    next_sweep = -math.inf

    for row in _ordered(reader.rows(), reorder_window, schema=schema, path=path):
        if max_jobs is not None and emitted >= max_jobs:
            return
        if epoch is None and rebase:
            epoch = row.time
        builder = open_jobs.get(row.job)
        if builder is None:
            if _closed_key(row.job) in closed_keys:
                raise TraceFormatError(
                    f"duplicate job id {row.job!r}: job was already "
                    "finalized earlier in the stream",
                    path=path, line=row.line, schema=schema,
                )
            # A first-visible event that isn't a submit means the job
            # began before the excerpt; its arrival is the first row seen.
            builder = _JobBuilder(row.job, row.time, row.kind, opened)
            opened += 1
            open_jobs[row.job] = builder
        if row.kind == "event":
            ingest_event(row, builder)
        else:
            ingest_group(row, builder)
        # Jobs close by inactivity (linger), never eagerly: a Google job
        # may submit more tasks after all current ones finished, so
        # "all tasks done" is not evidence the job ended.  A job with a
        # scheduled-but-unterminated task is live however long that task
        # runs — its eventual FINISH row must not hit a closed key.
        if row.time >= next_sweep:
            next_sweep = row.time + sweep_stride
            horizon = row.time - linger
            stale = sorted(
                k for k, b in open_jobs.items()
                if b.running == 0 and b.last_activity < horizon
            )
            for k in stale:
                finalize(open_jobs.pop(k))
        if pending:
            yield from releasable()

    for key in sorted(open_jobs):
        finalize(open_jobs.pop(key))
    yield from releasable()
