"""Reference kernels: the plain form of every optimized production kernel.

``src/`` keeps one path per kernel — the block-indexed availability
mirror, the batched doubling-category knapsack, the cached clone fill,
lazy priorities.  The equivalence tests compare it, launch for launch,
against the direct forms kept here:

* :func:`best_fit` — the per-server best-fit loop behind
  ``Cluster.best_fit_server`` and Tetris' rescore;
* :func:`fill_tasks` — the candidate task fill, built on that loop;
* :func:`fill_clones` — the clone fill, one fresh loop per clone;
* :func:`compute_priorities` — Algorithm 1 as the paper states it, one
  knapsack call per doubling level;
* :func:`max_count_knapsack_exact` — an exact dynamic program for the
  knapsack oracle;
* :class:`EagerDollyMP` — DollyMP recomputing priorities at every
  arrival;
* :func:`validate_dag` — phase-graph validation by depth-first search,
  an oracle independent of the Kahn's-algorithm check in ``src/``;
* :func:`jobs_from_specs` — spec → job materialization in its eager
  form: a fresh demand vector per phase, h(r) fitted when the phase is
  built, and every phase graph run through Kahn's sort;
* :func:`record_for_job` — a finished job's record walked from its
  tasks' copies, where production reads the ledgers they fold into;
* :class:`SpanTracer` — the span tracer keeping each closed span as a
  ``Span`` object in a list, where production keeps columns;
* :func:`normalize_stream` — trace rows → job specs with closed keys
  in an ``OrderedDict`` of strs and a ``min()`` over every open builder
  on each release check, where production holds decimal keys as ints
  and reads the first open builder.

The :func:`reference_kernels` fixture patches the first four into
production for one test; :class:`EagerDollyMP` is chosen by
constructing it, and :class:`SpanTracer` by handing one to an
``Observability`` as its ``tracer``.
"""

from __future__ import annotations

import heapq
import json
import math
import time
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.core import online
from repro.core.knapsack import max_count_knapsack
from repro.core.online import DollyMPScheduler
from repro.core.transient import num_levels
from repro.observability.spans import DEFAULT_SPAN_MAXLEN, SPAN_SCHEMA, Span
from repro.schedulers import packing
from repro.schedulers.tetris import TetrisScheduler
from repro.resources import Resources
from repro.sim.actions import Launch
from repro.sim.metrics import JobRecord
from repro.workload import dag
from repro.workload.distributions import Deterministic, ParetoType1
from repro.workload.google_trace import TraceJobSpec
from repro.workload.ingest import normalize as ingest_normalize
from repro.workload.ingest.errors import TraceFormatError
from repro.workload.ingest.normalize import (
    REORDER_WINDOWS,
    SCHEMA_SCALES,
    DemandScale,
    _build_event_spec,
    _build_group_spec,
    _JobBuilder,
    _ordered,
    _TaskAcc,
)
from repro.workload.ingest.readers import TraceReader, TraceRow
from repro.workload.job import Job
from repro.workload.phase import Phase, _default_speedup
from repro.workload.task import TaskState


def best_fit(servers, demand, weight=None):
    """(server, score) maximizing ``demand·available`` over the up
    servers ``demand`` fits, or ``(None, -1.0)``.  ``weight(server)``
    scales each score; strict ``>`` keeps the lowest id on ties."""
    best, best_score = None, -1.0
    for s in servers:
        if not s.up:
            continue
        avail = s.available
        if not demand.fits_in(avail):
            continue
        score = demand.dot(avail)
        if weight is not None:
            score *= weight(s)
        if score > best_score:
            best, best_score = s, score
    return best, best_score


class _Candidate:
    """One phase's queue of pending tasks and its current best server."""

    def __init__(self, phase, tasks, servers, weight) -> None:
        self.phase = phase
        self.queue = list(tasks)  # consumed from the end
        self.rescore(servers, weight)

    def rescore(self, servers, weight) -> None:
        self.server, self.score = best_fit(servers, self.phase.demand, weight)


def fill_tasks(view, phases_with_tasks, *, on_launch=None, server_weight=None):
    """Task fill: launch the highest-scoring (candidate, best server)
    pair, one task at a time; the earliest candidate wins ties.  A launch
    rescores the candidates whose best server it shrank."""
    servers = list(view.cluster)
    cands = [
        _Candidate(phase, tasks, servers, server_weight)
        for phase, tasks in phases_with_tasks
        if tasks
    ]
    launched = 0
    while True:
        cands = [c for c in cands if c.queue and c.server is not None]
        if not cands:
            return launched
        best = cands[0]
        for c in cands[1:]:
            if c.score > best.score:
                best = c
        task, server = best.queue.pop(), best.server
        view.apply(Launch(task, server))
        if on_launch is not None:
            on_launch(task, server)
        launched += 1
        for c in cands:
            if c.server is not None and c.server.server_id == server.server_id:
                c.rescore(servers, server_weight)


def fill_clones(
    view, tasks, *, budget_check=None, max_launches=None, on_launch=None, score_cache=None
):
    """Clone fill: one clone per listed running task, on the server a
    fresh best-fit loop picks (``score_cache`` is ignored)."""
    launched = 0
    for task in tasks:
        if max_launches is not None and launched >= max_launches:
            break
        if task.state is not TaskState.RUNNING:
            continue
        if budget_check is not None and not budget_check(task):
            continue
        server, _ = best_fit(view.cluster, task.demand)
        if server is None:
            continue
        view.apply(Launch(task, server, clone=True))
        if on_launch is not None:
            on_launch(task, server)
        launched += 1
    return launched


def compute_priorities(measures):
    """Algorithm 1, steps 2–11: at each doubling level l the knapsack
    packs the jobs of length ≤ 2^l into volume 2^l, and a job's priority
    is the first level that packs it (g + 1 if none does)."""
    g = num_levels(measures)
    priorities: dict[int, int] = {}
    for level in range(1, g + 1):
        cap = 2.0**level
        eligible = [m for m in measures if m.length <= cap]
        for idx in max_count_knapsack([m.volume for m in eligible], cap):
            priorities.setdefault(eligible[idx].job_id, level)
    for m in measures:
        priorities.setdefault(m.job_id, g + 1)
    return priorities


def max_count_knapsack_exact(
    weights: Sequence[float],
    capacity: float,
    *,
    profits: Sequence[int] | None = None,
) -> list[int]:
    """Exact 0/1 knapsack by dynamic programming over total profit.

    ``dp[p]`` = minimum weight achieving profit exactly ``p``; the answer
    is the largest ``p`` with ``dp[p] ≤ capacity``.  With unit profits
    this is O(n²) — the complexity the paper quotes for the oracle — and
    agrees with the greedy; with general integer profits it solves the
    weighted variant used in ablations.
    """
    if capacity < 0:
        raise ValueError(f"capacity must be non-negative, got {capacity}")
    w = [float(x) for x in weights]
    if any(x < 0 for x in w):
        raise ValueError("weights must be non-negative")
    n = len(w)
    p = [1] * n if profits is None else [int(x) for x in profits]
    if len(p) != n:
        raise ValueError("profits length must match weights")
    if any(x < 0 for x in p):
        raise ValueError("profits must be non-negative")
    total_profit = sum(p)
    INF = float("inf")
    # dp[i][prof] = min weight achieving profit `prof` using items < i.
    # Full table (not rolled) so the witness reconstruction is exact.
    dp = np.full((n + 1, total_profit + 1), INF)
    dp[0][0] = 0.0
    for i in range(n):
        dp[i + 1] = dp[i].copy()
        shifted = dp[i][: total_profit + 1 - p[i]] + w[i] if p[i] > 0 else dp[i] + w[i]
        if p[i] > 0:
            np.minimum(dp[i + 1][p[i] :], shifted, out=dp[i + 1][p[i] :])
        else:
            np.minimum(dp[i + 1], shifted, out=dp[i + 1])
    cap = capacity * (1 + 1e-12)
    feasible = np.nonzero(dp[n] <= cap)[0]
    best = int(feasible[-1]) if feasible.size else 0
    # Reconstruct a witness subset walking the table backwards.
    selected: list[int] = []
    prof = best
    for i in range(n - 1, -1, -1):
        if dp[i + 1][prof] == dp[i][prof]:
            continue  # item i not needed for this profit
        selected.append(i)
        prof -= p[i]
    selected.reverse()
    return selected


class EagerDollyMP(DollyMPScheduler):
    """DollyMP on its eager priority path: overriding
    ``recompute_priorities`` makes every arrival rerun Algorithm 1 over
    the whole roster instead of arming a deferred recompute."""

    def recompute_priorities(self, view) -> None:
        super().recompute_priorities(view)


def validate_dag(parents) -> None:
    """``repro.workload.dag.validate_dag`` by depth-first search: the
    same range and self-loop errors in the same scan order, then a
    three-colour DFS that raises on the first back edge."""
    n = len(parents)
    for child, ps in enumerate(parents):
        for p in ps:
            if type(p) is bool or not isinstance(p, int):
                raise ValueError(f"phase {child}: parent {p!r} is not an integer")
            if not (0 <= p < n):
                raise ValueError(f"phase {child}: parent {p} out of range")
            if p == child:
                raise ValueError(f"phase {child} depends on itself")
    state = [0] * n  # 0 unvisited, 1 on the DFS stack, 2 finished
    for root in range(n):
        if state[root]:
            continue
        state[root] = 1
        stack = [(root, iter(parents[root]))]
        while stack:
            node, edges = stack[-1]
            nxt = next(edges, None)
            if nxt is None:
                state[node] = 2
                stack.pop()
            elif state[nxt] == 1:
                raise ValueError("phase dependencies contain a cycle")
            elif state[nxt] == 0:
                state[nxt] = 1
                stack.append((nxt, iter(parents[nxt])))


def jobs_from_specs(specs) -> list[Job]:
    """``repro.workload.google_trace.jobs_from_specs`` in its eager
    form: one ``Resources.of`` per phase, each phase's h(r) fitted as it
    is built, and each job's phase graph run through Kahn's sort, which
    the index-ordered fast path of ``repro.workload.dag`` skips."""
    jobs = []
    for spec in specs:
        phases = []
        for k, ps in enumerate(spec.phases):
            if ps.sigma > 0:
                dist = ParetoType1.from_moments(ps.theta, ps.sigma)
            else:
                dist = Deterministic(ps.theta)
            phases.append(
                Phase(
                    k,
                    ps.num_tasks,
                    Resources.of(ps.cpu, ps.mem),
                    dist,
                    parents=tuple(ps.parents),
                    name=f"{spec.name}-p{k}",
                    speedup=_default_speedup(dist),
                )
            )
        dag._kahn_order([p.parents for p in phases])  # raises on a cycle
        jobs.append(
            Job(phases, arrival_time=spec.arrival_time, name=spec.name, job_id=spec.job_id)
        )
    return jobs


def record_for_job(job, copies) -> JobRecord:
    """``repro.sim.metrics.record_for_job`` walking copies instead of
    ledgers.  A finished task folds its copies away once its finish hook
    has run, so ``copies[task.uid]`` supplies them, in launch order, as
    a wrapped ``on_task_finish`` saw them; call this before the job's
    graph is released (from ``on_job_finish``)."""
    if job.finish_time is None:
        raise ValueError(f"job {job.job_id} has not finished")
    first_start = min(
        c.start_time for p in job.phases for t in p.tasks for c in copies[t.uid]
    )
    num_copies = 0
    num_clones = 0
    tasks_with_clones = 0
    cpu_seconds = 0.0
    mem_seconds = 0.0
    for phase in job.phases:
        for task in phase.tasks:
            launched = copies[task.uid]
            num_copies += len(launched)
            clones_here = sum(1 for c in launched if c.is_clone)
            num_clones += clones_here
            if clones_here:
                tasks_with_clones += 1
            for c in launched:
                cpu_seconds += phase.demand.cpu * c.duration
                mem_seconds += phase.demand.mem * c.duration
    return JobRecord(
        job_id=job.job_id,
        name=job.name,
        arrival_time=job.arrival_time,
        first_start_time=first_start,
        finish_time=job.finish_time,
        num_phases=job.num_phases,
        num_tasks=job.num_tasks,
        num_copies=num_copies,
        num_clones=num_clones,
        tasks_with_clones=tasks_with_clones,
        cpu_seconds=cpu_seconds,
        mem_seconds=mem_seconds,
    )


class SpanTracer:
    """``repro.observability.spans.SpanTracer`` keeping every closed span
    as a ``Span`` in ``spans``, in the order they closed."""

    def __init__(self, *, maxlen: int = DEFAULT_SPAN_MAXLEN) -> None:
        if maxlen < 1:
            raise ValueError("span maxlen must be positive")
        self.maxlen = maxlen
        self.spans: list[Span] = []
        self.dropped = 0
        self._stack: list[Span] = []
        self._seq = 0

    def enter(self, name: str, now: float, **attrs) -> Span:
        span = Span(
            seq=self._seq,
            name=name,
            depth=len(self._stack),
            parent=self._stack[-1].seq if self._stack else None,
            t_enter=float(now),
            attrs=attrs,
            _wall_start=time.perf_counter(),
        )
        self._seq += 1
        self._stack.append(span)
        return span

    def exit(self, span: Span, now: float) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(f"misnested span exit: closing {span.name!r}")
        self._stack.pop()
        span.t_exit = float(now)
        span.wall_ms = 1e3 * (time.perf_counter() - span._wall_start)
        span._wall_start = None
        if len(self.spans) < self.maxlen:
            self.spans.append(span)
        else:
            self.dropped += 1

    def __len__(self) -> int:
        return len(self.spans)

    def to_dicts(self, *, include_wall: bool = False) -> list[dict]:
        return [
            s.to_dict(include_wall=include_wall)
            for s in sorted(self.spans, key=lambda s: s.seq)
        ]

    def dump_jsonl(self, path, *, include_wall: bool = False) -> None:
        with Path(path).open("w", encoding="utf-8") as fh:
            header = {"schema": SPAN_SCHEMA, "spans": len(self.spans), "dropped": self.dropped}
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for d in self.to_dicts(include_wall=include_wall):
                fh.write(json.dumps(d, sort_keys=True, separators=(",", ":")) + "\n")


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
    """``repro.workload.ingest.normalize_stream`` remembering closed keys
    as an ``OrderedDict`` of their strs, and taking ``min()`` over every
    open builder's arrival on each release check."""
    schema = reader.schema
    path = reader.path
    if scale is None:
        scale = SCHEMA_SCALES[schema]
    if reorder_window is None:
        reorder_window = REORDER_WINDOWS[schema]

    open_jobs: dict[str, _JobBuilder] = {}
    closed_keys: OrderedDict[str, None] = OrderedDict()
    # Min-heap of finalized specs keyed by (raw arrival, open ordinal):
    # builders open in arrival order, so the tie-break is deterministic.
    pending: list[tuple[float, int, TraceJobSpec]] = []
    opened = 0
    emitted = 0
    epoch: float | None = None

    def remember_closed(key: str) -> None:
        closed_keys[key] = None
        if len(closed_keys) > ingest_normalize.CLOSED_KEY_MEMORY:
            closed_keys.popitem(last=False)

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
            if open_jobs and min(b.arrival for b in open_jobs.values()) < arrival:
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
            if row.job in closed_keys:
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
        yield from releasable()

    for key in sorted(open_jobs):
        finalize(open_jobs.pop(key))
    yield from releasable()


def _best_fit_server(cluster, demand):
    return best_fit(cluster, demand)[0]


def _tetris_rescore(scheduler, cand, cluster) -> None:
    server, cand.best_align = best_fit(cluster, cand.phase.demand)
    cand.best_server_id = None if server is None else server.server_id


#: Kernel name → the production attributes its reference replaces.
SWAPS = {
    "best-fit": (
        (Cluster, "best_fit_server", _best_fit_server),
        (TetrisScheduler, "_rescore", _tetris_rescore),
    ),
    "task-fill": ((packing, "_fill_tasks", fill_tasks),),
    "clone-fill": ((packing, "_fill_clones", fill_clones),),
    "priorities": ((online, "compute_priorities", compute_priorities),),
}

KERNELS = tuple(SWAPS)


@pytest.fixture
def reference_kernels(monkeypatch):
    """``swap(*names)`` patches the named :data:`SWAPS` references into
    production until the test ends."""

    def swap(*names: str) -> None:
        for name in names:
            for owner, attr, reference in SWAPS[name]:
                monkeypatch.setattr(owner, attr, reference)

    return swap
