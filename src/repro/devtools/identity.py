"""The identity gate: one determinism matrix (DESIGN.md §5.3).

Rows are workloads, each a list of job specs; columns are the ``none``
and ``chaos`` fault profiles; legs are drivers.  Every leg must match
the one-shot ``run()`` on ``SimulationResult.deterministic()`` and on
decision-journal bytes, so one table checks DollyMP's semantics (clone
cap, first-copy-wins, capacity conservation) under the determinism
contract: streamed, checkpoint-restored and replayed runs are
byte-identical to the one-shot run.  The checkpoint-cut leg records
spans, and each restored run must export its uninterrupted run's
spans byte for byte; some cut must hold a task its phase has not built
yet, and some cut a queued job not built yet, so restores revive
unbuilt slots and jobs known only by their specs.  The one-shot run
itself must match the digests pinned in :data:`ONE_SHOT_DIGESTS`, so a
change that moves every leg alike fails too.

Run:  PYTHONPATH=src python -m repro.devtools.identity [ARTIFACT_DIR]

One line per cell; the first failure names the row, column, leg and
first differing quantity, and the gate exits 1.  ``ARTIFACT_DIR`` gets
the testbed × none replay's metrics (JSON and Prometheus), spans and
decision journal.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterator, Mapping

import numpy as np

from repro.cluster.heterogeneity import homogeneous_cluster, paper_cluster_30_nodes
from repro.core.online import DollyMPScheduler
from repro.faults import FAULT_PROFILES
from repro.observability import Observability
from repro.service import SignalAwareLineFeed, serve
from repro.sim.actions import DecisionTrace
from repro.sim.checkpoint import (
    CHECKPOINT_FORMAT,
    checkpoint_bytes,
    checkpoint_info,
    restore_bytes,
)
from repro.sim.engine import SimulationEngine
from repro.sim.events import EventKind
from repro.sim.metrics import SimulationResult
from repro.sim.replay import ReplayDivergence, assert_replay_identical, replay_trace
from repro.workload.arrivals import JsonlSource
from repro.workload.google_trace import (
    GoogleTraceGenerator,
    PhaseSpec,
    TraceJobSpec,
    jobs_from_specs,
    spec_to_dict,
)
from repro.workload.ingest import (
    TraceIngestSource,
    materialize,
    normalize_stream,
    open_reader,
)
from repro.workload.mapreduce import DEFAULT_CV

__all__ = ["COLUMNS", "LEGS", "IdentityFailure", "build_engine", "main", "run_cell"]

#: Fault-profile columns (keys of ``FAULT_PROFILES``).
COLUMNS = ("none", "chaos")

#: Floor for the testbed × chaos one-shot leg under the sanitizer; it
#: runs 2000+ events/s, so 300 still catches a de-batched event loop.
MIN_EVENTS_PER_SEC = 300.0

#: Checkpoint cuts inside the run, one every ``instants // (CUTS + 1)``
#: instants; one more follows end-of-stream.
CUTS = 3

#: A restored leg that never winds down raises here instead of hanging.
MAX_TIME = 1e6

#: Each cell's one-shot run, pinned: the sha256 of
#: ``repr(result.deterministic())`` and of its decision journal's JSON
#: lines joined by newlines.  Every other leg is compared with the
#: one-shot run of the same tree; these compare that run with the tree
#: that pinned them.  Re-pin only for a change meant to alter results.
ONE_SHOT_DIGESTS: Mapping[tuple[str, str], tuple[str, str]] = MappingProxyType({
    ("testbed", "none"): (
        "ae2a93674ccc3df193ba14b9abaf738a2f5dcc4de490931842d22620ad72c6d7",
        "893e548e6301f2f1d9b39dd956de865efc665ccdda0b2f4a2fcf7b4a5deb1006",
    ),
    ("testbed", "chaos"): (
        "af85e925adff3e0d39f0d775f75dd0af017a92b51d72d189ec529fd44c20d960",
        "48561684defe97af3d563f640d5ba0acc38cff227e10d643591f3ca1f2601374",
    ),
    ("google-synth", "none"): (
        "c03cd2fa18a263125b1a05d4117a6d56b120f0149c373dae1494adba03ddfac4",
        "c485727b14067a10baf3d7d36a60c7ac7547d5c1b84cfba78af5a38dcedc4f0c",
    ),
    ("google-synth", "chaos"): (
        "0a260c9f2c1332d1ed269073f31c1726a146f04d207dd72851250289bd25f714",
        "4809406b2d430e860861ec1e88f9015a5c0226f299e283a654bc9b4423721a38",
    ),
    ("google2011", "none"): (
        "8002529f68c5a6dc1bfa058ebd5f7bded33f4aa7359b5b9460c682384f1883fa",
        "819fb98ca5a1a36f818099854dfe8e18c7557cdb431b27c148446b8b70561775",
    ),
    ("google2011", "chaos"): (
        "e660eca5d522f35ba061c234543038bc1be9a62797a312998559d89db93b934d",
        "ef8ab17e7a2ea4abed14a1905f637ae3b14b49ddbd17aaf2a9fcd248c3066714",
    ),
    ("google2019", "none"): (
        "a50fbfec6b4f1c43595c2700a41231277e83157e02b920ac10fa4dd28038c2b5",
        "f7ffc3ab9e7629a70e7defc79ce88735897ffd13597923800e022830a6eba339",
    ),
    ("google2019", "chaos"): (
        "ace18c63dbb1b12ca9a81697ae584cabbfb52c763697980f5dd2bb96a2c3929c",
        "b3809bac909525e8f4d55332a9ebfdceddcd28daa7fd05924f8d8cd7cd77c858",
    ),
    ("alibaba2018", "none"): (
        "c33f4609cd4326e8a42c6dfcefca9408f576ab3e865fe3c5d83d718594f854e7",
        "191060d4d1dca09c28cfb97586f958215bd1e03b1bad4cada23a70e95d0a9517",
    ),
    ("alibaba2018", "chaos"): (
        "e9e0c190c4b727d025f810f711e174c5c0e6db6622594fc0eea54afc86a1fe17",
        "f9191fb26d732a02b4151ea79e3a226a4cbb0d901210250b429fbe021fc01453",
    ),
})


class IdentityFailure(Exception):
    """``leg`` of a cell diverged from the one-shot leg or failed a check."""

    def __init__(self, row: str, column: str, leg: str, detail: str) -> None:
        super().__init__(f"{row} × {column} {leg}: {detail}")
        self.row, self.column, self.leg, self.detail = row, column, leg, detail


class CheckFailed(Exception):
    """A leg's own check failed (reported without the exception type)."""


@dataclass(frozen=True)
class Row:
    """One workload.  ``raw`` is the (file, schema) of a trace row, whose
    pull source re-ingests the file; other rows pull JSONL spec lines."""

    name: str
    specs: tuple[TraceJobSpec, ...]
    cluster: Callable
    seed: int
    schedule_interval: float = 5.0
    sanitize: bool = False
    raw: tuple[Path, str] | None = None

    def jobs(self):
        return jobs_from_specs(self.specs)

    def lines(self) -> list[str]:
        return [json.dumps(spec_to_dict(s), sort_keys=True) for s in self.specs]

    def stream(self):
        """The pull source's input, from the beginning."""
        if self.raw is None:
            return iter(self.lines())
        return normalize_stream(open_reader(*self.raw), max_jobs=len(self.specs))


def _phase(tasks: int, mem: float, theta: float, parents=()) -> PhaseSpec:
    return PhaseSpec(tasks, 1.0, mem, theta, DEFAULT_CV * theta, parents)


def paper_testbed_row() -> Row:
    """The paper's 30-node cluster, 8 jobs 45 s apart alternating
    ``wordcount_job(4.0)`` and ``pagerank_job(1.0)`` as specs (the
    builders' block counts and duration arithmetic); seed 7,
    event-driven, sanitizer on."""
    wc_reduce = max(4.0, 0.5 * 12.0 * 32 / 8 * 0.2)  # wordcount_job's reduce θ
    pr_reduce = max(4.0, 15.0 * 0.4)  # pagerank_job's reduce θ
    wordcount = (_phase(32, 2.0, 12.0), _phase(8, 4.0, wc_reduce, (0,)))
    pagerank = tuple(
        phase
        for k in (0, 2, 4)
        for phase in (
            _phase(8, 2.0, 15.0, (k - 1,) if k else ()),
            _phase(2, 4.0, pr_reduce, (k,)),
        )
    )
    specs = tuple(
        TraceJobSpec("pagerank-1GB", 45.0 * i, pagerank, job_id=i)
        if i % 2
        else TraceJobSpec("wordcount-4GB", 45.0 * i, wordcount, job_id=i)
        for i in range(8)
    )
    return Row(
        "testbed",
        specs,
        paper_cluster_30_nodes,
        seed=7,
        schedule_interval=0.0,
        sanitize=True,
    )


def google_synth_row() -> Row:
    """200 generated jobs at a 6 s mean interarrival on 48 (16, 32)
    servers, seed 11.  No sanitizer: it rescans every task of every
    active job on each event, ~35× this row's run time."""
    specs = GoogleTraceGenerator(seed=202).generate(200, mean_interarrival=6.0)
    pinned = tuple(replace(s, job_id=i) for i, s in enumerate(specs))
    return Row("google-synth", pinned, lambda: homogeneous_cluster(48), seed=11)


#: Seed of each trace row's raw fixture.  ``materialize`` draws one
#: logical trace per seed for every schema, so google2019 draws from a
#: seed of its own: on google2011's seed its engine run (events,
#: decisions, flowtime) was google2011's again and only its reader was
#: under test.
TRACE_FIXTURE_SEEDS = (("google2011", 0), ("google2019", 1), ("alibaba2018", 0))


def trace_rows(fixture_dir: str | Path) -> list[Row]:
    """One row per trace schema: the first 30 jobs of a 500-row raw
    fixture (seeded by :data:`TRACE_FIXTURE_SEEDS`) materialized under
    ``fixture_dir``, on 16 (16, 32) servers, seed 31.  Two ingestion
    passes must give byte-identical JSON."""
    rows = []
    for schema, seed in TRACE_FIXTURE_SEEDS:
        path = materialize(fixture_dir, rows=500, seed=seed, schemas=(schema,))[schema]
        specs = tuple(normalize_stream(open_reader(path, schema), max_jobs=30))
        row = Row(
            schema, specs, lambda: homogeneous_cluster(16), seed=31, raw=(path, schema)
        )
        first, second = (
            json.dumps([spec_to_dict(s) for s in run], sort_keys=True)
            for run in (row.specs, row.stream())
        )
        if first != second:
            raise IdentityFailure(schema, "-", "ingest", "two passes differ")
        rows.append(row)
    return rows


def build_engine(
    row: Row, column: str, jobs, scheduler=DollyMPScheduler
) -> SimulationEngine:
    """One cell's engine: ``scheduler`` with two extra clones per task,
    the row's settings, the column's faults, decision journal on."""
    return SimulationEngine(
        row.cluster(),
        scheduler(max_clones=2),
        jobs,
        seed=row.seed,
        schedule_interval=row.schedule_interval,
        max_time=MAX_TIME,
        sanitize=row.sanitize,
        record_trace=True,
        fault_profile=FAULT_PROFILES[column],
    )


@dataclass
class Cell:
    row: Row
    column: str
    workdir: Path
    artifacts: Path | None = None
    # the one-shot reference
    result: SimulationResult | None = None
    trace: DecisionTrace | None = None
    journal: list[str] | None = None
    instants: int = 0


def _one_shot(cell: Cell) -> None:
    """``run()`` spelled out to count instants, plus the cell's checks
    and its pinned digests."""
    row = cell.row
    engine = build_engine(row, cell.column, row.jobs())
    t0 = time.perf_counter()
    engine.start()
    cell.instants = engine.drain()
    wall = time.perf_counter() - t0
    result = engine.finalize()
    if result.num_jobs != len(row.specs):
        raise CheckFailed(f"{result.num_jobs} of {len(row.specs)} jobs finished")
    if cell.column != "none" and not (result.faults_injected and result.copies_lost):
        raise CheckFailed(f"{result.faults_injected} faults, {result.copies_lost} lost")
    mirror = engine.cluster.mirror
    # Bitwise: a drained server is back at capacity, a down one at zero.
    for stored, cap in zip((mirror.avail_cpu, mirror.avail_mem), mirror.capacity_columns()):
        exposed = np.flatnonzero(stored != np.where(mirror.up, cap, 0.0))
        if len(exposed):
            i = int(exposed[0])
            raise CheckFailed(f"server {i} exposes {mirror.available(i)}")
    rate = engine.events_processed / wall if wall > 0 else float("inf")
    if (row.name, cell.column) == ("testbed", "chaos") and rate < MIN_EVENTS_PER_SEC:
        raise CheckFailed(f"{rate:.0f} events/s, floor {MIN_EVENTS_PER_SEC:.0f}")
    cell.result, cell.trace = result.deterministic(), engine.trace
    cell.journal = _journal(engine.trace)
    pinned = ONE_SHOT_DIGESTS.get((row.name, cell.column))
    if pinned is None:
        raise CheckFailed("no pinned one-shot digests")
    for name, text, pin in zip(
        ("result", "journal"), (repr(cell.result), "\n".join(cell.journal)), pinned
    ):
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest != pin:
            raise CheckFailed(f"{name} digest {digest} differs from the pinned {pin}")


Observation = tuple[str, SimulationResult, DecisionTrace]


def _streamed(cell: Cell) -> Iterator[Observation]:
    """``serve()`` over a line feed, checkpointing and publishing."""
    horizon, ckpt, published = cell.result.simulated_time, cell.workdir / "ckpt", []
    feed = SignalAwareLineFeed(iter(cell.row.lines()))
    engine = build_engine(cell.row, cell.column, JsonlSource(feed))
    result = serve(
        engine,
        feed=feed,
        checkpoint_path=ckpt,
        checkpoint_every=horizon / 5.0,
        on_metrics=lambda eng: published.append(eng.now),
        metrics_every=horizon / 10.0,
        install_signals=False,
    )
    if not published:
        raise CheckFailed("live metrics never published")
    if (fmt := checkpoint_info(ckpt).format) != CHECKPOINT_FORMAT:
        raise CheckFailed(f"checkpoint format {fmt!r}")
    yield "served", result, engine.trace


def _checkpoint_cut(cell: Cell) -> Iterator[Observation]:
    """The row's pull source stepped an instant at a time, recording
    spans, snapshotted at every k-th instant and first after
    end-of-stream; then every snapshot restored, re-attached to a fresh
    stream and drained.  Each restored leg must also export the
    uninterrupted leg's spans byte for byte, some cut must be taken
    while the stream is live, some cut must hold a task not yet built
    and some cut a job not yet built."""
    row, every = cell.row, max(1, cell.instants // (CUTS + 1))
    source = (JsonlSource if row.raw is None else TraceIngestSource)(row.stream())
    engine = SimulationEngine(
        row.cluster(),
        DollyMPScheduler(max_clones=2),
        source,
        seed=row.seed,
        schedule_interval=row.schedule_interval,
        max_time=MAX_TIME,
        sanitize=row.sanitize,
        record_trace=True,
        fault_profile=FAULT_PROFILES[cell.column],
        observability=Observability(metrics=False),
    )
    snapshots, instant, ended = [], 0, False
    unbuilt_task = unbuilt_job = False
    engine.start()
    while engine.step():
        instant += 1
        first_after_end = engine.arrivals.exhausted and not ended
        ended = engine.arrivals.exhausted
        if instant % every == 0 or first_after_end:
            snapshots.append((instant, *checkpoint_bytes(engine)))
            unbuilt_task = unbuilt_task or _holds_unbuilt_task(engine)
            unbuilt_job = unbuilt_job or _holds_unbuilt_job(engine)
    result = engine.finalize()
    spans = _span_export(engine, cell.workdir / "spans.jsonl")
    yield "uninterrupted", result, engine.trace

    jobs, events = len(row.specs), cell.result.events_processed
    inside = [info for _, _, info in snapshots if info.events_processed < events]
    if len(inside) < CUTS:
        raise CheckFailed(f"only {len(inside)} cuts inside the run")
    if not any(0 < info.arrivals_consumed < jobs for info in inside):
        raise CheckFailed("no cut while the stream is live")
    if not unbuilt_task:
        raise CheckFailed("no cut holds a task not yet built")
    if not unbuilt_job:
        raise CheckFailed("no cut holds a job not yet built")
    for instant, payload, info in snapshots:
        label = f"cut at instant {instant} ({info.arrivals_consumed}/{jobs} arrivals)"
        try:
            revived = restore_bytes(payload)
            revived.arrivals.attach(row.stream(), skip_consumed=True)
            revived.drain()
            result = revived.finalize()
        except Exception as exc:
            raise CheckFailed(f"{label}: {exc!r}") from exc
        if _span_export(revived, cell.workdir / "spans.jsonl") != spans:
            raise CheckFailed(f"{label}: span export differs from the uninterrupted leg's")
        yield label, result, revived.trace


def _holds_unbuilt_task(engine: SimulationEngine) -> bool:
    """Whether an active job has a task its phase has not built yet (one
    that never launched), which a checkpoint pickles as an empty slot."""
    return any(
        len(p.built_tasks()) < p.num_tasks
        for job in engine.active_jobs.values()
        for p in job.phases
    )


def _holds_unbuilt_job(engine: SimulationEngine) -> bool:
    """Whether a job whose arrival is queued is still known only by its
    spec, which a checkpoint pickles as that spec."""
    return any(not job.built for job in engine.events.payloads(EventKind.JOB_ARRIVAL))


def _span_export(engine: SimulationEngine, path: Path) -> bytes:
    engine.observability.dump_spans(path)
    return path.read_bytes()


def _replayed(cell: Cell) -> Iterator[Observation]:
    """A JSONL round-trip of the journal, replayed with observability."""
    row, path, obs = cell.row, cell.workdir / "journal.jsonl", Observability()
    cell.trace.dump_jsonl(path)
    loaded = DecisionTrace.load_jsonl(path)
    result = replay_trace(
        loaded,
        row.cluster(),
        row.jobs(),
        seed=row.seed,
        schedule_interval=row.schedule_interval,
        max_time=MAX_TIME,
        sanitize=row.sanitize,
        observability=obs,
        fault_profile=FAULT_PROFILES[cell.column],
    )
    if cell.artifacts is not None:
        cell.artifacts.mkdir(parents=True, exist_ok=True)
        obs.dump_metrics(cell.artifacts / "metrics.json")
        obs.dump_metrics(cell.artifacts / "metrics.prom")
        obs.dump_spans(cell.artifacts / "spans.jsonl")
        loaded.dump_jsonl(cell.artifacts / "journal.jsonl")
    yield "replay", result, loaded


#: The legs compared with the one-shot reference, in run order.
LEGS = (
    ("streamed", _streamed),
    ("checkpoint-cut", _checkpoint_cut),
    ("replayed", _replayed),
)


def _journal(trace: DecisionTrace) -> list[str]:
    return [d.to_json() for d in trace]


def _difference(
    cell: Cell, result: SimulationResult, trace: DecisionTrace
) -> str | None:
    """The first quantity in which a leg differs from the one-shot leg."""
    if result.deterministic() != cell.result:
        try:
            assert_replay_identical(cell.result, result)
        except ReplayDivergence as exc:
            return str(exc)
        return "SimulationResult differs"
    ref, got = cell.journal, _journal(trace)
    if got != ref:
        i = next((i for i, (a, b) in enumerate(zip(ref, got)) if a != b), len(ref))
        return f"journal differs at decision {i} of {len(got)} (one-shot {len(ref)})"
    return None


def run_cell(row: Row, column: str, artifacts: Path | None = None) -> str:
    """Run one cell; return its report line or raise :class:`IdentityFailure`."""
    t0, leg, compared = time.perf_counter(), "one-shot", 0
    with tempfile.TemporaryDirectory() as tmp:
        cell = Cell(row, column, Path(tmp), artifacts)
        try:
            _one_shot(cell)
            for leg, run in LEGS:
                for label, result, trace in run(cell):
                    if (diff := _difference(cell, result, trace)) is not None:
                        raise CheckFailed(f"{label}: {diff}")
                    compared += 1
        except Exception as exc:
            detail = str(exc) if isinstance(exc, CheckFailed) else repr(exc)
            raise IdentityFailure(row.name, column, leg, detail) from exc
    ref = cell.result
    return (
        f"{row.name:<12} × {column:<5} identical: {compared} runs, {ref.num_jobs} "
        f"jobs, {ref.events_processed} events, {len(cell.journal)} decisions, "
        f"{ref.faults_injected} faults, flowtime {ref.total_flowtime:.1f}s "
        f"[{time.perf_counter() - t0:.1f}s]"
    )


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    artifacts = Path(args[0]) if args else None
    t0, cells = time.perf_counter(), 0
    try:
        with tempfile.TemporaryDirectory() as fixtures:
            for row in (paper_testbed_row(), google_synth_row(), *trace_rows(fixtures)):
                for column in COLUMNS:
                    keep = (row.name, column) == ("testbed", "none")
                    report = run_cell(row, column, artifacts if keep else None)
                    print(f"identity: {report}", flush=True)
                    cells += 1
    except IdentityFailure as exc:
        traceback.print_exception(exc)
        print(f"identity: DIVERGED {exc}", file=sys.stderr)
        return 1
    wall = time.perf_counter() - t0
    print(f"identity: {cells} cells × {1 + len(LEGS)} legs identical in {wall:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
