"""The four benchmark workloads.

Each workload makes its inputs from a seed (untimed), then runs
repetitions.  A repetition times its own set-up (everything the program
needs before it can start: cluster, jobs, engine) and its run, checks
the outputs, and returns a :class:`Rep`.  Inputs are generated once per
process and every repetition of one process runs the same inputs, so
repetitions must agree byte for byte.

Sizes are the reference configurations (4000 jobs on 30K servers, a
400-job burst on 100K servers, a 1M-row trace; the serve stream is
shorter so that its wall-clock pacing fits): one repetition takes
7-15 s on a 2-core machine, so a 20 s run holds one or two.

Every workload class provides the same hooks: ``inputs(seed)``,
``probe_setup(inputs)``, ``rep(inputs)``, ``check(inputs, rep)`` (a
follow-up check on the first repetition) and ``traced_extras(inputs,
untraced_wall)`` (extra per-layer values and errors for a traced run).
"""

from __future__ import annotations

import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator

from repro.cluster import heterogeneity
from repro.core import online
from repro.core.online import DollyMPScheduler
from repro.observability import Observability
from repro.observability.live import TextfilePublisher
from repro.service import SignalAwareLineFeed, serve
from repro.sim import session as session_module
from repro.sim.checkpoint import checkpoint_bytes, restore_bytes
from repro.sim.engine import SimulationEngine
from repro.workload import google_trace
from repro.workload.arrivals import JsonlSource
from repro.workload.google_trace import GoogleTraceGenerator, spec_to_dict
from repro.workload.ingest import fixture_filename, normalize_stream, open_reader

from benchmarks.bench.layers import LayerTracer
from benchmarks.bench.summary import percentile, tail_percentile

__all__ = [
    "DEFAULT_SEED",
    "WORKLOADS",
    "EngineWorkload",
    "IngestWorkload",
    "ServeWorkload",
    "Rep",
    "result_digest",
    "run_dir",
]

DEFAULT_SEED = 2022
SCHEDULE_INTERVAL = 5.0  # the 5-second slots of Sec. 6.3

#: Set-ups are timed, on top of the one inside each repetition, before
#: the repetitions and again after them, each time for this many seconds
#: (and at least two set-ups); ``setup_s`` is the median of all of them.
#: A cheap set-up gets more samples, and samples from both ends of the
#: run outvote a slow spell of the machine at one end.
SETUP_SECONDS = 1.5

#: The trace schema the ingest workload reads.
SCHEMA = "google2011"

# The serve workload: jobs of θ=60 s arriving every 0.25 sim-s on
# average, live metrics every 10 sim-s, a decision later than 2 s counts
# as failed, and checkpoint/restore are each timed over 5 calls.
SERVE_INTERARRIVAL = 0.25
SERVE_THETA = 60.0
METRICS_EVERY = 10.0
LATE_S = 2.0
TIMING_CALLS = 5

#: The simulated workloads replay job traces drawn at this seed; a run's
#: seed draws the cluster and the engine's duration and policy streams.
#: Drawing the traces from the run's seed as well moved throughput by
#: 5-15% between seeds (which jobs share a scheduling pass decides how
#: much work the placement kernels redo), more than the changes the
#: benchmark exists to detect.
TRACE_SEED = DEFAULT_SEED

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


def run_dir() -> Path:
    """Scratch space for files a run writes (checkpoints, metrics)."""
    path = ROOT / ".cache" / "bench-run"
    path.mkdir(parents=True, exist_ok=True)
    return path


def fixture_dir() -> Path:
    """Where trace fixtures are generated once and then reused.  Always
    inside the checkout: a run reads and writes nothing outside it."""
    return ROOT / ".cache" / "bench-fixtures"


#: Child-process script: ``materialize`` one fixture (skipped when the
#: file exists).  Arguments: src dir, out dir, rows, seed, schema.
_MATERIALIZE = """\
import sys
sys.path.insert(0, sys.argv[1])
from repro.workload.ingest import materialize
materialize(sys.argv[2], rows=int(sys.argv[3]), seed=int(sys.argv[4]), schemas=(sys.argv[5],))
"""
FIXTURE_TIMEOUT_S = 120


def result_digest(result) -> str:
    """sha256 of the deterministic part of a simulation result."""
    return hashlib.sha256(repr(result.deterministic()).encode()).hexdigest()


@dataclass
class Rep:
    """One timed repetition of a workload."""

    setup_s: float
    wall_s: float  # run wall (serve: session wall minus input waits)
    digest: str
    attempted: int = 1
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: Per-layer values measured untraced (rates, latencies, counts).
    layer: dict[str, float] = field(default_factory=dict)
    #: A mid-run checkpoint the workload's follow-up check resumes.
    checkpoint: bytes | None = None


def _rates(result, wall: float) -> dict[str, float]:
    return {
        "events_per_s": result.events_processed / wall,
        "tasks_placed_per_s": result.copies_launched / wall,
    }


class SmallJobTrace(GoogleTraceGenerator):
    """The small-job regime of the Google traces: every job draws from
    the dominant 1-10 task bucket ("95% of jobs are small", Sec. 1)."""

    def sample_job_size(self) -> int:
        return int(self.rng.integers(1, 11))


def _pinned_ids(specs) -> list:
    # Explicit ids make repetitions in one process identical; they equal
    # the ids a fresh process would hand out, so results match either way.
    return [replace(s, job_id=i) for i, s in enumerate(specs)]


# ----------------------------------------------------------------------
# Engine workloads: one-shot SimulationEngine.run()
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EngineInputs:
    seed: int
    specs: tuple


@dataclass(frozen=True)
class EngineWorkload:
    name: str
    why: str
    servers: int
    jobs: int
    mean_interarrival: float
    small_jobs: bool
    mean_theta: float = 30.0
    #: Add a run with the program's own profiler on (traced runs only).
    cross_check_profiler: bool = False

    def inputs(self, seed: int) -> EngineInputs:
        gen_cls = SmallJobTrace if self.small_jobs else GoogleTraceGenerator
        gen = gen_cls(seed=TRACE_SEED, mean_theta=self.mean_theta)
        specs = gen.generate(self.jobs, mean_interarrival=self.mean_interarrival)
        return EngineInputs(seed, tuple(_pinned_ids(specs)))

    def build(self, inputs: EngineInputs, *, profile: bool = False) -> SimulationEngine:
        # Module-attribute lookups, so the traced run's wrappers apply.
        cluster = heterogeneity.trace_sim_cluster(self.servers, seed=inputs.seed)
        jobs = google_trace.jobs_from_specs(inputs.specs)
        return SimulationEngine(
            cluster,
            DollyMPScheduler(max_clones=2),
            jobs,
            seed=inputs.seed,
            schedule_interval=SCHEDULE_INTERVAL,
            max_time=1e9,
            profile=profile,
        )

    def probe_setup(self, inputs: EngineInputs) -> float:
        t0 = time.perf_counter()
        self.build(inputs)
        return time.perf_counter() - t0

    def rep(self, inputs: EngineInputs) -> Rep:
        t0 = time.perf_counter()
        engine = self.build(inputs)
        t1 = time.perf_counter()
        result = engine.run()
        t2 = time.perf_counter()
        rep = Rep(
            setup_s=t1 - t0,
            wall_s=t2 - t1,
            digest=result_digest(result),
            layer=_rates(result, t2 - t1),
        )
        if result.num_jobs != len(inputs.specs):
            rep.failed += 1
            rep.errors.append(f"{result.num_jobs} of {len(inputs.specs)} jobs finished")
        return rep

    def check(self, inputs: EngineInputs, rep: Rep) -> None:
        """Follow-up check after the timed repetitions (none needed)."""

    def traced_extras(self, inputs: EngineInputs, untraced_wall: float) -> tuple[dict, list]:
        """With ``cross_check_profiler``, run once with the program's own
        profiler on, timing the same boundaries from outside; returns
        (per-layer values, errors).

        The profiler's ``scheduler`` phase spans every scheduler hook and
        its ``placement`` phase the two fill kernels, so the outside
        wrappers sit on exactly those calls."""
        if not self.cross_check_profiler:
            return {}, []
        with LayerTracer() as outside:
            for hook in ("on_job_arrival", "on_task_finish", "on_job_finish", "schedule"):
                outside.wrap(DollyMPScheduler, hook, "scheduler")
            for kernel in ("fill_tasks_best_fit", "fill_clones_best_fit"):
                outside.wrap(online, kernel, "placement")
            engine = self.build(inputs, profile=True)
            t0 = time.perf_counter()
            engine.run()
            wall = time.perf_counter() - t0
        inside = engine.observability.profiler.report()
        seen = outside.profiler.report()
        errors = []
        for phase in ("scheduler", "placement"):
            ours = seen.get(phase, {}).get("self_s", 0.0)
            theirs = inside.get(phase, {}).get("self_s", 0.0)
            if ours <= 0 or abs(theirs - ours) > 0.10 * ours:
                errors.append(
                    f"profiler {phase} self {theirs:.3f}s vs outside {ours:.3f}s (>10% apart)"
                )
        return {"observability.profiler.overhead": wall / untraced_wall - 1.0}, errors


# ----------------------------------------------------------------------
# Ingest workload: trace file -> job specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IngestInputs:
    path: Path
    fixture_s: float


@dataclass(frozen=True)
class IngestWorkload:
    name: str
    why: str
    rows: int

    def inputs(self, seed: int) -> IngestInputs:
        # Generated in a child process: generating raises the peak RSS of
        # the process that does it, and only runs that miss the cache do.
        # subprocess.run waits for the child, and kills it on any error.
        t0 = time.perf_counter()
        path = fixture_dir() / fixture_filename(SCHEMA, self.rows, seed)
        subprocess.run(
            [sys.executable, "-c", _MATERIALIZE, str(SRC), str(path.parent), str(self.rows),
             str(seed), SCHEMA],
            check=True,
            timeout=FIXTURE_TIMEOUT_S,
        )
        return IngestInputs(path, time.perf_counter() - t0)

    def probe_setup(self, inputs: IngestInputs) -> float:
        """Time to the first emitted spec: opening the reader plus the
        rows the normalizer must see before it can close a job."""
        t0 = time.perf_counter()
        specs = normalize_stream(open_reader(inputs.path, SCHEMA))
        next(specs)
        elapsed = time.perf_counter() - t0
        specs.close()
        return elapsed

    def rep(self, inputs: IngestInputs) -> Rep:
        digest = hashlib.sha256()
        jobs = tasks = 0
        setup = 0.0
        t0 = time.perf_counter()
        for spec in normalize_stream(open_reader(inputs.path, SCHEMA)):
            if not jobs:
                setup = time.perf_counter() - t0
            digest.update(repr(spec).encode())
            jobs += 1
            tasks += spec.num_tasks()
        wall = time.perf_counter() - t0
        return Rep(
            setup_s=setup,
            wall_s=wall,
            digest=hashlib.sha256(f"{digest.hexdigest()} {jobs} {tasks}".encode()).hexdigest(),
            layer={
                "rows_per_s": self.rows / wall,
                "workload.ingest.jobs": jobs,
                "workload.ingest.tasks": tasks,
            },
        )

    def check(self, inputs: IngestInputs, rep: Rep) -> None:
        """Follow-up check after the timed repetitions (none needed)."""

    def traced_extras(self, inputs: IngestInputs, untraced_wall: float) -> tuple[dict, list]:
        """Split a full pass into reading (one reader-only pass) and
        normalizing (the rest)."""
        t0 = time.perf_counter()
        for _ in open_reader(inputs.path, SCHEMA).rows():
            pass
        read = time.perf_counter() - t0
        return {
            "workload.ingest.read_s": read,
            "workload.ingest.normalize_s": untraced_wall - read,
            "workload.ingest.fixture_s": inputs.fixture_s,
        }, []


# ----------------------------------------------------------------------
# Serve workload: `python -m repro serve` under an open-loop feed
# ----------------------------------------------------------------------
class PacedLines:
    """Open-loop generator: line k is released at ``t0 + k / rate``
    whatever the consumer does, and lateness is recorded.

    It runs on the feed's reader thread and waits for :meth:`begin`, so
    the schedule starts when the session does, not when the feed thread
    starts."""

    def __init__(self, lines: Iterable[str], rate: float) -> None:
        self.lines = list(lines)
        self.rate = rate
        self.t0 = 0.0
        self.late_max = 0.0
        self._go = threading.Event()

    def begin(self) -> float:
        self.t0 = time.perf_counter()
        self._go.set()
        return self.t0

    def release(self) -> None:
        """Let a feed thread that never saw :meth:`begin` finish."""
        if not self._go.is_set():
            self.begin()

    def due(self, k: int) -> float:
        return self.t0 + k / self.rate

    def __iter__(self) -> Iterator[str]:
        self._go.wait()
        for k, line in enumerate(self.lines):
            delay = self.due(k) - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            self.late_max = max(self.late_max, time.perf_counter() - self.due(k))
            yield line + "\n"


class TimedLines:
    """Line iterator that accumulates the time spent blocked on input."""

    def __init__(self, feed: Iterator[str]) -> None:
        self.feed = feed
        self.wait_s = 0.0

    def __iter__(self) -> "TimedLines":
        return self

    def __next__(self) -> str:
        t0 = time.perf_counter()
        try:
            return next(self.feed)
        finally:
            self.wait_s += time.perf_counter() - t0


@dataclass(frozen=True)
class ServeInputs:
    seed: int
    lines: tuple[str, ...]


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    why: str
    servers: int
    jobs: int
    rate: float  # jobs per second of wall time
    # Simulated seconds.  Arrivals must outlast the first cadence point
    # after half the stream, so the restore leg resumes an open stream.
    checkpoint_every: float = 60.0

    def inputs(self, seed: int) -> ServeInputs:
        specs = SmallJobTrace(seed=TRACE_SEED, mean_theta=SERVE_THETA).generate(
            self.jobs, mean_interarrival=SERVE_INTERARRIVAL
        )
        lines = tuple(json.dumps(spec_to_dict(s), sort_keys=True) for s in _pinned_ids(specs))
        return ServeInputs(seed, lines)

    def build(self, inputs: ServeInputs, lines: Iterable[str]) -> SimulationEngine:
        cluster = heterogeneity.trace_sim_cluster(self.servers, seed=inputs.seed)
        return SimulationEngine(
            cluster,
            DollyMPScheduler(max_clones=2),
            JsonlSource(lines),
            seed=inputs.seed,
            observability=Observability(),
        )

    def probe_setup(self, inputs: ServeInputs) -> float:
        t0 = time.perf_counter()
        self.build(inputs, ())
        return time.perf_counter() - t0

    def rep(self, inputs: ServeInputs) -> Rep:
        paced = PacedLines(inputs.lines, self.rate)
        feed = SignalAwareLineFeed(paced)
        lines = TimedLines(feed)
        try:
            t0 = time.perf_counter()
            engine = self.build(inputs, lines)
            setup = time.perf_counter() - t0
            with tempfile.TemporaryDirectory(dir=run_dir()) as tmp, LayerTracer() as probes:
                stamps, kept = self._install_probes(probes, lines)
                start = paced.begin()
                result = serve(
                    engine,
                    feed=feed,
                    checkpoint_path=Path(tmp) / "serve.ckpt",
                    checkpoint_every=self.checkpoint_every,
                    on_metrics=TextfilePublisher(Path(tmp) / "metrics.prom"),
                    metrics_every=METRICS_EVERY,
                    install_signals=False,
                )
                session_s = time.perf_counter() - start
        finally:
            feed.close()
            paced.release()
        busy = session_s - lines.wait_s
        rep = Rep(
            setup_s=setup,
            wall_s=busy,
            digest=result_digest(result),
            attempted=1 + self.jobs,
            layer=_rates(result, busy),
        )
        if result.num_jobs != self.jobs:
            rep.failed += 1
            rep.errors.append(f"{result.num_jobs} of {self.jobs} jobs finished")
        self._score_decisions(rep, stamps, paced, start)
        rep.checkpoint = kept.get("mid")
        return rep

    def _install_probes(self, probes: LayerTracer, lines: TimedLines):
        """Stamp each job's first decision and keep the checkpoint written
        at the first cadence point after half the stream arrived."""
        stamps: dict[int, tuple[float, float]] = {}
        pending: list[int] = []
        kept: dict[str, bytes] = {}
        half = self.jobs // 2

        def on_arrival(_tracer, args, _out) -> None:
            pending.append(args[1].job_id)

        def on_schedule(_tracer, _args, _out) -> None:
            if pending:
                now = time.perf_counter()
                for job_id in pending:
                    stamps.setdefault(job_id, (now, lines.wait_s))
                pending.clear()

        def on_checkpoint(_tracer, args, _out) -> None:
            if "mid" not in kept and args[0].arrivals.consumed > half:
                kept["mid"] = Path(args[1]).read_bytes()

        probes.wrap(DollyMPScheduler, "on_job_arrival", after=on_arrival)
        probes.wrap(DollyMPScheduler, "schedule", after=on_schedule)
        probes.wrap(session_module, "save_checkpoint", after=on_checkpoint)
        return stamps, kept

    def _score_decisions(self, rep: Rep, stamps, paced: PacedLines, start: float) -> None:
        latencies = []
        for k in range(self.jobs):
            stamp = stamps.get(k)
            if stamp is None:
                rep.failed += 1
                rep.errors.append(f"job {k}: no scheduling decision stamped")
                continue
            latency = stamp[0] - paced.due(k)
            latencies.append(latency)
            if latency > LATE_S:
                rep.failed += 1
        late = sum(1 for x in latencies if x > LATE_S)
        if late:
            rep.errors.append(f"{late} decisions took more than {LATE_S:g} s")
        layer = rep.layer
        layer["service.late_jobs"] = late
        layer["service.generator_late_ms_max"] = 1e3 * paced.late_max
        if not latencies:
            return
        last_time, blocked = max(stamps.values())
        layer["service.jobs_per_s"] = len(latencies) / (last_time - start - blocked)
        layer["service.decision_ms_p50"] = 1e3 * percentile(latencies, 50)
        tail = tail_percentile(latencies)
        if tail is not None:
            layer["service.decision_tail_pct"] = tail[0]
            layer["service.decision_ms_tail"] = 1e3 * tail[1]
        layer["service.decision_samples"] = len(latencies)

    def check(self, inputs: ServeInputs, rep: Rep) -> None:
        """Time checkpoint/restore on the kept mid-run state, then resume
        it to the end: the result must equal the served one."""
        rep.attempted += 1
        mid = rep.checkpoint
        if mid is None:
            rep.failed += 1
            rep.errors.append("no checkpoint was written after half the stream")
            return
        state = restore_bytes(mid)
        if state.arrivals.exhausted:
            rep.failed += 1
            rep.errors.append("the kept checkpoint is past the end of the stream")
            return
        saves, loads = [], []
        payload = b""
        for _ in range(TIMING_CALLS):
            t0 = time.perf_counter()
            payload, _info = checkpoint_bytes(state)
            saves.append(time.perf_counter() - t0)
        for _ in range(TIMING_CALLS):
            t0 = time.perf_counter()
            restore_bytes(payload)
            loads.append(time.perf_counter() - t0)
        rep.layer["sim.checkpoint.checkpoint_ms"] = 1e3 * statistics.median(saves)
        rep.layer["sim.checkpoint.checkpoint_mb"] = len(payload) / 1e6
        rep.layer["sim.checkpoint.restore_ms"] = 1e3 * statistics.median(loads)
        revived = restore_bytes(mid)
        revived.arrivals.attach(inputs.lines, skip_consumed=True)
        revived.drain()
        if result_digest(revived.finalize()) != rep.digest:
            rep.failed += 1
            rep.errors.append("restored session diverged from the served session")

    def traced_extras(self, inputs: ServeInputs, untraced_wall: float) -> tuple[dict, list]:
        """Nothing beyond the layers: the serve values come from the
        untraced repetitions and the follow-up check."""
        return {}, []


# ----------------------------------------------------------------------
# The benchmark's workloads, in run order
# ----------------------------------------------------------------------
WORKLOADS: dict[str, EngineWorkload | IngestWorkload | ServeWorkload] = {
    w.name: w
    for w in (
        EngineWorkload(
            name="engine-30k",
            why=(
                "30K servers, 4000 small jobs 4/s with 10-minute tasks: ~1.5K jobs active, "
                "one event per instant, so the DollyMP pass and the event loop carry the run"
            ),
            servers=30_000,
            jobs=4_000,
            mean_interarrival=0.25,
            small_jobs=True,
            mean_theta=600.0,
            cross_check_profiler=True,
        ),
        EngineWorkload(
            name="engine-100k-burst",
            why=(
                "100K servers, 400 trace jobs arriving 20/s: deep candidate queues "
                "scored against a 100K-server mirror, so the packing kernels dominate"
            ),
            servers=100_000,
            jobs=400,
            mean_interarrival=0.05,
            small_jobs=False,
        ),
        IngestWorkload(
            name="ingest-1m",
            why=(
                "1M-row Google-2011 task_events csv.gz through reader and normalizer: "
                "only the ingest layer works, an engine change must not move it"
            ),
            rows=1_000_000,
        ),
        ServeWorkload(
            name="serve-30k",
            why=(
                "serve() on 30K servers fed 300 jobs at 40/s open loop with live metrics and "
                "checkpoints: the only workload that decodes, publishes and checkpoints"
            ),
            servers=30_000,
            jobs=300,
            rate=40.0,
        ),
    )
}
