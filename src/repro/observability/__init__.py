"""First-class observability for the simulator (DESIGN.md §5.4).

Three composable pieces, bundled per run by :class:`Observability`:

* a zero-dependency **metrics registry** (:mod:`.registry`) — counters,
  gauges and fixed-log-bucket histograms with deterministic JSON and
  Prometheus-text exports;
* **span tracing** (:mod:`.spans`) of engine events and scheduler
  decision points — nestable enter/exit intervals stamped with sim-time
  (and, segregated, wall-time), exported as JSONL alongside the
  decision trace;
* opt-in **profiling hooks** (:mod:`.profiling`) attributing wall time
  to the ``engine`` / ``scheduler`` / ``placement`` phases
  (``REPRO_PROFILE=1`` or ``SimulationEngine(profile=True)``).

**Determinism contract.**  Every metric and span field derived from the
simulation is a pure function of the seeded event sequence; host-time
measurements are flagged ``wall`` and excluded from default exports.
Hence two same-seed runs produce byte-identical snapshots, and a run
recorded and replayed with observability enabled still satisfies
:func:`repro.sim.replay.assert_replay_identical` — observability reads
the simulation, it never steers it.

A run opts in explicitly (``run_simulation(..., observability=Observability())``)
or via the environment (``REPRO_METRICS=1`` / ``REPRO_PROFILE=1``);
with no opt-in the engine carries a ``None`` handle and the hot path
pays a pointer check per event (guarded by the benchmark regression
gate).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.observability.instruments import SimInstruments
from repro.observability.profiling import (
    PROFILE_ENV,
    PhaseProfiler,
    profile_default,
)
from repro.observability.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log2_buckets,
)
from repro.observability.spans import (
    DEFAULT_SPAN_MAXLEN,
    SPAN_SCHEMA,
    Span,
    SpanTracer,
)

__all__ = [
    "Observability",
    "observability_default",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "log2_buckets",
    "Span",
    "SpanTracer",
    "SPAN_SCHEMA",
    "DEFAULT_SPAN_MAXLEN",
    "PhaseProfiler",
    "profile_default",
    "SimInstruments",
    "METRICS_SCHEMA",
    "METRICS_ENV",
    "PROFILE_ENV",
]

#: Schema tag on exported metrics snapshots.
METRICS_SCHEMA = "repro-metrics/v1"

#: Environment opt-in for metrics + span collection.
METRICS_ENV = "REPRO_METRICS"


class Observability:
    """One run's bundle: registry + tracer + (optional) profiler.

    Construct one per simulation (isolated, thread-safe across runs)
    and hand it to the engine/runner.  ``metrics``/``spans`` default on;
    ``profile=None`` defers to ``REPRO_PROFILE``.
    """

    def __init__(
        self,
        *,
        metrics: bool = True,
        spans: bool = True,
        profile: bool | None = None,
        span_maxlen: int = DEFAULT_SPAN_MAXLEN,
    ) -> None:
        if profile is None:
            profile = profile_default()
        self.registry: MetricsRegistry | None = MetricsRegistry() if metrics else None
        self.tracer: SpanTracer | None = (
            SpanTracer(maxlen=span_maxlen) if spans else None
        )
        self.profiler: PhaseProfiler | None = PhaseProfiler() if profile else None
        self.sim: SimInstruments | None = (
            SimInstruments(self.registry) if self.registry is not None else None
        )

    # -- binding (engine attach points) ---------------------------------
    def bind_clock(self, clock) -> None:
        """Point the span tracer at the engine's simulated clock."""
        if self.tracer is not None:
            self.tracer.clock = clock

    def bind_cluster(self, cluster) -> None:
        """Install the placement-query counter on the cluster."""
        if self.sim is not None:
            cluster._obs_placement = self.sim.placement_queries.labels()

    # -- cold-path conveniences -----------------------------------------
    def inc(self, name: str, amount: float = 1.0, help: str = "", **labels) -> None:
        """Lazily-created counter increment (cold paths only)."""
        if self.registry is None:
            return
        c = self.registry.counter(name, help, tuple(sorted(labels)))
        (c.labels(**labels) if labels else c).inc(amount)

    def observe(self, name: str, value: float, help: str = "", **labels) -> None:
        """Lazily-created histogram observation (cold paths only)."""
        if self.registry is None:
            return
        h = self.registry.histogram(name, help, tuple(sorted(labels)))
        (h.labels(**labels) if labels else h).observe(value)

    def record_workload(self, jobs) -> None:
        if self.sim is not None:
            self.sim.record_workload(jobs)

    # -- export ---------------------------------------------------------
    def snapshot(self, *, include_wall: bool = False) -> dict:
        """Schema-tagged snapshot: metrics plus (wall-only) profile."""
        out: dict = {
            "schema": METRICS_SCHEMA,
            "metrics": (
                self.registry.snapshot(include_wall=include_wall)
                if self.registry is not None
                else {}
            ),
        }
        if include_wall and self.profiler is not None:
            out["profile"] = self.profiler.report()
        return out

    def to_json(self, *, include_wall: bool = False) -> str:
        return json.dumps(
            self.snapshot(include_wall=include_wall),
            sort_keys=True,
            separators=(",", ":"),
        )

    def to_prometheus(self, *, include_wall: bool = False) -> str:
        if self.registry is None:
            return ""
        return self.registry.to_prometheus(include_wall=include_wall)

    def dump_metrics(self, path: str | Path, *, include_wall: bool = False) -> None:
        """Write the JSON snapshot (``*.prom`` paths get Prometheus text)."""
        path = Path(path)
        if path.suffix == ".prom":
            path.write_text(self.to_prometheus(include_wall=include_wall))
        else:
            path.write_text(self.to_json(include_wall=include_wall) + "\n")

    def dump_spans(self, path: str | Path, *, include_wall: bool = False) -> None:
        if self.tracer is None:
            raise ValueError("span tracing is disabled for this Observability")
        self.tracer.dump_jsonl(path, include_wall=include_wall)


def _env_truthy(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() in ("1", "true", "yes", "on")


def observability_default() -> Observability | None:
    """The engine's default: a fresh bundle iff the environment opts in
    (``REPRO_METRICS=1`` and/or ``REPRO_PROFILE=1``), else ``None``."""
    if _env_truthy(METRICS_ENV) or profile_default():
        return Observability()
    return None
