"""Outside-in layer tracing for the benchmark's traced run.

The traced run wraps public functions and methods of each layer before
any engine or scheduler is built, accumulates nested self time with the
program's own :class:`~repro.observability.profiling.PhaseProfiler`, and
puts every original back afterwards.  Nothing under ``src/`` changes.

Two rules keep the wrapped program identical to the unwrapped one:

* functions are patched where they are *looked up* — ``repro.core.online``
  imports ``compute_priorities`` and the fill kernels by name, so those
  names are replaced in that module, not in their defining ones;
* methods are replaced on their defining class, never by subclassing: a
  ``DollyMPScheduler`` subclass that overrides ``recompute_priorities``
  switches the scheduler to its eager priority path.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

from repro.observability.profiling import PhaseProfiler

from benchmarks.bench.summary import percentile

__all__ = ["LAYERS", "LayerTracer", "install_layers", "layer_metrics", "resolve"]

#: (layer name, "module" or "module:Class", attribute) for every wrapped
#: call.  Each layer reports ``<name>.calls`` and ``<name>.self_s``.
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("sim.events.pop_batch", "repro.sim.events:EventQueue", "pop_batch"),
    ("sim.events.push", "repro.sim.events:EventQueue", "push"),
    ("sim.engine.step", "repro.sim.engine:SimulationEngine", "step"),
    ("sim.engine.apply", "repro.sim.engine:SimulationEngine", "apply"),
    ("core.online.on_job_arrival", "repro.core.online:DollyMPScheduler", "on_job_arrival"),
    ("core.online.schedule", "repro.core.online:DollyMPScheduler", "schedule"),
    ("core.transient.compute_priorities", "repro.core.online", "compute_priorities"),
    (
        "core.knapsack.max_count_knapsack_batch",
        "repro.core.transient",
        "max_count_knapsack_batch",
    ),
    ("schedulers.packing.fill_tasks_best_fit", "repro.core.online", "fill_tasks_best_fit"),
    ("schedulers.packing.fill_clones_best_fit", "repro.core.online", "fill_clones_best_fit"),
    ("cluster.mirror.update", "repro.cluster.mirror:AvailabilityMirror", "update"),
    ("cluster.mirror.flush", "repro.cluster.mirror:AvailabilityMirror", "flush"),
    ("cluster.trace_sim_cluster", "repro.cluster.heterogeneity", "trace_sim_cluster"),
    ("workload.jobs_from_specs", "repro.workload.google_trace", "jobs_from_specs"),
    ("workload.arrivals.take", "repro.workload.arrivals:JsonlSource", "take"),
    # Self time of the feed's __next__ is time blocked waiting for input.
    ("service.feed.wait", "repro.service:SignalAwareLineFeed", "__next__"),
    ("sim.checkpoint.save_checkpoint", "repro.sim.session", "save_checkpoint"),
    ("observability.live.publish", "repro.observability.live:TextfilePublisher", "__call__"),
)

_OFFERED = "schedulers.packing.fill_tasks_best_fit.offered"
_LAUNCHED = "schedulers.packing.fill_tasks_best_fit.launched"
_CLONES = "schedulers.packing.fill_clones_best_fit.launched"
_JOBS = "core.transient.compute_priorities.jobs"
_CKPT_BYTES = "sim.checkpoint.save_checkpoint.bytes_max"
_SCHEDULE = "core.online.schedule"


def resolve(target: str):
    """The module, or class inside it, named by ``module[:Class]``."""
    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class LayerTracer:
    """Installs timing/counting wrappers and undoes them on exit.

    ``wrap(..., layer=None)`` installs only the ``before``/``after``
    hooks, which the untraced runs use to stamp decisions and keep a
    checkpoint without paying for a profiler frame.
    """

    def __init__(self) -> None:
        self.profiler = PhaseProfiler()
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.durations: defaultdict[str, list[float]] = defaultdict(list)
        self._undo: list[tuple[object, str, object]] = []

    def wrap(
        self,
        owner,
        attr: str,
        layer: str | None = None,
        *,
        before: Callable | None = None,
        after: Callable | None = None,
        durations: bool = False,
    ) -> None:
        if isinstance(owner, type):
            if attr not in owner.__dict__:
                raise AttributeError(f"{owner.__name__} does not define {attr}")
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        prof = self.profiler if layer is not None else None
        spans = self.durations[layer] if durations and layer is not None else None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args)
            if prof is None:
                out = original(*args, **kwargs)
            else:
                frame = prof.enter(layer)
                try:
                    out = original(*args, **kwargs)
                finally:
                    prof.exit(frame)
                    if spans is not None:
                        spans.append(time.perf_counter() - frame[1])
            if after is not None:
                after(self, args, out)
            return out

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def self_seconds(self) -> float:
        return sum(s["self_s"] for s in self.profiler.report().values())


def _count_offered(tracer: LayerTracer, args) -> None:
    # Counted before the call: the fill consumes the task lists it is given.
    tracer.counters[_OFFERED] += sum(len(tasks) for _, tasks in args[1])


def _add(key: str) -> Callable:
    def hook(tracer: LayerTracer, args, out) -> None:
        tracer.counters[key] += out

    return hook


def _count_jobs(tracer: LayerTracer, args, out) -> None:
    tracer.counters[_JOBS] += len(args[0])


def _checkpoint_size(tracer: LayerTracer, args, out) -> None:
    size = Path(args[1]).stat().st_size
    tracer.counters[_CKPT_BYTES] = max(tracer.counters[_CKPT_BYTES], size)


_HOOKS: dict[str, dict] = {
    "core.transient.compute_priorities": {"after": _count_jobs},
    "schedulers.packing.fill_tasks_best_fit": {
        "before": _count_offered,
        "after": _add(_LAUNCHED),
    },
    "schedulers.packing.fill_clones_best_fit": {"after": _add(_CLONES)},
    "sim.checkpoint.save_checkpoint": {"after": _checkpoint_size},
    _SCHEDULE: {"durations": True},
}


def install_layers(tracer: LayerTracer) -> LayerTracer:
    """Wrap every layer of :data:`LAYERS` on ``tracer``."""
    for layer, target, attr in LAYERS:
        tracer.wrap(resolve(target), attr, layer, **_HOOKS.get(layer, {}))
    return tracer


def layer_metrics(tracer: LayerTracer) -> dict[str, float]:
    """Per-layer calls/self time plus the counters the hooks keep."""
    report = tracer.profiler.report()
    out: dict[str, float] = {}
    for layer, _, _ in LAYERS:
        stat = report.get(layer, {"calls": 0, "self_s": 0.0})
        out[f"{layer}.calls"] = stat["calls"]
        out[f"{layer}.self_s"] = stat["self_s"]
    spans = tracer.durations[_SCHEDULE]
    out[f"{_SCHEDULE}.ms_p50"] = 1e3 * percentile(spans, 50) if spans else 0.0
    out[f"{_SCHEDULE}.ms_max"] = 1e3 * max(spans) if spans else 0.0
    calls = out["core.transient.compute_priorities.calls"]
    out["core.transient.compute_priorities.jobs_mean"] = (
        tracer.counters[_JOBS] / calls if calls else 0.0
    )
    offered = tracer.counters[_OFFERED]
    out[_OFFERED] = offered
    out[_LAUNCHED] = tracer.counters[_LAUNCHED]
    out["schedulers.packing.fill_tasks_best_fit.yield"] = (
        tracer.counters[_LAUNCHED] / offered if offered else 0.0
    )
    out[_CLONES] = tracer.counters[_CLONES]
    out[_CKPT_BYTES] = tracer.counters[_CKPT_BYTES]
    return out
