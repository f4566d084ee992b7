"""High-level simulation entry point.

``run_simulation`` is the one-call public API: give it a cluster, a
scheduler and a workload, get a :class:`SimulationResult` back.  Jobs
must be freshly built per run (task state is mutated); use a factory
when comparing schedulers on "the same" workload — see
:func:`compare_schedulers`.

``compare_schedulers`` additionally supports multi-seed sweeps
(``seeds=[...]``): each (scheduler, seed) combination is an
independent simulation on a freshly built cluster and workload.

``run_recorded`` is the journaling variant: same simulation, but every
scheduler decision is recorded in a :class:`DecisionTrace` (DESIGN.md
§5.3) that :func:`repro.sim.replay.replay_trace` can re-execute
bit-identically against a fresh cluster/workload.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping, Sequence

from repro.cluster.cluster import Cluster
from repro.faults import FaultProfile
from repro.observability import Observability
from repro.schedulers.base import Scheduler
from repro.sim.actions import DecisionTrace
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import SimulationResult
from repro.workload.job import Job

__all__ = ["run_simulation", "run_recorded", "compare_schedulers"]


def run_simulation(
    cluster: Cluster,
    scheduler: Scheduler,
    jobs: Iterable[Job],
    *,
    seed: int = 0,
    schedule_interval: float = 0.0,
    max_time: float = math.inf,
    sanitize: bool | None = None,
    observability: Observability | None = None,
    fault_profile: FaultProfile | None = None,
    churn_seed: int | None = None,
) -> SimulationResult:
    """Simulate ``jobs`` on ``cluster`` under ``scheduler``.

    ``schedule_interval`` selects slotted scheduling (the paper's trace
    simulator uses 5 s); 0 means event-driven like the YARN prototype.
    The ``seed`` fixes the straggler realizations: two schedulers run
    with the same seed see identical duration draws for identical
    placement sequences.  ``sanitize`` enables the per-event invariant
    checker (default: the ``REPRO_SANITIZE`` environment toggle).
    ``observability`` attaches a per-run metrics/span/profiler bundle
    (default: the ``REPRO_METRICS``/``REPRO_PROFILE`` toggles).
    ``fault_profile`` attaches a deterministic fault injector (DESIGN.md
    §5.5); its RNG stream derives from ``churn_seed`` (default:
    ``seed`` + a fixed offset), so identical seeds give identical
    failure realizations and a ``None`` profile leaves every existing
    RNG stream untouched.
    """
    engine = SimulationEngine(
        cluster,
        scheduler,
        jobs,
        seed=seed,
        schedule_interval=schedule_interval,
        max_time=max_time,
        sanitize=sanitize,
        observability=observability,
        fault_profile=fault_profile,
        churn_seed=churn_seed,
    )
    return engine.run()


def run_recorded(
    cluster: Cluster,
    scheduler: Scheduler,
    jobs: Iterable[Job],
    *,
    seed: int = 0,
    schedule_interval: float = 0.0,
    max_time: float = math.inf,
    sanitize: bool | None = None,
    trace_maxlen: int | None = None,
    observability: Observability | None = None,
    fault_profile: FaultProfile | None = None,
    churn_seed: int | None = None,
) -> tuple[SimulationResult, DecisionTrace]:
    """Like :func:`run_simulation`, but journal every scheduler decision.

    Returns ``(result, trace)``; the trace's ``meta`` records the seed,
    slot interval and policy name so :func:`repro.sim.replay.replay_trace`
    can re-execute it without re-stating the configuration.  Replaying
    against a freshly rebuilt cluster/workload must reproduce ``result``
    bit-for-bit (the determinism oracle of DESIGN.md §5.3).
    """
    engine = SimulationEngine(
        cluster,
        scheduler,
        jobs,
        seed=seed,
        schedule_interval=schedule_interval,
        max_time=max_time,
        sanitize=sanitize,
        record_trace=True,
        trace_maxlen=trace_maxlen,
        observability=observability,
        fault_profile=fault_profile,
        churn_seed=churn_seed,
    )
    result = engine.run()
    trace = engine.trace
    assert trace is not None
    trace.meta.update(
        {
            "policy": scheduler.name,
            "seed": seed,
            "schedule_interval": schedule_interval,
            "num_jobs": len(result.records),
            "num_decisions": len(trace),
        }
    )
    if engine.faults is not None:
        # Everything replay_trace needs to reconstruct the injector:
        # the profile's scalars plus the resolved churn seed.
        trace.meta["faults"] = {
            "profile": engine.faults.profile.to_meta(),
            "churn_seed": engine.faults.churn_seed,
        }
    return result, trace


def compare_schedulers(
    make_cluster: Callable[[], Cluster],
    make_jobs: Callable[[], list[Job]],
    schedulers: Mapping[str, Callable[[], Scheduler]],
    *,
    seed: int = 0,
    seeds: Sequence[int] | None = None,
    schedule_interval: float = 0.0,
    max_time: float = math.inf,
    fault_profile: FaultProfile | None = None,
    churn_seed: int | None = None,
):
    """Run the same (freshly rebuilt) workload under several policies.

    Factories are required because jobs and clusters are stateful; each
    policy gets a pristine copy and the same duration seed(s).

    * ``seeds=None`` (default): one run per scheduler at ``seed``;
      returns ``{name: SimulationResult}`` (the historical shape).
    * ``seeds=[s0, s1, ...]``: a multi-seed sweep; returns
      ``{name: {seed: SimulationResult}}``.
    """
    seed_list = [seed] if seeds is None else list(seeds)
    if not seed_list:
        raise ValueError("seeds must be non-empty when provided")
    combos = [(name, make, s) for name, make in schedulers.items() for s in seed_list]

    cells = {
        (name, s): run_simulation(
            make_cluster(),
            make(),
            make_jobs(),
            seed=s,
            schedule_interval=schedule_interval,
            max_time=max_time,
            fault_profile=fault_profile,
            churn_seed=churn_seed,
        )
        for name, make, s in combos
    }

    if seeds is None:
        return {name: cells[(name, seed)] for name in schedulers}
    return {
        name: {s: cells[(name, s)] for s in seed_list} for name in schedulers
    }
