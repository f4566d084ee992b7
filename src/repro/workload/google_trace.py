"""Synthetic Google-cluster trace generation and trace file I/O.

The paper's workload suite and 30K-server simulations replay Google
cluster traces [Reiss et al. 2011], which are not redistributable here.
We therefore synthesize traces matching every statistic the paper quotes:

* the traces provide *job size* (total task count) and per-task CPU and
  memory demands (Sec. 6.2);
* "95% of jobs are small" (Sec. 1, quoting the Google trace analysis);
* task times within a phase "can vary substantially (the stragglers could
  be 20× slow as the normal tasks)" and "70% of job phases contain a
  fraction of more than 15% task stragglers" (Sec. 6.3).

:class:`GoogleTraceGenerator` emits :class:`TraceJobSpec` records —
schema-compatible with a JSON trace file, so a real trace converted to
the same JSON can be replayed through :func:`load_trace` unchanged.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.resources import Resources
from repro.workload.distributions import Deterministic, ParetoType1
from repro.workload.job import Job
from repro.workload.phase import Phase

__all__ = [
    "PhaseSpec",
    "TraceJobSpec",
    "GoogleTraceGenerator",
    "jobs_from_specs",
    "job_from_spec",
    "save_trace",
    "load_trace",
    "spec_to_dict",
    "spec_from_dict",
]


@dataclass(frozen=True, slots=True)
class PhaseSpec:
    """Serializable description of one phase."""

    num_tasks: int
    cpu: float
    mem: float
    theta: float
    sigma: float
    parents: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        # JSON decodes 2.5 and true as a float and a bool; neither is a
        # task count.
        if type(self.num_tasks) is bool or not isinstance(self.num_tasks, int):
            raise ValueError(f"num_tasks must be an integer, got {self.num_tasks!r}")
        if self.num_tasks < 1:
            raise ValueError("num_tasks must be >= 1")
        # NaN passes every comparison below and an infinity fails only
        # mid-run, so both are rejected here, by field name; so is true,
        # which would run as 1.
        for name in ("theta", "sigma", "cpu", "mem"):
            value = getattr(self, name)
            if type(value) is bool or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name in ("cpu", "mem"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value!r}")
        if self.cpu <= 0 and self.mem <= 0:
            raise ValueError(
                f"cpu and mem must not both be zero, got cpu={self.cpu!r}, mem={self.mem!r}"
            )
        if self.theta <= 0:
            raise ValueError("theta must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        if self.sigma > 0:
            # The fit a build makes; it fails where (θ/σ)² overflows or
            # x_m underflows, so such a spec fails here, not at arrival.
            try:
                ParetoType1.from_moments(self.theta, self.sigma)
            except (ArithmeticError, ValueError) as exc:
                raise ValueError(
                    f"theta={self.theta!r} with sigma={self.sigma!r} admits no "
                    f"Pareto fit: {exc}"
                ) from None
        # A JSON list arrives as a list; a string or a float index would
        # fail only inside the DAG helpers.
        parents = self.parents
        if not isinstance(parents, (list, tuple)):
            raise ValueError(f"parents must be a list of integers, got {parents!r}")
        for p in parents:
            if type(p) is bool or not isinstance(p, int):
                raise ValueError(f"parents must be a list of integers, got {parents!r}")
        if type(parents) is not tuple:
            object.__setattr__(self, "parents", tuple(parents))


@dataclass(frozen=True, slots=True)
class TraceJobSpec:
    """Serializable description of one job.

    ``job_id`` is optional for compatibility with pre-existing trace
    files; when present it pins the materialized Job's identity, which
    streamed/restarted sessions need (the process-local fallback counter
    is not stable across restore legs)."""

    name: str
    arrival_time: float
    phases: tuple[PhaseSpec, ...] = field(default_factory=tuple)
    job_id: int | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.arrival_time) and self.arrival_time >= 0):
            raise ValueError(
                f"arrival_time must be finite and non-negative, got {self.arrival_time!r}"
            )
        # Ids are compared and ordered against each other mid-run; "7"
        # or 7.5 would fail there, far from the line that carried it.
        job_id = self.job_id
        if job_id is not None and (type(job_id) is bool or not isinstance(job_id, int)):
            raise ValueError(f"job_id must be an integer, got {job_id!r}")
        if not self.phases:
            raise ValueError("phases must hold at least one phase")
        for k, phase in enumerate(self.phases):
            for p in phase.parents:
                if not 0 <= p < k:
                    raise ValueError(f"parents of phase {k} must lie in [0, {k}), got {p}")

    def num_tasks(self) -> int:
        return sum(p.num_tasks for p in self.phases)

    def build_phases(
        self, demands: dict[tuple[float, float], Resources] | None = None
    ) -> list[Phase]:
        """The phases this spec describes, Pareto-fitted, named and
        holding one empty slot per task.  A demand is taken from
        ``demands`` when an equal one is there, and added to it when
        not, so phases built through one map share a vector per
        distinct demand."""
        if demands is None:
            demands = {}
        phases = []
        for k, ps in enumerate(self.phases):
            if ps.sigma > 0:
                dist = ParetoType1.from_moments(ps.theta, ps.sigma)
            else:
                dist = Deterministic(ps.theta)
            key = (ps.cpu, ps.mem)
            demand = demands.get(key)
            if demand is None:
                demand = demands[key] = Resources.of(ps.cpu, ps.mem)
            phases.append(
                Phase(
                    k,
                    ps.num_tasks,
                    demand,
                    dist,
                    parents=ps.parents,
                    name=f"{self.name}-p{k}",
                )
            )
        return phases


# Discrete demand menu mirroring the bucketed CPU/memory requests of the
# Google traces (values in cores / GB); weights skew toward small requests.
# Frozen: shared module state must stay immutable (repro-lint RL014).
_DEMAND_MENU: tuple[tuple[float, float, float], ...] = (
    # (cpu, mem, weight)
    (0.5, 1.0, 0.25),
    (1.0, 2.0, 0.40),
    (2.0, 4.0, 0.22),
    (4.0, 8.0, 0.10),
    (8.0, 16.0, 0.03),
)


class GoogleTraceGenerator:
    """Generates synthetic Google-trace-like job specs.

    Parameters
    ----------
    seed:
        RNG seed; every call sequence is reproducible.
    straggler_phase_fraction:
        Fraction of phases that are straggler-prone (paper: 0.70).
    straggler_cv:
        Coefficient of variation of task times in straggler-prone phases.
        A fitted Pareto with cv = 1.0 has tail index α ≈ 2.41, putting the
        99.9th percentile near 20× the minimum — the paper's extreme.
    normal_cv:
        cv of well-behaved phases.
    mean_theta:
        Median-ish task duration scale (seconds).  The default 30 s is in
        line with the paper's 5 s scheduling slot being "comparable to the
        duration of small tasks".
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        straggler_phase_fraction: float = 0.70,
        straggler_cv: float = 1.0,
        normal_cv: float = 0.2,
        mean_theta: float = 30.0,
    ) -> None:
        if not 0.0 <= straggler_phase_fraction <= 1.0:
            raise ValueError("straggler_phase_fraction must be in [0, 1]")
        self.rng = np.random.default_rng(seed)
        self.straggler_phase_fraction = straggler_phase_fraction
        self.straggler_cv = straggler_cv
        self.normal_cv = normal_cv
        self.mean_theta = mean_theta

    # ------------------------------------------------------------------
    def sample_job_size(self) -> int:
        """Heavy-tailed total task count: mostly small jobs, a thin tail
        of large ones (95% small, as the trace analysis reports)."""
        u = self.rng.random()
        if u < 0.60:
            return int(self.rng.integers(1, 11))          # tiny: 1-10 tasks
        if u < 0.90:
            return int(self.rng.integers(11, 101))        # small: 11-100
        if u < 0.99:
            return int(self.rng.integers(101, 501))       # medium
        return int(self.rng.integers(501, 2001))          # large tail

    def sample_demand(self) -> Resources:
        weights = np.array([w for _, _, w in _DEMAND_MENU])
        k = int(self.rng.choice(len(_DEMAND_MENU), p=weights / weights.sum()))
        cpu, mem, _ = _DEMAND_MENU[k]
        return Resources.of(cpu, mem)

    def sample_theta(self) -> float:
        """Lognormal task duration around ``mean_theta`` with a wide body;
        95% of resulting *jobs* stay far below the two-hour mark."""
        return float(self.rng.lognormal(np.log(self.mean_theta), 0.8))

    def sample_num_phases(self) -> int:
        u = self.rng.random()
        if u < 0.40:
            return 1
        if u < 0.85:
            return 2
        return int(self.rng.integers(3, 6))

    def make_job_spec(self, arrival_time: float, index: int) -> TraceJobSpec:
        n_tasks = self.sample_job_size()
        n_phases = min(self.sample_num_phases(), n_tasks)
        # Split tasks across phases: first phase (map-like) largest.
        splits = self.rng.dirichlet(np.linspace(2.0, 1.0, n_phases)) * n_tasks
        counts = np.maximum(1, np.round(splits).astype(int))
        phases: list[PhaseSpec] = []
        for k in range(n_phases):
            demand = self.sample_demand()
            theta = self.sample_theta()
            straggly = self.rng.random() < self.straggler_phase_fraction
            cv = self.straggler_cv if straggly else self.normal_cv
            phases.append(
                PhaseSpec(
                    num_tasks=int(counts[k]),
                    cpu=demand.cpu,
                    mem=demand.mem,
                    theta=theta,
                    sigma=cv * theta,
                    parents=(k - 1,) if k > 0 else (),
                )
            )
        return TraceJobSpec(
            name=f"trace-job-{index}",
            arrival_time=float(arrival_time),
            phases=tuple(phases),
        )

    def generate(
        self,
        num_jobs: int,
        *,
        mean_interarrival: float = 20.0,
        start: float = 0.0,
    ) -> list[TraceJobSpec]:
        """Generate ``num_jobs`` specs with exponential inter-arrivals."""
        if num_jobs < 0:
            raise ValueError("num_jobs must be non-negative")
        if mean_interarrival < 0:
            raise ValueError("mean_interarrival must be non-negative")
        t = start
        specs: list[TraceJobSpec] = []
        for i in range(num_jobs):
            specs.append(self.make_job_spec(t, i))
            if mean_interarrival > 0:
                t += float(self.rng.exponential(mean_interarrival))
        return specs


# ----------------------------------------------------------------------
# Spec → Job materialization
# ----------------------------------------------------------------------
def jobs_from_specs(specs: Sequence[TraceJobSpec]) -> list[Job]:
    """One :class:`Job` per spec, each holding its spec until the first
    read of its ``phases`` builds the graph (Pareto-fitted task times;
    the engine reads it when the job arrives, DESIGN.md §5.6).

    Phases with equal demands share one (frozen) :class:`Resources`."""
    demands: dict[tuple[float, float], Resources] = {}
    return [Job.from_spec(spec, demands) for spec in specs]


def job_from_spec(spec: TraceJobSpec) -> Job:
    """One spec's job (streaming-source counterpart of
    :func:`jobs_from_specs`)."""
    return Job.from_spec(spec)


# ----------------------------------------------------------------------
# Trace file I/O (JSON) — real traces converted to this schema replay
# identically through the same path.
# ----------------------------------------------------------------------
def save_trace(specs: Sequence[TraceJobSpec], path: str | Path) -> None:
    payload = {
        "format": "repro-trace-v1",
        "jobs": [spec_to_dict(s) for s in specs],
    }
    Path(path).write_text(json.dumps(payload, indent=1))


def spec_to_dict(spec: TraceJobSpec) -> dict:
    """One spec as a plain JSON-ready dict (trace files, JSONL lines)."""
    d = {**asdict(spec), "phases": [asdict(p) for p in spec.phases]}
    if spec.job_id is None:
        del d["job_id"]  # keep old-schema files byte-stable
    return d


def spec_from_dict(j: dict) -> TraceJobSpec:
    """Parse one job-spec dict — the shared decoder for trace-file
    entries and JSONL stream lines."""
    phases = tuple(
        PhaseSpec(
            num_tasks=p["num_tasks"],
            cpu=p["cpu"],
            mem=p["mem"],
            theta=p["theta"],
            sigma=p["sigma"],
            parents=p["parents"],
        )
        for p in j["phases"]
    )
    return TraceJobSpec(
        name=j["name"],
        arrival_time=j["arrival_time"],
        phases=phases,
        job_id=j.get("job_id"),
    )


def load_trace(path: str | Path) -> list[TraceJobSpec]:
    payload = json.loads(Path(path).read_text())
    if payload.get("format") != "repro-trace-v1":
        raise ValueError(f"unrecognized trace format in {path}")
    return [spec_from_dict(j) for j in payload["jobs"]]
