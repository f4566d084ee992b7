"""Per-job records and aggregate results of one simulation run.

The evaluation (Sec. 6) compares schedulers on: job flowtime (f_j − a_j,
the OPT objective), job running time (finish − first launch, Figs. 1,
4b, 5), resource usage (copy-seconds weighted by demand, Fig. 8b),
makespan, clone counts/fractions (Fig. 10b) and scheduling overhead
(Sec. 6.3.3).  Everything needed for those figures is captured here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.resources import Resources

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import SimulationEngine
    from repro.workload.job import Job

__all__ = ["JobRecord", "SimulationResult", "build_result"]


@dataclass(frozen=True)
class JobRecord:
    """Everything the figures need about one completed job."""

    job_id: int
    name: str
    arrival_time: float
    first_start_time: float
    finish_time: float
    num_phases: int
    num_tasks: int
    num_copies: int
    num_clones: int
    tasks_with_clones: int
    cpu_seconds: float
    mem_seconds: float

    @property
    def flowtime(self) -> float:
        return self.finish_time - self.arrival_time

    @property
    def running_time(self) -> float:
        return self.finish_time - self.first_start_time

    @property
    def wait_time(self) -> float:
        return self.first_start_time - self.arrival_time

    def normalized_usage(self, total: Resources) -> float:
        """Resource usage as in Fig. 8(b): CPU- and memory-seconds summed
        after normalizing each dimension by the cluster total."""
        return self.cpu_seconds / total.cpu + self.mem_seconds / total.mem


@dataclass(frozen=True)
class SimulationResult:
    """Aggregate outcome of one (workload, scheduler) run."""

    scheduler_name: str
    records: tuple[JobRecord, ...]
    cluster_capacity: Resources
    avg_utilization: Resources
    clones_launched: int
    copies_launched: int
    simulated_time: float
    #: Wall seconds of the schedule passes as ``(count, total, max)``,
    #: ``()`` once cleared by :meth:`deterministic`.  The name and the
    #: cleared value predate the summary form: the benchmark's pinned
    #: digests hash ``repr(result.deterministic())``.
    schedule_pass_seconds: tuple[()] | tuple[int, float, float]
    # Fault accounting (DESIGN.md §5.5) — all zero absent injection.
    faults_injected: int = 0
    copies_lost: int = 0
    recoveries_masked_by_clone: int = 0
    tasks_requeued: int = 0
    # Events processed by the engine (DESIGN.md §5.8) — part of the
    # bit-identity surface for session vs one-shot comparisons.
    events_processed: int = 0

    # ------------------------------------------------------------------
    # Vector accessors (sorted by job id so runs are comparable job-wise)
    # ------------------------------------------------------------------
    def flowtimes(self) -> np.ndarray:
        return np.array([r.flowtime for r in self.records])

    def running_times(self) -> np.ndarray:
        return np.array([r.running_time for r in self.records])

    def usages(self) -> np.ndarray:
        return np.array(
            [r.normalized_usage(self.cluster_capacity) for r in self.records]
        )

    # ------------------------------------------------------------------
    # Scalar aggregates
    # ------------------------------------------------------------------
    @property
    def num_jobs(self) -> int:
        return len(self.records)

    @property
    def total_flowtime(self) -> float:
        return float(self.flowtimes().sum())

    @property
    def mean_flowtime(self) -> float:
        # Empty workloads (idle service sessions) aggregate to 0.0
        # rather than a numpy nan/warning.
        if not self.records:
            return 0.0
        return float(self.flowtimes().mean())

    @property
    def mean_running_time(self) -> float:
        if not self.records:
            return 0.0
        return float(self.running_times().mean())

    @property
    def makespan(self) -> float:
        """Longest completion: max f_j − min a_j (Fig. 8 reports this)."""
        if not self.records:
            return 0.0
        finish = max(r.finish_time for r in self.records)
        arrive = min(r.arrival_time for r in self.records)
        return finish - arrive

    @property
    def total_usage(self) -> float:
        return float(self.usages().sum())

    @property
    def clone_task_fraction(self) -> float:
        """Fraction of tasks that had at least one clone (Fig. 10b)."""
        tasks = sum(r.num_tasks for r in self.records)
        cloned = sum(r.tasks_with_clones for r in self.records)
        return cloned / tasks if tasks else 0.0

    @property
    def mean_schedule_pass_ms(self) -> float:
        count, total, _ = self.schedule_pass_seconds or (0, 0.0, 0.0)
        return 1e3 * total / count if count else 0.0

    @property
    def max_schedule_pass_ms(self) -> float:
        _, _, longest = self.schedule_pass_seconds or (0, 0.0, 0.0)
        return 1e3 * longest

    def deterministic(self) -> "SimulationResult":
        """Copy with host wall-clock fields cleared — the bit-identity
        comparison surface for session-vs-one-shot and checkpoint
        restore checks (``schedule_pass_seconds`` is perf_counter noise
        that legitimately differs between two runs of the same seed)."""
        return replace(self, schedule_pass_seconds=())

    def cumulative_flowtime_series(self) -> tuple[np.ndarray, np.ndarray]:
        """(arrival-ordered job index, cumulative flowtime) — the series
        plotted in Fig. 7."""
        order = sorted(self.records, key=lambda r: r.arrival_time)
        flows = np.array([r.flowtime for r in order])
        return np.arange(1, len(order) + 1), np.cumsum(flows)

    def summary(self) -> dict[str, float]:
        out = {
            "jobs": float(self.num_jobs),
            "total_flowtime": self.total_flowtime,
            "mean_flowtime": self.mean_flowtime,
            "mean_running_time": self.mean_running_time,
            "makespan": self.makespan,
            "total_usage": self.total_usage,
            "clones": float(self.clones_launched),
            "clone_task_fraction": self.clone_task_fraction,
            "avg_cpu_utilization": self.avg_utilization.cpu,
            "avg_mem_utilization": self.avg_utilization.mem,
            "mean_schedule_pass_ms": self.mean_schedule_pass_ms,
        }
        # Fault keys appear only when faults fired, so no-fault summaries
        # stay byte-identical to a build without the fault subsystem.
        if self.faults_injected:
            out["faults_injected"] = float(self.faults_injected)
            out["copies_lost"] = float(self.copies_lost)
            out["recoveries_masked_by_clone"] = float(self.recoveries_masked_by_clone)
            out["tasks_requeued"] = float(self.tasks_requeued)
        return out


def record_for_job(job: "Job") -> JobRecord:
    """Build the per-job record from a finished job's task ledgers.

    Usage adds one product per copy, in (phase, task, launch) order —
    the order a walk over the copies themselves would take, so the sums
    are bit-identical to it."""
    if job.finish_time is None:
        raise ValueError(f"job {job.job_id} has not finished")
    first_start = job.first_start_time()
    assert first_start is not None
    num_copies = 0
    num_clones = 0
    tasks_with_clones = 0
    cpu_seconds = 0.0
    mem_seconds = 0.0
    for phase in job.phases:
        cpu = phase.demand.cpu
        mem = phase.demand.mem
        for task in phase.tasks:
            ledger = task.ledger
            assert ledger is not None, f"task {task.uid} has not finished"
            num_copies += len(ledger.durations)
            num_clones += ledger.clones
            if ledger.clones:
                tasks_with_clones += 1
            for d in ledger.durations:
                cpu_seconds += cpu * d
                mem_seconds += mem * d
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


def build_result(engine: "SimulationEngine") -> SimulationResult:
    records = tuple(sorted(engine.records, key=lambda r: r.job_id))
    return SimulationResult(
        scheduler_name=engine.scheduler.name,
        records=records,
        cluster_capacity=engine.cluster.total_capacity,
        avg_utilization=engine.average_utilization(),
        clones_launched=engine.clones_launched,
        copies_launched=engine.copies_launched,
        simulated_time=engine.now,
        schedule_pass_seconds=(
            engine.schedule_passes,
            engine.schedule_pass_total_s,
            engine.schedule_pass_max_s,
        ),
        faults_injected=engine.faults_injected,
        copies_lost=engine.copies_lost,
        recoveries_masked_by_clone=engine.recoveries_masked_by_clone,
        tasks_requeued=engine.tasks_requeued,
        events_processed=engine.events_processed,
    )
