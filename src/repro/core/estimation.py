"""Application Master statistics estimation (Sec. 5.2).

The real DollyMP does not know task statistics a priori; its AM
estimates them in three tiers:

1. "recurring jobs are fairly common ... For such jobs, AM directly
   applies task statistics measured in prior runs of the job";
2. "the tasks from the same phase within a job have similar resource
   requirements and execution properties.  Hence, AM estimates the
   resource demands and execution times of a phase ... using the
   measured statistics from the first few tasks, and update[s] it
   timely when more tasks finish";
3. "when none of the above properties are satisfied, AM just uses the
   resource demand from the container request" — i.e. the submitted
   hint.

:class:`PhaseStatsEstimator` implements all three tiers, and
:class:`EstimatingDollyMPScheduler` runs Algorithm 2 on the *estimated*
(θ, σ) instead of the ground truth — quantifying how much DollyMP's
performance depends on clairvoyance (see
``tests/core/test_estimation.py``).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.core.online import DollyMPScheduler
from repro.core.transient import compute_priorities
from repro.core.volume import JobMeasure, phase_dominant_share
from repro.workload.dag import critical_path_length
from repro.workload.job import Job
from repro.workload.phase import Phase
from repro.workload.task import Task

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import ClusterView

__all__ = ["PhaseStatsEstimator", "EstimatingDollyMPScheduler"]


def _moments(durations: list[float]) -> tuple[float, float]:
    n = len(durations)
    mean = sum(durations) / n
    if n < 2:
        return mean, 0.0
    var = sum((d - mean) ** 2 for d in durations) / (n - 1)
    return mean, math.sqrt(var)


class PhaseStatsEstimator:
    """Three-tier (θ, σ) estimation keyed by (job name, phase name).

    Recurring jobs share their ``job.name`` (e.g. ``wordcount-10GB``);
    history accumulates winner-copy durations per (job name, phase name)
    and is consulted when the current phase has too few finished tasks.
    """

    def __init__(
        self,
        *,
        min_task_samples: int = 3,
        max_history: int = 512,
        default_cv: float = 0.0,
    ) -> None:
        if min_task_samples < 1:
            raise ValueError("min_task_samples must be >= 1")
        if max_history < 2:
            raise ValueError("max_history must be >= 2")
        if default_cv < 0:
            raise ValueError("default_cv must be non-negative")
        self.min_task_samples = min_task_samples
        self.max_history = max_history
        self.default_cv = default_cv
        self._history: dict[tuple[str, str], list[float]] = {}

    # ------------------------------------------------------------------
    @staticmethod
    def _key(job: Job, phase: Phase) -> tuple[str, str]:
        return (job.name, phase.name)

    @staticmethod
    def _phase_durations(phase: Phase) -> list[float]:
        """Winner-copy durations of the phase's finished tasks, read
        from their ledgers."""
        out = []
        for task in phase.built_tasks():
            ledger = task.ledger
            if ledger is not None and ledger.winner_duration is not None:
                out.append(ledger.winner_duration)
        return out

    def record_task(self, task: Task) -> None:
        """Fold a finished task's winner duration into the history."""
        ledger = task.ledger
        if ledger is None or ledger.winner_duration is None:
            return
        hist = self._history.setdefault(self._key(task.job, task.phase), [])
        hist.append(ledger.winner_duration)
        if len(hist) > self.max_history:
            del hist[: len(hist) - self.max_history]

    def history_size(self, job: Job, phase: Phase) -> int:
        return len(self._history.get(self._key(job, phase), ()))

    # ------------------------------------------------------------------
    def estimate(self, job: Job, phase: Phase) -> tuple[float, float]:
        """(θ̂, σ̂) for a phase, using the best available tier."""
        # Tier 2 first when the *current* phase already has samples —
        # fresher than history ("update it timely when more tasks
        # finish").
        current = self._phase_durations(phase)
        if len(current) >= self.min_task_samples:
            return _moments(current)
        # Tier 1: prior runs of the recurring job.
        hist = self._history.get(self._key(job, phase), [])
        if len(hist) >= self.min_task_samples:
            return _moments(hist)
        # Tier 3: the submitted hint (the "container request").
        theta = phase.theta
        sigma = phase.sigma if phase.sigma > 0 else self.default_cv * theta
        return theta, sigma

    def effective_time(self, job: Job, phase: Phase, r: float) -> float:
        theta, sigma = self.estimate(job, phase)
        return theta + r * sigma

    def measure_job(self, job: Job, total_capacity, *, r: float) -> JobMeasure:
        """The Algorithm-1 inputs computed from *estimated* statistics
        over the job's remaining phases (Eqs. 14–17 with θ̂, σ̂)."""
        volume = 0.0
        shares = []
        for phase in job.phases:
            n = phase.num_unfinished
            if n == 0:
                continue
            d = phase_dominant_share(phase, total_capacity)
            shares.append(d)
            volume += n * self.effective_time(job, phase, r) * d
        length = critical_path_length(
            job.parents_list(),
            lambda k: self.effective_time(job, job.phases[k], r),
            include=lambda k: not job.phases[k].is_finished,
        )
        return JobMeasure(
            job_id=job.job_id,
            volume=volume,
            length=length,
            max_dominant_share=max(shares, default=0.0),
        )


class EstimatingDollyMPScheduler(DollyMPScheduler):
    """DollyMP driven by AM-estimated statistics instead of ground truth."""

    def __init__(self, *, estimator: PhaseStatsEstimator | None = None, **kwargs) -> None:
        super().__init__(**kwargs)
        self.estimator = estimator if estimator is not None else PhaseStatsEstimator()
        self.name = f"Estimating{self.name}"

    def on_task_finish(self, task: Task, view: "ClusterView") -> None:
        self.estimator.record_task(task)

    def recompute_priorities(self, view: "ClusterView") -> None:
        total = view.cluster.total_capacity
        measures = [
            self.estimator.measure_job(j, total, r=self.r) for j in view.active_jobs
        ]
        self._priorities = compute_priorities(measures)
