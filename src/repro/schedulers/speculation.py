"""Speculative execution policies for the baseline schedulers.

The Capacity Scheduler's MapReduce framework "has adopted some
speculative execution scheme to handle stragglers" (Sec. 2), yet Fig. 1
shows it failing because of "the late launching of extra backup copies
when a straggler is detected".  :class:`LATESpeculation` reproduces that
mechanism (and its failure mode): a backup copy launches only after

* a minimum fraction of the task's phase has completed (needed to
  estimate the phase's typical duration — the reason small jobs cannot
  be helped, Sec. 1), and
* the task's elapsed time exceeds a multiple of that estimate.

Unlike cloning, speculation reacts *after* the straggler is already
late — exactly the contrast the paper draws.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from repro.sim.actions import Launch
from repro.workload.task import Task, TaskState

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import ClusterView
    from repro.workload.job import Job

__all__ = ["SpeculationPolicy", "NoSpeculation", "LATESpeculation"]


class SpeculationPolicy(abc.ABC):
    """Decides which running tasks deserve a backup copy right now."""

    @abc.abstractmethod
    def backup_candidates(self, view: "ClusterView", jobs: list["Job"]) -> list[Task]:
        """Tasks to back up, most urgent first."""

    def launch_backups(self, view: "ClusterView", jobs: list["Job"]) -> int:
        """Place one backup per candidate on its best-fit server."""
        launched = 0
        for task in self.backup_candidates(view, jobs):
            server = view.cluster.best_fit_server(task.demand)
            if server is None:
                continue
            view.apply(Launch(task, server, clone=True))
            launched += 1
        return launched


class NoSpeculation(SpeculationPolicy):
    def backup_candidates(self, view: "ClusterView", jobs: list["Job"]) -> list[Task]:
        return []


class LATESpeculation(SpeculationPolicy):
    """LATE-style straggler detection [Zaharia et al., OSDI'08].

    Parameters mirror Hadoop's defaults: a task is speculatable when its
    elapsed time exceeds ``slow_threshold`` × the observed mean duration
    of completed tasks in its phase, at least ``min_completed_fraction``
    of the phase has finished, and the task has no live backup yet.
    ``max_backup_fraction`` caps concurrent backups cluster-wide.
    """

    def __init__(
        self,
        *,
        slow_threshold: float = 1.5,
        min_completed_fraction: float = 0.25,
        max_backup_fraction: float = 0.1,
    ) -> None:
        if slow_threshold <= 1.0:
            raise ValueError("slow_threshold must exceed 1")
        if not 0.0 < min_completed_fraction <= 1.0:
            raise ValueError("min_completed_fraction must be in (0, 1]")
        if not 0.0 <= max_backup_fraction <= 1.0:
            raise ValueError("max_backup_fraction must be in [0, 1]")
        self.slow_threshold = slow_threshold
        self.min_completed_fraction = min_completed_fraction
        self.max_backup_fraction = max_backup_fraction

    def backup_candidates(self, view: "ClusterView", jobs: list["Job"]) -> list[Task]:
        now = view.time
        running_total = 0
        backups_live = 0
        scored: list[tuple[float, Task]] = []
        for job in jobs:
            for phase in job.phases:
                running = phase.running_tasks()
                if not running:
                    continue
                running_total += len(running)
                backups_live += sum(1 for t in running if t.num_live_copies > 1)
                done = [t for t in phase.built_tasks() if t.state is TaskState.FINISHED]
                if len(done) < self.min_completed_fraction * phase.num_tasks:
                    continue  # not enough samples — small jobs never pass
                durations = [
                    t.finish_time - t.start_time
                    for t in done
                    if t.finish_time is not None and t.start_time is not None
                ]
                if not durations:
                    continue
                estimate = sum(durations) / len(durations)
                for t in running:
                    if t.num_live_copies > 1:
                        continue  # already backed up
                    start = t.start_time
                    if start is None:
                        continue
                    elapsed = now - start
                    if elapsed > self.slow_threshold * estimate:
                        scored.append((elapsed / estimate, t))
        if not scored:
            return []
        budget = max(0, int(self.max_backup_fraction * running_total) - backups_live)
        scored.sort(key=lambda p: -p[0])
        return [t for _, t in scored[:budget]]
