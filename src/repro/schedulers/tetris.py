"""Tetris: multi-resource packing + SRPT [Grandl et al., SIGCOMM'14].

Tetris scores every (pending task, server) pair by an *alignment* term —
the inner product of the task's demand and the server's remaining
capacity, which favours placements leaving little fragmented space — and
adds an SRPT-flavoured term favouring jobs with little remaining work;
the pair with the highest combined score is placed first (Secs. 2, 6.1
of the DollyMP paper describe this baseline as "a weighted score for
each of the mapping pairs between the available server and unscheduled
tasks").

Both terms are normalized to comparable scales: alignment by the square
of the largest server capacity, shortness to (0, 1].  ``epsilon`` weighs
the SRPT term; the small default keeps alignment dominant, matching the
behaviour in the paper's Fig. 2 example where Tetris prefers the
perfectly-aligned large job.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.resources import EPS
from repro.schedulers.base import Scheduler
from repro.schedulers.speculation import NoSpeculation, SpeculationPolicy
from repro.sim.actions import Launch
from repro.workload.job import Job
from repro.workload.phase import Phase

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import ClusterView

__all__ = ["TetrisScheduler"]


class _JobCandidate:
    __slots__ = ("job", "phase", "queue", "shortness", "best_server_id", "best_align")

    def __init__(self, job: Job, phase: Phase, queue: list[int], shortness: float) -> None:
        self.job = job
        self.phase = phase
        self.queue = queue  # pending task indices, launched from the end
        self.shortness = shortness
        self.best_server_id: int | None = None
        self.best_align = -1.0


class TetrisScheduler(Scheduler):
    name = "Tetris"

    def __init__(
        self,
        *,
        epsilon: float = 0.2,
        speculation: SpeculationPolicy | None = None,
    ) -> None:
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        self.epsilon = epsilon
        self.speculation = speculation if speculation is not None else NoSpeculation()

    # ------------------------------------------------------------------
    def _candidate_phases(self, job: Job, now: float) -> list[Phase]:
        """Which phases of the job to offer — overridable (Graphene picks
        only the most downstream-critical ready phase instead)."""
        return job.ready_phases(now)

    def _rescore(self, cand: _JobCandidate, cluster) -> None:
        hit = cluster.mirror.best_fit(cand.phase.demand)
        if hit is None:
            cand.best_server_id, cand.best_align = None, -1.0
        else:
            cand.best_server_id, cand.best_align = hit

    def schedule(self, view: "ClusterView") -> None:
        jobs = view.active_jobs
        if not jobs:
            return
        remaining = {j.job_id: max(j.remaining_effective_length(0.0), EPS) for j in jobs}
        max_rem = max(remaining.values())
        cands: list[_JobCandidate] = []
        for j in jobs:
            shortness = 1.0 - remaining[j.job_id] / max_rem  # in [0, 1)
            for phase in self._candidate_phases(j, view.time):
                if phase.num_pending:
                    cands.append(
                        _JobCandidate(j, phase, phase.pending_indices(), shortness)
                    )
        cluster = view.cluster
        align_scale = cluster.peak_alignment
        for c in cands:
            self._rescore(c, cluster)
        while True:
            best: _JobCandidate | None = None
            best_score = -1.0
            for c in cands:
                if not c.queue or c.best_server_id is None:
                    continue
                score = c.best_align / align_scale + self.epsilon * c.shortness
                if score > best_score:
                    best, best_score = c, score
            if best is None:
                break
            task = best.phase.task(best.queue.pop())
            sid = best.best_server_id
            assert sid is not None
            view.apply(Launch(task, sid))
            for c in cands:
                if c.best_server_id == sid:
                    self._rescore(c, cluster)
            cands = [c for c in cands if c.queue and c.best_server_id is not None]
        self.speculation.launch_backups(view, jobs)
