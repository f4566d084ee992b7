"""Graphene: dependency-aware packing [Grandl et al., OSDI'16].

"The strength of Graphene is to deal with jobs consisting of
heterogeneous DAGs, and it performs similarly to Tetris for jobs with
sequential dependencies" (Sec. 6.3.2) — the paper therefore only plots
Carbyne, but we implement Graphene for completeness and to validate that
equivalence claim (tested in the benchmark suite).

Reimplementation: Tetris-style alignment placement, with each job's
schedulable work ordered by *downstream criticality* — among a job's
ready phases the one heading the longest remaining dependency chain is
offered first (the "troublesome tasks first" core of Graphene, collapsed
to its phase-level effect).  For chain DAGs exactly one phase is ready
at a time, so the policy degenerates to Tetris, as the paper states.
"""

from __future__ import annotations

from repro.schedulers.tetris import TetrisScheduler
from repro.workload.job import Job
from repro.workload.phase import Phase

__all__ = ["GrapheneScheduler"]


class GrapheneScheduler(TetrisScheduler):
    name = "Graphene"

    @staticmethod
    def downstream_criticality(job: Job, phase: Phase) -> float:
        """Length of the longest unfinished chain starting at ``phase``."""
        parents = job.parents_list()
        n = len(parents)
        children: list[list[int]] = [[] for _ in range(n)]
        for child, ps in enumerate(parents):
            for p in ps:
                children[p].append(child)
        # Longest path in the reversed DAG from `phase`, over unfinished
        # phases, weighted by mean remaining time.
        memo: dict[int, float] = {}

        def down(k: int) -> float:
            if k in memo:
                return memo[k]
            own = job.phases[k].theta if not job.phases[k].is_finished else 0.0
            memo[k] = own + max((down(c) for c in children[k]), default=0.0)
            return memo[k]

        return down(phase.index)

    def _candidate_phases(self, job: Job, now: float) -> list[Phase]:
        ready = [
            p
            for p in job.ready_phases(now)
            if p.num_pending
        ]
        if not ready:
            return []
        best = max(
            ready, key=lambda p: (self.downstream_criticality(job, p), -p.index)
        )
        return [best]
