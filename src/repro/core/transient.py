"""Algorithm 1: the transient scheduling (priority) computation.

Jobs are binned into doubling length categories 2^1, 2^2, …, 2^g.  At
level l, the knapsack oracle packs as many jobs as possible among those
with effective length ≤ 2^l subject to total volume ≤ 2^l; a job's
priority p_j is the *first* level at which the oracle selects it.  Small
quick jobs get low levels (scheduled first, SRPT-like); big-volume jobs
surface once capacity doubles enough (SVF-like), and all jobs within a
level are treated equally — the SRPT/SVF balance at the heart of DollyMP
(Sec. 4.2).

The level count g = log₂(Σv / (1 − max_j d_j)) comes from the paper's
completion-time argument (Sec. 4.2.1); we additionally round up so the
last level can hold every job, which the argument presumes.

This computation is pure (measures in, priority levels out) and holds
no engine references: the scheduling layer turns the resulting order
into :class:`~repro.sim.actions.Launch` actions, keeping Algorithm 1
itself trivially compatible with trace recording and replay.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.knapsack import max_count_knapsack_batch
from repro.core.volume import JobMeasure

__all__ = ["num_levels", "compute_priorities", "priority_groups"]


def num_levels(measures: Sequence[JobMeasure]) -> int:
    """g of Algorithm 1, padded so that level g can pack all jobs."""
    if not measures:
        return 0
    total_volume = sum(m.volume for m in measures)
    max_share = max(m.max_dominant_share for m in measures)
    # Guard: a job demanding the full cluster makes 1 - max d ≤ 0; the
    # bound degenerates, so clamp the denominator.
    denom = max(1.0 - max_share, 1e-6)
    g = math.ceil(math.log2(max(total_volume / denom, 2.0)))
    max_length = max(m.length for m in measures)
    max_volume = max(m.volume for m in measures)
    need = math.ceil(math.log2(max(max_length, max_volume, total_volume, 2.0)))
    return max(g, need, 1)


def compute_priorities(measures: Sequence[JobMeasure]) -> dict[int, int]:
    """Map job_id → priority level (lower = scheduled earlier).

    Implements steps 2–11 of Algorithm 1.  Every job receives a finite
    priority: jobs never selected (possible only through float edge
    cases) fall to level g + 1.

    All g categories run as one batched knapsack over a single sort,
    bit-identical to Algorithm 1's per-level loop (the reference kernel
    in ``tests/reference.py``): the batch oracle's masked cumsum over
    the globally stable-sorted volumes adds exactly the floats each
    per-level ``max_count_knapsack`` would (stable sort of the eligible
    subset == subset of the stable-sorted whole), and the keep-earliest
    rule (step 7 assigns only where p^{l-1} = ∞) is the boolean
    ``assigned`` mask.  ``num_levels`` stays scalar on purpose — its
    sequential float sum is part of the identity contract.
    """
    if not measures:
        return {}
    ids = [m.job_id for m in measures]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate job ids in measures")
    n = len(measures)
    vol = np.fromiter((m.volume for m in measures), np.float64, n)
    length = np.fromiter((m.length for m in measures), np.float64, n)
    g = num_levels(measures)
    caps = [2.0**level for level in range(1, g + 1)]
    chosen = max_count_knapsack_batch(
        vol, caps, eligible=[length <= cap for cap in caps]
    )
    lvl = np.full(n, g + 1, dtype=np.int64)
    assigned = np.zeros(n, dtype=bool)
    for level_idx, sel in enumerate(chosen):
        take = sel[~assigned[sel]]
        if take.size:
            lvl[take] = level_idx + 1
            assigned[take] = True
    return {ids[i]: int(lvl[i]) for i in range(n)}


def priority_groups(priorities: dict[int, int]) -> list[tuple[int, list[int]]]:
    """Group job ids by level, ascending — the Ω_t^l sets of Algorithm 2."""
    groups: dict[int, list[int]] = {}
    for job_id, level in priorities.items():
        groups.setdefault(level, []).append(job_id)
    return [(lvl, sorted(groups[lvl])) for lvl in sorted(groups)]
