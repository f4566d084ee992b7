"""The knapsack optimization oracle of Algorithm 1.

Step 6 of Algorithm 1 solves, per category l::

    max Σ x_j   s.t.   Σ v_j x_j ≤ 2^l,   x ∈ {0,1}

i.e. a 0/1 knapsack with *unit profits*.  As the paper notes, with equal
profits the oracle "can be solved efficiently by selecting items with the
smallest weights" — the greedy is exactly optimal here, not an
approximation.  :func:`max_count_knapsack` implements it in O(n log n);
the test suite cross-validates it against an independent dynamic
program (``max_count_knapsack_exact`` in ``tests/reference.py``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["max_count_knapsack", "max_count_knapsack_batch"]


def max_count_knapsack(weights: Sequence[float], capacity: float) -> list[int]:
    """Indices of a maximum-cardinality subset with total weight ≤ capacity.

    Greedy smallest-weight-first, which is optimal for unit profits:
    exchanging any selected item for a lighter unselected one never
    decreases feasibility.  Ties broken by index for determinism.
    Zero- and negative-weight checks guard against bad volumes upstream.
    """
    if capacity < 0:
        raise ValueError(f"capacity must be non-negative, got {capacity}")
    w = np.asarray(weights, dtype=float)
    if w.size == 0:
        return []
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    order = np.argsort(w, kind="stable")
    csum = np.cumsum(w[order])
    # Tolerate float accumulation at the boundary.
    k = int(np.searchsorted(csum, capacity * (1 + 1e-12), side="right"))
    return sorted(int(i) for i in order[:k])


def max_count_knapsack_batch(
    weights: Sequence[float],
    capacities: Sequence[float],
    *,
    eligible: Sequence[np.ndarray] | None = None,
) -> list[np.ndarray]:
    """Solve the unit-profit knapsack for many capacities in one pass.

    Equivalent to calling :func:`max_count_knapsack` once per capacity —
    optionally restricting instance ``i`` to the items where
    ``eligible[i]`` is true — but the O(n log n) stable sort is paid
    once, and the per-instance work is a masked cumsum plus a binary
    search.  Returned indices are in the *original* ``weights`` index
    space (unlike the scalar helper applied to a compacted eligible
    list), ascending.

    Bit-identical to the scalar loop: a stable sort of an eligible
    subset equals the subset of the stable-sorted whole (stability and
    filtering both preserve original relative order among equal
    weights), so the masked cumsum adds the same floats in the same
    order and the boundary search lands on the same k.
    """
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    if eligible is not None and len(eligible) != len(capacities):
        raise ValueError("eligible must supply one mask per capacity")
    order = np.argsort(w, kind="stable")
    w_sorted = w[order]
    full_csum = np.cumsum(w_sorted)
    boundary = np.multiply(capacities, 1 + 1e-12)
    results: list[np.ndarray] = []
    for i, cap in enumerate(capacities):
        if cap < 0:
            raise ValueError(f"capacity must be non-negative, got {cap}")
        if eligible is None:
            k = int(np.searchsorted(full_csum, boundary[i], side="right"))
            sel = order[:k]
        else:
            mask = np.asarray(eligible[i], dtype=bool)[order]
            csum = np.cumsum(w_sorted[mask])
            k = int(np.searchsorted(csum, boundary[i], side="right"))
            sel = order[np.flatnonzero(mask)[:k]]
        results.append(np.sort(sel))
    return results

