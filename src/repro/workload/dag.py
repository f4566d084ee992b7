"""DAG utilities for phase dependency graphs.

Jobs are DAGs of phases (Sec. 3); each phase's parents must finish before
any of its tasks may start (Eq. 7).  These helpers validate the graph,
produce topological orders, and compute critical paths over arbitrary
per-phase length functions — the L_j of Eq. (14) and the remaining-phase
variant L_j(t) of Eq. (17).

A graph whose every parent index is below its child's is acyclic by
construction, and its lowest-index-first topological order is
``0..n-1``; every job's graph has that shape, so the helpers skip
Kahn's sort for it.
"""

from __future__ import annotations

from typing import Callable, Sequence

__all__ = [
    "validate_dag",
    "topological_order",
    "critical_path_length",
    "critical_path",
]


def validate_dag(parents: Sequence[tuple[int, ...]]) -> None:
    """Raise ``ValueError`` unless the phase graph is a proper DAG with
    integer, in-range parent indices."""
    n = len(parents)
    ordered = True
    for child, ps in enumerate(parents):
        for p in ps:
            if type(p) is bool or not isinstance(p, int):
                raise ValueError(f"phase {child}: parent {p!r} is not an integer")
            if not (0 <= p < n):
                raise ValueError(f"phase {child}: parent {p} out of range")
            if p == child:
                raise ValueError(f"phase {child} depends on itself")
            if p > child:
                ordered = False
    if not ordered:
        _kahn_order(parents)  # raises on a cycle


def _index_ordered(parents: Sequence[tuple[int, ...]]) -> bool:
    """True when every parent is an ``int`` below its child's index —
    the graph of every :class:`~repro.workload.job.Job`, whose phases
    reject any other parent.  Such a graph is acyclic by construction,
    and lowest-index-first Kahn visits it in index order."""
    for child, ps in enumerate(parents):
        for p in ps:
            if type(p) is not int or not 0 <= p < child:
                return False
    return True


def topological_order(parents: Sequence[tuple[int, ...]]) -> list[int]:
    """A topological order of phase indices (parents before children):
    the lowest-index-first Kahn order, which is ``0..n-1`` for an
    index-ordered graph."""
    if _index_ordered(parents):
        return list(range(len(parents)))
    return _kahn_order(parents)


def _kahn_order(parents: Sequence[tuple[int, ...]]) -> list[int]:
    """Kahn's sort, lowest index first; raises on a cycle."""
    n = len(parents)
    indeg = [0] * n
    children: list[list[int]] = [[] for _ in range(n)]
    for child, ps in enumerate(parents):
        indeg[child] = len(ps)
        for p in ps:
            children[p].append(child)
    ready = sorted(i for i in range(n) if indeg[i] == 0)
    order: list[int] = []
    while ready:
        u = ready.pop(0)
        order.append(u)
        for c in children[u]:
            indeg[c] -= 1
            if indeg[c] == 0:
                # Insert keeping 'ready' sorted; lists are tiny (phases).
                lo = 0
                while lo < len(ready) and ready[lo] < c:
                    lo += 1
                ready.insert(lo, c)
    if len(order) != n:
        raise ValueError("phase dependencies contain a cycle")
    return order


def critical_path_length(
    parents: Sequence[tuple[int, ...]],
    length_of: Callable[[int], float],
    *,
    include: Callable[[int], bool] | None = None,
) -> float:
    """Length of the longest path where node *k* weighs ``length_of(k)``.

    ``include`` restricts the computation to a phase subset (excluded
    phases contribute zero length but still propagate dependencies) —
    used for the remaining-phase critical path L_j(t) of Eq. (17).
    """
    order = topological_order(parents)
    longest: dict[int, float] = {}
    for k in order:
        own = length_of(k) if (include is None or include(k)) else 0.0
        best_parent = max((longest[p] for p in parents[k]), default=0.0)
        longest[k] = best_parent + own
    return max(longest.values(), default=0.0)


def critical_path(
    parents: Sequence[tuple[int, ...]],
    length_of: Callable[[int], float],
) -> list[int]:
    """The phases on (one of) the longest path(s), in topological order."""
    order = topological_order(parents)
    longest: dict[int, float] = {}
    back: dict[int, int | None] = {}
    for k in order:
        own = length_of(k)
        best_parent: int | None = None
        best = 0.0
        for p in parents[k]:
            if longest[p] > best:
                best, best_parent = longest[p], p
        longest[k] = best + own
        back[k] = best_parent
    if not longest:
        return []
    end = max(longest, key=lambda k: longest[k])
    path: list[int] = []
    node: int | None = end
    while node is not None:
        path.append(node)
        node = back[node]
    path.reverse()
    return path
