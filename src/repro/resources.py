"""Multi-dimensional resource vectors.

The paper models two resource dimensions — CPU cores and memory (GB) —
per server (Sec. 3: server *i* has capacity ``C_i`` cores and ``M_i`` GB)
and per task (phase ``k`` of job ``j`` demands ``c_j^k`` cores and
``m_j^k`` GB).  :class:`Resources` is the shared vector type used for
capacities, demands, allocations and availability throughout the library.

Instances are immutable; arithmetic returns new vectors.  All comparisons
used for packing (:meth:`Resources.fits_in`) are component-wise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = ["EPS", "Resources", "ZERO", "sum_resources"]

# Tolerance for floating-point capacity checks.  Allocations are sums of
# demands, so exact comparisons would spuriously reject feasible packings
# after a few hundred float additions.  This is the *single* canonical
# epsilon: every tolerance comparison in the library imports it (enforced
# by repro-lint rule RL005), so the vectorized mirror's feasibility masks
# and ``Resources.fits_in`` can never drift apart.
EPS = 1e-9


@dataclass(frozen=True, slots=True)
class Resources:
    """An (ordered) pair of resource quantities: CPU cores and memory GB.

    The class is deliberately tiny — scheduling inner loops create and
    compare millions of these, so it stays two floats with no indirection.
    """

    cpu: float = 0.0
    mem: float = 0.0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def of(cpu: float, mem: float) -> "Resources":
        """Explicit named constructor (reads better at call sites)."""
        return Resources(float(cpu), float(mem))

    def __post_init__(self) -> None:
        if not (math.isfinite(self.cpu) and math.isfinite(self.mem)):
            raise ValueError(f"non-finite resource vector ({self.cpu}, {self.mem})")

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: "Resources") -> "Resources":
        return Resources(self.cpu + other.cpu, self.mem + other.mem)

    def __sub__(self, other: "Resources") -> "Resources":
        return Resources(self.cpu - other.cpu, self.mem - other.mem)

    def __mul__(self, k: float) -> "Resources":
        return Resources(self.cpu * k, self.mem * k)

    __rmul__ = __mul__

    def __truediv__(self, k: float) -> "Resources":
        return Resources(self.cpu / k, self.mem / k)

    def __neg__(self) -> "Resources":
        return Resources(-self.cpu, -self.mem)

    def __iter__(self) -> Iterator[float]:
        yield self.cpu
        yield self.mem

    # ------------------------------------------------------------------
    # Packing predicates
    # ------------------------------------------------------------------
    def fits_in(self, capacity: "Resources") -> bool:
        """True when this demand can be packed within ``capacity``.

        Component-wise ``<=`` with a small tolerance — the multi-resource
        constraint of Eq. (5) in the paper.
        """
        return (
            self.cpu <= capacity.cpu + EPS and self.mem <= capacity.mem + EPS
        )

    def is_zero(self) -> bool:
        return abs(self.cpu) <= EPS and abs(self.mem) <= EPS

    def clamp_nonnegative(self) -> "Resources":
        """Zero out negative components introduced by float round-off."""
        return Resources(max(self.cpu, 0.0), max(self.mem, 0.0))

    # ------------------------------------------------------------------
    # Scores used by schedulers
    # ------------------------------------------------------------------
    def dot(self, other: "Resources") -> float:
        """Inner product — Tetris' alignment score and DollyMP's
        best-resource-fit tie-break (Alg. 2, step 12) both use it."""
        return self.cpu * other.cpu + self.mem * other.mem

    def dominant_share(self, total: "Resources") -> float:
        """Dominant resource share of this demand against ``total``.

        Implements Eq. (9)/(15): ``max(c / ΣC, m / ΣM)``.  Dimensions with
        zero total are ignored (a cluster with no memory accounting never
        dominates on memory).
        """
        shares = []
        if total.cpu > 0:
            shares.append(self.cpu / total.cpu)
        if total.mem > 0:
            shares.append(self.mem / total.mem)
        if not shares:
            raise ValueError("dominant_share against an empty cluster")
        return max(shares)

    def max_component(self) -> float:
        return max(self.cpu, self.mem)

    def normalized_by(self, total: "Resources") -> "Resources":
        """Component-wise division by ``total`` (used for usage reports)."""
        return Resources(
            self.cpu / total.cpu if total.cpu > 0 else 0.0,
            self.mem / total.mem if total.mem > 0 else 0.0,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Resources(cpu={self.cpu:g}, mem={self.mem:g})"


ZERO = Resources(0.0, 0.0)


def sum_resources(items: Iterable[Resources]) -> Resources:
    """Sum an iterable of resource vectors (ZERO for an empty iterable)."""
    cpu = 0.0
    mem = 0.0
    for r in items:
        cpu += r.cpu
        mem += r.mem
    return Resources(cpu, mem)
