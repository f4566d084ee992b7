"""Task execution-time distributions.

The paper characterizes each phase's task time Θ by a mean θ and standard
deviation σ known at job arrival (Sec. 3) and fits a Type-I Pareto
distribution to derive the cloning speedup function (Eqs. 2–3).  This
module provides that Pareto model (with the closed-form moment fit), the
deterministic model used in the no-straggler discussion after Thm. 2, and
two alternatives (lognormal, shifted-exponential) that the straggler
literature also uses, so benches can test robustness of the cloning
policy to the fitted family being wrong.

All distributions sample through an explicit ``numpy.random.Generator``
for reproducibility and vectorize via ``sample_many`` in hot paths.
"""

from __future__ import annotations

import math
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

__all__ = [
    "ExecutionTimeDistribution",
    "Deterministic",
    "ParetoType1",
    "LogNormal",
    "ShiftedExponential",
    "EmpiricalDistribution",
]


@runtime_checkable
class ExecutionTimeDistribution(Protocol):
    """Protocol for task execution-time models."""

    @property
    def mean(self) -> float:  # θ in the paper
        ...

    @property
    def std(self) -> float:  # σ in the paper
        ...

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one execution time (> 0)."""
        ...

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` execution times at once."""
        ...


class Deterministic:
    """A fixed execution time — the no-straggler regime (Thm. 2 discussion)."""

    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        if value <= 0:
            raise ValueError(f"execution time must be positive, got {value}")
        self.value = float(value)

    @property
    def mean(self) -> float:
        return self.value

    @property
    def std(self) -> float:
        return 0.0

    def sample(self, rng: np.random.Generator) -> float:
        return self.value

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.value)

    def __repr__(self) -> str:
        return f"Deterministic({self.value:g})"


class ParetoType1:
    """Type-I Pareto: Pr{Θ > x} = (x_m / x)^α for x ≥ x_m (Eq. 2).

    Mean exists for α > 1 (θ = α·x_m/(α−1)); variance for α > 2
    (σ² = α·x_m² / ((α−1)²(α−2))).
    """

    __slots__ = ("x_m", "alpha")

    def __init__(self, x_m: float, alpha: float) -> None:
        # Negated, so NaN fails too.
        if not x_m > 0:
            raise ValueError(f"x_m must be positive, got {x_m}")
        if not alpha > 1:
            raise ValueError(f"alpha must exceed 1 for a finite mean, got {alpha}")
        self.x_m = float(x_m)
        self.alpha = float(alpha)

    @property
    def mean(self) -> float:
        return self.alpha * self.x_m / (self.alpha - 1.0)

    @property
    def std(self) -> float:
        a = self.alpha
        if a <= 2:
            return math.inf
        return self.x_m * math.sqrt(a / (a - 2.0)) / (a - 1.0)

    def sample(self, rng: np.random.Generator) -> float:
        # Inverse CDF: x = x_m * U^{-1/α}
        u = rng.random()
        # rng.random() ∈ [0, 1); guard the measure-zero exact 0.
        if u == 0.0:
            u = np.nextafter(0.0, 1.0)
        return self.x_m * u ** (-1.0 / self.alpha)

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        u = rng.random(n)
        u[u == 0.0] = np.nextafter(0.0, 1.0)
        return self.x_m * u ** (-1.0 / self.alpha)

    def survival(self, x: float) -> float:
        """Pr{Θ > x} — Eq. (2)."""
        if x <= self.x_m:
            return 1.0
        return (self.x_m / x) ** self.alpha

    def min_of(self, r: int) -> "ParetoType1":
        """Distribution of the minimum of ``r`` i.i.d. copies.

        The minimum of r Type-I Paretos with tail index α is Type-I Pareto
        with tail index r·α — the fact behind the cloning speedup.
        """
        if r < 1:
            raise ValueError("need at least one copy")
        return ParetoType1(self.x_m, self.alpha * r)

    @staticmethod
    def from_moments(mean: float, std: float) -> "ParetoType1":
        """Fit (x_m, α) from a mean and standard deviation.

        With cv = σ/θ, the Pareto coefficient of variation satisfies
        cv² = 1 / (α(α−2)), giving α = 1 + sqrt(1 + 1/cv²) and
        x_m = θ(α−1)/α.  Requires σ > 0 (use :class:`Deterministic` for
        σ = 0) and yields α > 2 always, so the fitted model has finite
        variance matching the inputs.
        """
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        if std <= 0:
            raise ValueError("std must be positive; use Deterministic for std == 0")
        t = (mean / std) ** 2  # = 1/cv² = α(α−2)
        # α = 1 + sqrt(1 + t) squanders the significant bits of α − 2
        # when t is tiny (huge cv), and the fitted variance depends on
        # exactly that difference.  sqrt(1 + t) − 1 = t/(1 + sqrt(1 + t))
        # computes the excess over 2 without cancellation.
        alpha = 2.0 + t / (1.0 + math.sqrt(1.0 + t))
        x_m = mean * (alpha - 1.0) / alpha
        return ParetoType1(x_m, alpha)

    def __repr__(self) -> str:
        return f"ParetoType1(x_m={self.x_m:g}, alpha={self.alpha:g})"


class LogNormal:
    """Lognormal execution time, fitted from a mean and standard deviation."""

    __slots__ = ("mu", "sigma", "_mean", "_std")

    def __init__(self, mu: float, sigma: float) -> None:
        if sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        self.mu = float(mu)
        self.sigma = float(sigma)
        self._mean = math.exp(mu + sigma**2 / 2.0)
        self._std = self._mean * math.sqrt(math.expm1(sigma**2))

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def std(self) -> float:
        return self._std

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.lognormal(self.mu, self.sigma))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.lognormal(self.mu, self.sigma, size=n)

    @staticmethod
    def from_moments(mean: float, std: float) -> "LogNormal":
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        if std < 0:
            raise ValueError(f"std must be non-negative, got {std}")
        sigma2 = math.log1p((std / mean) ** 2)
        mu = math.log(mean) - sigma2 / 2.0
        return LogNormal(mu, math.sqrt(sigma2))

    def __repr__(self) -> str:
        return f"LogNormal(mu={self.mu:g}, sigma={self.sigma:g})"


class ShiftedExponential:
    """shift + Exp(rate): a common straggler model (constant work plus an
    exponential slowdown tail)."""

    __slots__ = ("shift", "rate")

    def __init__(self, shift: float, rate: float) -> None:
        if shift < 0:
            raise ValueError(f"shift must be non-negative, got {shift}")
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.shift = float(shift)
        self.rate = float(rate)

    @property
    def mean(self) -> float:
        return self.shift + 1.0 / self.rate

    @property
    def std(self) -> float:
        return 1.0 / self.rate

    def sample(self, rng: np.random.Generator) -> float:
        return self.shift + float(rng.exponential(1.0 / self.rate))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.shift + rng.exponential(1.0 / self.rate, size=n)

    def __repr__(self) -> str:
        return f"ShiftedExponential(shift={self.shift:g}, rate={self.rate:g})"


class EmpiricalDistribution:
    """Resample from observed task durations.

    The paper's trace simulator "set[s] the running time of each clone to
    be the same as that of a task randomly chosen from the same job phase"
    (Sec. 6.3) — this class implements exactly that sampling scheme and is
    also used to replay measured per-phase duration samples from traces.
    """

    __slots__ = ("values", "_mean", "_std")

    def __init__(self, values: Sequence[float]) -> None:
        arr = np.asarray(list(values), dtype=float)
        if arr.size == 0:
            raise ValueError("empirical distribution needs at least one value")
        if np.any(arr <= 0):
            raise ValueError("execution times must be positive")
        self.values = arr
        self._mean = float(arr.mean())
        # ddof=0: these are the population moments the scheduler is given.
        self._std = float(arr.std())

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def std(self) -> float:
        return self._std

    def sample(self, rng: np.random.Generator) -> float:
        return float(self.values[rng.integers(0, self.values.size)])

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        idx = rng.integers(0, self.values.size, size=n)
        return self.values[idx]

    def __repr__(self) -> str:
        return f"EmpiricalDistribution(n={self.values.size}, mean={self._mean:g})"
