"""Fault profiles: the tunables of the deterministic failure model.

A :class:`FaultProfile` parameterizes three independent seeded failure
processes (DESIGN.md §5.5):

* **server churn** — each server alternates up/down through an
  alternating-renewal process with exponential time-to-failure (mean
  ``mtbf``) and exponential repair time (mean ``mttr``).  A crash kills
  every resident copy; recovery returns the full capacity.
* **per-copy failure** — every launched copy draws an exponential
  time-to-failure (rate ``copy_fail_rate``); if it fires before the
  copy's sampled finish time, the copy dies (its server stays up).
* **transient slowdown** — each server opens background-load windows at
  rate ``slowdown_rate``; within a window, newly launched copies sample
  durations against ``slowdown_factor ×`` the server's nominal slowdown
  for an exponential window length (mean ``slowdown_duration``).

Profiles are frozen and serialize to/from the plain-scalar dict stored
in a recorded trace's ``meta["faults"]``, so a failure run replays from
its trace alone.  The named presets (``churn``, ``flaky``, ``brownout``,
``chaos``) are what ``--fault-profile`` resolves on the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Mapping

__all__ = ["FaultProfile", "FAULT_PROFILES", "named_profile"]


@dataclass(frozen=True)
class FaultProfile:
    """Parameters of the seeded failure processes (all simulated seconds).

    The default instance injects nothing (``enabled`` is False): churn
    is off at ``mtbf=inf`` and both rates are zero.
    """

    #: Mean time between failures per server; ``inf`` disables churn.
    mtbf: float = math.inf
    #: Mean time to repair (down-time) per server crash.
    mttr: float = 60.0
    #: Per-copy failure hazard (1/s, finite); 0 disables copy failures.
    copy_fail_rate: float = 0.0
    #: Per-server slowdown-window arrival rate (1/s, finite); 0 disables.
    slowdown_rate: float = 0.0
    #: Multiplier (finite) applied to the server's slowdown inside a window.
    slowdown_factor: float = 2.0
    #: Mean length of one slowdown window.
    slowdown_duration: float = 30.0
    #: Refuse to crash the last healthy server (keeps every workload
    #: schedulable; the skipped failure still consumes its RNG draws so
    #: the process stays deterministic).
    keep_one_up: bool = True

    def __post_init__(self) -> None:
        # Each check holds for a number in range and fails for NaN, which
        # compares false with everything.  The rates and the factor must
        # also be finite: an infinite rate draws intervals of zero, so a
        # copy would fail, or a window open, at the instant it began and
        # simulated time would never advance.  ``mtbf = inf`` is the
        # switch that turns churn off.
        inf = math.inf
        for name, ok, rule in (
            ("mtbf", self.mtbf > 0, "positive"),
            ("mttr", self.mttr > 0, "positive"),
            ("copy_fail_rate", 0 <= self.copy_fail_rate < inf, "finite and non-negative"),
            ("slowdown_rate", 0 <= self.slowdown_rate < inf, "finite and non-negative"),
            ("slowdown_factor", 1.0 < self.slowdown_factor < inf, "finite and greater than 1"),
            ("slowdown_duration", self.slowdown_duration > 0, "positive"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)}")

    # ------------------------------------------------------------------
    @property
    def server_churn(self) -> bool:
        return math.isfinite(self.mtbf)

    @property
    def enabled(self) -> bool:
        """Whether this profile injects anything at all."""
        return self.server_churn or self.copy_fail_rate > 0 or self.slowdown_rate > 0

    # ------------------------------------------------------------------
    # Trace round-trip (meta["faults"]["profile"])
    # ------------------------------------------------------------------
    def to_meta(self) -> dict:
        """Plain-scalar dict for a trace header (``inf`` → ``None`` so
        the JSONL stays strict-JSON parseable)."""
        return {
            "mtbf": None if math.isinf(self.mtbf) else self.mtbf,
            "mttr": self.mttr,
            "copy_fail_rate": self.copy_fail_rate,
            "slowdown_rate": self.slowdown_rate,
            "slowdown_factor": self.slowdown_factor,
            "slowdown_duration": self.slowdown_duration,
            "keep_one_up": self.keep_one_up,
        }

    @staticmethod
    def from_meta(data: dict) -> "FaultProfile":
        mtbf = data.get("mtbf")
        return FaultProfile(
            mtbf=math.inf if mtbf is None else float(mtbf),
            mttr=float(data.get("mttr", 60.0)),
            copy_fail_rate=float(data.get("copy_fail_rate", 0.0)),
            slowdown_rate=float(data.get("slowdown_rate", 0.0)),
            slowdown_factor=float(data.get("slowdown_factor", 2.0)),
            slowdown_duration=float(data.get("slowdown_duration", 30.0)),
            keep_one_up=bool(data.get("keep_one_up", True)),
        )


#: Named presets for the CLI's ``--fault-profile`` and the test battery.
#: Frozen: shared module state must stay immutable (repro-lint RL014).
FAULT_PROFILES: Mapping[str, FaultProfile] = MappingProxyType({
    "none": FaultProfile(),
    # Server crash/recover churn only: one crash every ~10 simulated
    # minutes per server, ~45 s repairs.
    "churn": FaultProfile(mtbf=600.0, mttr=45.0),
    # Copy failures only: a copy running ~10 minutes has ~63% chance of
    # dying before finishing.
    "flaky": FaultProfile(copy_fail_rate=1.0 / 600.0),
    # Transient background-load windows only.
    "brownout": FaultProfile(
        slowdown_rate=1.0 / 900.0, slowdown_factor=3.0, slowdown_duration=60.0
    ),
    # Everything at once, for adversarial smoke runs.
    "chaos": FaultProfile(
        mtbf=400.0,
        mttr=30.0,
        copy_fail_rate=1.0 / 900.0,
        slowdown_rate=1.0 / 600.0,
        slowdown_factor=2.5,
        slowdown_duration=45.0,
    ),
})


def named_profile(
    name: str,
    *,
    mtbf: float | None = None,
    mttr: float | None = None,
    copy_fail_rate: float | None = None,
) -> FaultProfile:
    """Resolve a preset by name, with optional per-field overrides
    (the CLI's ``--mtbf``/``--mttr``/``--copy-fail-rate`` flags)."""
    try:
        profile = FAULT_PROFILES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown fault profile {name!r}; choose from "
            f"{', '.join(sorted(FAULT_PROFILES))}"
        ) from None
    overrides = {
        k: v
        for k, v in (
            ("mtbf", mtbf),
            ("mttr", mttr),
            ("copy_fail_rate", copy_fail_rate),
        )
        if v is not None
    }
    return replace(profile, **overrides) if overrides else profile
