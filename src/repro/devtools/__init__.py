"""Developer tooling that ships with the library (opt-in at runtime).

* :mod:`repro.devtools.sanitizer` — the simulation sanitizer: after
  every event it re-derives the scheduler's correctness invariants from
  first principles and fails loudly on the first divergence.
* :mod:`repro.devtools.identity` — the identity gate: a table of
  workloads × fault profiles × drivers (one-shot, streamed,
  checkpoint-cut, replayed) in which every driver must reproduce the
  one-shot run byte-for-byte (``python -m repro.devtools.identity``).

The static half of the tooling lives outside the package in
``tools/repro_lint`` so that importing ``repro`` never pulls it in.
"""

from repro.devtools.sanitizer import (
    InvariantKind,
    SanitizerError,
    SanitizerViolation,
    SimulationSanitizer,
)

__all__ = [
    "InvariantKind",
    "SanitizerError",
    "SanitizerViolation",
    "SimulationSanitizer",
]
