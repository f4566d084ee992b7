"""repro-lint: repo-specific static analysis for scheduler correctness.

The simulator's guarantees (placements bit-identical to the reference
loops, reproducible straggler draws, exact capacity conservation) rest on
coding invariants that ordinary linters cannot see.  ``repro-lint``
checks them mechanically, in two layers.

**Per-file rules** — one AST at a time:

========  ==============================================================
RL001     per-server state (the mirror's arrays and resident map) is
          written only by its owner, ``cluster/mirror.py``
RL002     no unseeded or legacy global randomness — RNGs are threaded
          as explicit ``numpy.random.Generator`` objects
RL003     no ``==``/``!=`` on resource/time floats in decision code —
          use the ``EPS`` tolerance idiom
RL004     no wall-clock reads inside simulation logic
RL005     no literal ``1e-9`` epsilon redefinitions — import the single
          canonical ``repro.resources.EPS``
RL006     no iteration over unordered collections in scheduling
          decision loops without an explicit sort
RL007     scheduler/core policy code never touches ``view._engine`` or
          writes engine/cluster state — all mutation flows through the
          typed action protocol (``view.apply``)
RL008     event-queue access only through the engine's drain API
========  ==============================================================

**Whole-program rules** — a module import graph and call graph are built
over ``src/repro`` and dataflow passes run on top
(:mod:`tools.repro_lint.graph` / :mod:`tools.repro_lint.dataflow`):

========  ==============================================================
RL009     stale ``# repro-lint: ignore[...]`` suppressions
          (``--unused-ignores``)
RL010     wall-clock values laundered through helpers into decision
          sinks (``schedule``/``on_*`` hooks, ``apply``, event pushes)
RL011     unseeded-RNG values laundered through helpers into decision
          sinks
RL012     iteration-order-dependent values (``id``/``hash``/set order)
          reaching decision sinks
RL013     per-server state mutated through aliases or param-mutating
          helpers outside the owner module (escape analysis)
RL014     mutable state shared between runs in one process:
          module-level mutable containers, class-level containers,
          class-attribute writes from methods
========  ==============================================================

Run it from the repository root::

    python -m tools.repro_lint src tests benchmarks
    python -m tools.repro_lint --format sarif --output lint.sarif src
    python -m tools.repro_lint --list-rules

Findings print as ``path:line:col: RLxxx message``.  Exit codes: 0 clean,
1 findings, 2 usage error, 3 internal linter error.  Every finding fails
the run unless it is waived: per-rule ignore globs live in
``[tool.repro-lint]`` in ``pyproject.toml``; a single line can be
exempted with ``# repro-lint: ignore[RL003]`` (or a bare
``# repro-lint: ignore`` for all rules).
"""

from tools.repro_lint.config import ConfigError, LintConfig
from tools.repro_lint.dataflow import run_whole_program
from tools.repro_lint.engine import Violation, lint_file, lint_paths, main
from tools.repro_lint.graph import ProgramGraph, build_program_graph
from tools.repro_lint.rules import ALL_RULES, RULE_CATALOG

__all__ = [
    "ALL_RULES",
    "ConfigError",
    "LintConfig",
    "ProgramGraph",
    "RULE_CATALOG",
    "Violation",
    "build_program_graph",
    "lint_file",
    "lint_paths",
    "main",
    "run_whole_program",
]
