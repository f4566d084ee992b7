"""Configuration for repro-lint.

Read from the ``[tool.repro-lint]`` table of ``pyproject.toml``::

    [tool.repro-lint]
    exclude = ["tests/devtools/fixtures/*"]          # all rules

    [tool.repro-lint.ignore]
    RL002 = ["tests/*", "benchmarks/*"]              # per-rule globs

Globs are ``fnmatch`` patterns matched against the POSIX path of each
file relative to the lint root (``*`` crosses ``/``, so ``tests/*``
covers the whole subtree).
"""

from __future__ import annotations

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: tomllib is stdlib from 3.11
    import tomli as tomllib
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path

__all__ = ["LintConfig"]


@dataclass(frozen=True)
class LintConfig:
    """Per-rule and global ignore globs plus whole-program settings.

    ``ignore`` globs apply uniformly to every rule — the per-file pack
    (RL001–RL008), the stale-suppression check (RL009) and the
    whole-program dataflow rules (RL010–RL014) alike.  ``program_root``
    names the package the import/call graph is built over;
    ``whole_program = false`` disables the dataflow passes entirely;
    ``baseline`` is the repo-relative path of the committed baseline.
    """

    exclude: tuple[str, ...] = ()
    ignore: dict[str, tuple[str, ...]] = field(default_factory=dict)
    program_root: str = "src/repro"
    whole_program: bool = True
    baseline: str = "tools/repro_lint/baseline.json"

    @staticmethod
    def empty() -> "LintConfig":
        return LintConfig()

    @staticmethod
    def load(root: Path) -> "LintConfig":
        """Config from ``<root>/pyproject.toml`` (defaults when absent)."""
        pyproject = root / "pyproject.toml"
        if not pyproject.is_file():
            return LintConfig()
        table = tomllib.loads(pyproject.read_text()).get("tool", {}).get(
            "repro-lint", {}
        )
        exclude = tuple(table.get("exclude", ()))
        ignore = {
            rule: tuple(globs) for rule, globs in table.get("ignore", {}).items()
        }
        return LintConfig(
            exclude=exclude,
            ignore=ignore,
            program_root=str(table.get("program-root", "src/repro")),
            whole_program=bool(table.get("whole-program", True)),
            baseline=str(table.get("baseline", "tools/repro_lint/baseline.json")),
        )

    # ------------------------------------------------------------------
    def is_excluded(self, relpath: str) -> bool:
        return any(fnmatch(relpath, pat) for pat in self.exclude)

    def is_ignored(self, rule_id: str, relpath: str) -> bool:
        return any(fnmatch(relpath, pat) for pat in self.ignore.get(rule_id, ()))
