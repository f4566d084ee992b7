"""Configuration for repro-lint.

Read from the ``[tool.repro-lint]`` table of ``pyproject.toml``::

    [tool.repro-lint]
    exclude = ["tests/devtools/fixtures/*"]          # all rules
    program-root = "src/repro"                       # whole-program graph

    [tool.repro-lint.ignore]
    RL002 = ["tests/*", "benchmarks/*"]              # per-rule globs

Globs are ``fnmatch`` patterns matched against the POSIX path of each
file relative to the lint root (``*`` crosses ``/``, so ``tests/*``
covers the whole subtree).  The table is checked strictly: malformed
TOML, a key or rule id the linter does not know, or a glob list that is
not a list of strings raises :class:`ConfigError` — a typo must not
silently lint with defaults, and a bare string must not be read as one
glob per character (a lone ``*`` waives the rule everywhere).
"""

from __future__ import annotations

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: tomllib is stdlib from 3.11
    import tomli as tomllib
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path

from tools.repro_lint.rules import RULE_CATALOG

__all__ = ["ConfigError", "LintConfig"]

_KEYS = ("exclude", "ignore", "program-root")


class ConfigError(ValueError):
    """``[tool.repro-lint]`` cannot be used as written.  The message is
    one line naming ``pyproject.toml`` and the offending key."""


def _globs(value: object, pyproject: Path, key: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(g, str) for g in value):
        raise ConfigError(
            f"{pyproject}: {key}: expected a list of glob strings, got {value!r}"
        )
    return tuple(value)


@dataclass(frozen=True)
class LintConfig:
    """Per-rule and global ignore globs plus the whole-program root.

    ``ignore`` globs apply uniformly to every rule — the per-file pack
    (RL001–RL008), the stale-suppression check (RL009) and the
    whole-program dataflow rules (RL010–RL014) alike.  ``program_root``
    names the package the import/call graph is built over.
    """

    exclude: tuple[str, ...] = ()
    ignore: dict[str, tuple[str, ...]] = field(default_factory=dict)
    program_root: str = "src/repro"

    @staticmethod
    def empty() -> "LintConfig":
        return LintConfig()

    @staticmethod
    def load(root: Path) -> "LintConfig":
        """Config from ``<root>/pyproject.toml`` (defaults when absent);
        raises :class:`ConfigError` when the table is malformed."""
        pyproject = root / "pyproject.toml"
        if not pyproject.is_file():
            return LintConfig()
        try:
            data = tomllib.loads(pyproject.read_text())
        except tomllib.TOMLDecodeError as exc:
            raise ConfigError(f"{pyproject}: invalid TOML: {exc}") from None
        tool = data.get("tool", {})
        table = tool.get("repro-lint", {}) if isinstance(tool, dict) else None
        if not isinstance(table, dict):
            raise ConfigError(f"{pyproject}: [tool.repro-lint] must be a table")
        unknown = sorted(set(table) - set(_KEYS))
        if unknown:
            raise ConfigError(
                f"{pyproject}: [tool.repro-lint]: unknown key {unknown[0]!r} "
                f"(known: {', '.join(_KEYS)})"
            )
        ignore_table = table.get("ignore", {})
        if not isinstance(ignore_table, dict):
            raise ConfigError(f"{pyproject}: [tool.repro-lint.ignore] must be a table")
        ignore = {}
        for rule, globs in ignore_table.items():
            if rule not in RULE_CATALOG:
                raise ConfigError(
                    f"{pyproject}: [tool.repro-lint.ignore]: unknown rule {rule!r}"
                )
            ignore[rule] = _globs(globs, pyproject, f"[tool.repro-lint.ignore] {rule}")
        program_root = table.get("program-root", "src/repro")
        if not isinstance(program_root, str):
            raise ConfigError(
                f"{pyproject}: [tool.repro-lint] program-root: expected a "
                f"string, got {program_root!r}"
            )
        return LintConfig(
            exclude=_globs(
                table.get("exclude", []), pyproject, "[tool.repro-lint] exclude"
            ),
            ignore=ignore,
            program_root=program_root,
        )

    # ------------------------------------------------------------------
    def is_excluded(self, relpath: str) -> bool:
        return any(fnmatch(relpath, pat) for pat in self.exclude)

    def is_ignored(self, rule_id: str, relpath: str) -> bool:
        return any(fnmatch(relpath, pat) for pat in self.ignore.get(rule_id, ()))
