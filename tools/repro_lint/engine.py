"""Orchestration, suppression handling, output and CLI for repro-lint.

The pipeline per run:

1. **Per-file rules** (RL001–RL008) over every ``.py`` file under the
   targets, exactly as before.
2. **Whole-program passes** (RL010–RL014) over the package at
   ``[tool.repro-lint] program-root`` (default ``src/repro``): a module
   import graph + call graph is built once and the dataflow rules run on
   top of it.  Findings outside the lint targets are dropped, so
   ``python -m tools.repro_lint tests`` never reports ``src`` lines.
3. **Suppressions**: inline ``# repro-lint: ignore[RLxxx]`` comments and
   ``[tool.repro-lint]`` per-rule globs apply *uniformly* to per-file and
   whole-program rules.  With ``--unused-ignores``, suppression comments
   that never matched a finding are reported as RL009 — stale waivers
   hide future regressions.

Every finding that survives the suppressions fails the run.  Exit codes
are distinct and stable::

    0  clean
    1  findings
    2  usage error (unknown path, bad flags, bad ``[tool.repro-lint]``)
    3  internal error (the linter itself crashed)
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import re
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

from tools.repro_lint.config import ConfigError, LintConfig
from tools.repro_lint.dataflow import run_whole_program
from tools.repro_lint.graph import build_program_graph
from tools.repro_lint.rules import ALL_RULES, RULE_CATALOG, FileContext, build_import_map

__all__ = ["Violation", "fingerprint_violations", "lint_file", "lint_paths", "main"]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

#: `# repro-lint: ignore` waives every rule on the line;
#: `# repro-lint: ignore[RL003,RL005]` waives the listed rules only.
_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*ignore(?:\[([A-Z0-9,\s]+)\])?")


@dataclass(frozen=True)
class Violation:
    rule: str
    relpath: str
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"{self.relpath}:{self.line}:{self.col}: {self.rule} {self.message}"


def fingerprint_violations(violations: Sequence[Violation]) -> list[str]:
    """One report fingerprint per violation, positionally aligned.

    A fingerprint is ``sha256(rule | path | message)`` truncated to 16
    hex chars.  Line numbers are left out (and messages never embed
    them), so a finding keeps its fingerprint when unrelated edits shift
    the code.  Duplicate (rule, path, message) triples get ``#2``,
    ``#3``… suffixes in (line, col) order."""
    counts: dict[str, int] = {}
    out: list[str] = []
    for v in violations:
        base = hashlib.sha256(
            "\0".join((v.rule, v.relpath, v.message)).encode("utf-8")
        ).hexdigest()[:16]
        n = counts.get(base, 0) + 1
        counts[base] = n
        out.append(base if n == 1 else f"{base}#{n}")
    return out


def _suppressed_rules(source_line: str) -> frozenset[str] | None:
    """Rules waived on this line; empty frozenset means *all* rules;
    ``None`` means no suppression comment."""
    m = _SUPPRESS_RE.search(source_line)
    if m is None:
        return None
    if m.group(1) is None:
        return frozenset()
    return frozenset(r.strip() for r in m.group(1).split(",") if r.strip())


class _Suppressions:
    """Suppression comments of one file, with per-comment usage marks."""

    def __init__(self, relpath: str, lines: list[str]) -> None:
        self.relpath = relpath
        self.lines = lines
        self.by_line: dict[int, frozenset[str]] = {}
        self.used: set[int] = set()
        for lineno, text in enumerate(lines, start=1):
            waived = _suppressed_rules(text)
            if waived is not None:
                self.by_line[lineno] = waived

    def waives(self, rule: str, lineno: int) -> bool:
        waived = self.by_line.get(lineno)
        if waived is None:
            return False
        if not waived or rule in waived:
            self.used.add(lineno)
            return True
        return False

    def unused(self) -> Iterable[tuple[int, int, frozenset[str]]]:
        for lineno in sorted(set(self.by_line) - self.used):
            text = self.lines[lineno - 1]
            m = _SUPPRESS_RE.search(text)
            col = m.start() if m else 0
            yield lineno, col, self.by_line[lineno]


def _check_file(
    path: Path, root: Path, config: LintConfig
) -> tuple[list[Violation], Optional[_Suppressions]]:
    """Per-file rules for one file: (surviving violations, suppressions).

    Suppressions is None when the file is excluded (never linted)."""
    relpath = path.resolve().relative_to(root.resolve()).as_posix()
    if config.is_excluded(relpath):
        return [], None
    source = path.read_text()
    lines = source.splitlines()
    supp = _Suppressions(relpath, lines)
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return (
            [
                Violation(
                    "RL000", relpath, exc.lineno or 1, exc.offset or 0,
                    f"syntax error: {exc.msg}",
                )
            ],
            supp,
        )
    ctx = FileContext(relpath=relpath, imports=build_import_map(tree))
    out: list[Violation] = []
    for rule in ALL_RULES:
        if not rule.applies_to(relpath) or config.is_ignored(rule.rule_id, relpath):
            continue
        for finding in rule.check(tree, ctx):
            if finding.line <= len(lines) and supp.waives(rule.rule_id, finding.line):
                continue
            out.append(
                Violation(rule.rule_id, relpath, finding.line, finding.col, finding.message)
            )
    return out, supp


def lint_file(
    path: Path, root: Path, config: LintConfig | None = None
) -> list[Violation]:
    """Per-file rules for one file (no whole-program passes)."""
    config = config if config is not None else LintConfig.empty()
    violations, _ = _check_file(Path(path), Path(root), config)
    violations.sort(key=lambda v: (v.relpath, v.line, v.col, v.rule))
    return violations


def _iter_python_files(target: Path) -> Iterable[Path]:
    if target.is_file():
        if target.suffix == ".py":
            yield target
        return
    yield from sorted(p for p in target.rglob("*.py") if p.is_file())


def _under_targets(relpath: str, target_rels: Sequence[str]) -> bool:
    return any(
        relpath == t or relpath.startswith(t.rstrip("/") + "/") for t in target_rels
    )


def lint_paths(
    targets: Sequence[Path | str],
    root: Path | str | None = None,
    config: LintConfig | None = None,
    *,
    unused_ignores: bool = False,
) -> list[Violation]:
    """Lint every ``.py`` file under the targets.

    ``root`` anchors relative paths for rule scoping and config globs
    (default: the current working directory).  ``config`` defaults to
    the ``[tool.repro-lint]`` table of ``<root>/pyproject.toml``
    (:class:`ConfigError` when that table is malformed).  The
    whole-program passes run over ``config.program_root`` when it
    exists; their findings are filtered to files under the targets.
    With ``unused_ignores``, stale inline waivers are reported as RL009.
    """
    root = Path(root).resolve() if root is not None else Path.cwd()
    if config is None:
        config = LintConfig.load(root)
    violations: list[Violation] = []
    suppressions: dict[str, _Suppressions] = {}
    target_rels: list[str] = []
    seen_files: set[Path] = set()
    for target in targets:
        tpath = Path(target)
        if not tpath.is_absolute():
            tpath = root / tpath
        tpath = tpath.resolve()
        try:
            target_rels.append(tpath.relative_to(root).as_posix())
        except ValueError:
            target_rels.append(tpath.as_posix())
        for path in _iter_python_files(tpath):
            if path in seen_files:
                continue
            seen_files.add(path)
            file_violations, supp = _check_file(path, root, config)
            violations.extend(file_violations)
            if supp is not None:
                suppressions[supp.relpath] = supp

    graph = build_program_graph(root, config.program_root)
    if graph is not None:
        for relpath, line, msg in graph.syntax_errors:
            if _under_targets(relpath, target_rels) and not config.is_excluded(
                relpath
            ):
                violations.append(
                    Violation("RL000", relpath, line, 0, f"syntax error: {msg}")
                )
        for finding in run_whole_program(graph):
            if config.is_excluded(finding.relpath):
                continue
            if config.is_ignored(finding.rule, finding.relpath):
                continue
            supp = suppressions.get(finding.relpath)
            if supp is None and (root / finding.relpath).is_file():
                # File not among the targets: still honor its inline
                # waivers, but never report its unused ones.
                supp = _Suppressions(
                    finding.relpath,
                    (root / finding.relpath).read_text().splitlines(),
                )
            if supp is not None and supp.waives(finding.rule, finding.line):
                # Mark usage on the *linted* copy too so RL009 agrees.
                linted = suppressions.get(finding.relpath)
                if linted is not None:
                    linted.waives(finding.rule, finding.line)
                continue
            if not _under_targets(finding.relpath, target_rels):
                continue
            violations.append(
                Violation(
                    finding.rule,
                    finding.relpath,
                    finding.line,
                    finding.col,
                    finding.message,
                )
            )

    if unused_ignores:
        for relpath in sorted(suppressions):
            if config.is_ignored("RL009", relpath):
                continue
            for lineno, col, waived in suppressions[relpath].unused():
                listed = f"[{','.join(sorted(waived))}]" if waived else ""
                violations.append(
                    Violation(
                        "RL009",
                        relpath,
                        lineno,
                        col,
                        f"stale suppression `# repro-lint: ignore{listed}` — "
                        "no rule fires on this line; delete the comment so "
                        "real regressions cannot hide behind it",
                    )
                )

    violations.sort(key=lambda v: (v.relpath, v.line, v.col, v.rule))
    return violations


# ----------------------------------------------------------------------
# Output formats
# ----------------------------------------------------------------------


def _render_text(violations: list[Violation]) -> str:
    return "".join(f"{v}\n" for v in violations)


def _render_json(violations: list[Violation]) -> str:
    payload = {
        "format": "repro-lint/v2",
        "violations": [
            {
                "rule": v.rule,
                "path": v.relpath,
                "line": v.line,
                "col": v.col,
                "message": v.message,
                "fingerprint": fp,
            }
            for v, fp in zip(violations, fingerprint_violations(violations))
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _render_sarif(violations: list[Violation]) -> str:
    """SARIF 2.1.0, one error-level result per finding."""
    results = [
        {
            "ruleId": v.rule,
            "level": "error",
            "message": {"text": v.message},
            "partialFingerprints": {"reproLint/v1": fp},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": v.relpath,
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {
                            "startLine": v.line,
                            "startColumn": max(1, v.col + 1),
                        },
                    }
                }
            ],
        }
        for v, fp in zip(violations, fingerprint_violations(violations))
    ]
    payload = {
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": "https://example.invalid/repro-lint",
                        "rules": [
                            {
                                "id": rule_id,
                                "shortDescription": {"text": summary},
                            }
                            for rule_id, summary in sorted(RULE_CATALOG.items())
                        ],
                    }
                },
                "columnKind": "utf16CodeUnits",
                "results": results,
            }
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Repo-specific static analysis for scheduler determinism.",
    )
    parser.add_argument(
        "targets",
        nargs="*",
        default=["src", "tests", "benchmarks"],
        help="files or directories to lint (default: src tests benchmarks)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format written to stdout or --output (default: text)",
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        help="write the report here instead of stdout; findings are still "
        "echoed as text to stdout so the gate output stays readable",
    )
    parser.add_argument(
        "--unused-ignores",
        action="store_true",
        help="flag stale `# repro-lint: ignore[...]` comments as RL009",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    return parser


def _run(args: argparse.Namespace) -> int:
    root = Path.cwd()
    missing = [t for t in args.targets if not (root / t).exists() and not Path(t).exists()]
    if missing:
        print(f"repro-lint: no such path: {', '.join(missing)}", file=sys.stderr)
        return EXIT_USAGE

    try:
        config = LintConfig.load(root)
    except ConfigError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return EXIT_USAGE
    violations = lint_paths(
        args.targets, root=root, config=config, unused_ignores=args.unused_ignores
    )

    if args.format == "json":
        report = _render_json(violations)
    elif args.format == "sarif":
        report = _render_sarif(violations)
    else:
        report = _render_text(violations)

    if args.output:
        out_path = Path(args.output)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(report)
        sys.stdout.write(_render_text(violations))
    else:
        sys.stdout.write(report)

    if not violations:
        return EXIT_CLEAN
    print(
        f"repro-lint: {len(violations)} violation(s) in "
        f"{len({v.relpath for v in violations})} file(s)",
        file=sys.stderr,
    )
    return EXIT_FINDINGS


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; map through.
        return int(exc.code or 0)
    if args.list_rules:
        for rule_id, summary in sorted(RULE_CATALOG.items()):
            print(f"{rule_id}  {summary}")
        return EXIT_CLEAN
    try:
        return _run(args)
    except Exception:  # noqa: BLE001 — the CLI must never die silently
        print("repro-lint: internal error (this is a linter bug):", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL
