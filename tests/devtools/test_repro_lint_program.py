"""Self-tests for the whole-program passes (RL009-RL014) and the
analyzer infrastructure around them.

The ``fixtures/taint_tree`` corpus pins the cross-module rules the same
way ``fixtures/lint_tree`` pins the per-file pack: bad fixtures must be
flagged at exactly the expected lines, good fixtures must stay silent.
On top of that: graph-construction determinism (same tree ⇒
byte-identical dump regardless of filesystem listing order), golden
JSON/SARIF reports and their line-free fingerprints, the CLI exit-code
contract, ``--unused-ignores``, and end-to-end "seeded corruption"
checks that plant a laundered wall-clock read, or module state shared
between runs, in a copy of the real ``src/repro`` and expect the gate
to fail.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from tools.repro_lint import LintConfig, build_program_graph, lint_paths
from tools.repro_lint.engine import Violation, fingerprint_violations

FIXTURE_ROOT = Path(__file__).parent / "fixtures" / "taint_tree"
GOLDEN_ROOT = Path(__file__).parent / "fixtures" / "golden"
REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def fixture_violations():
    """Lint the taint tree once.  Its own pyproject mutes the per-file
    rules, so only the whole-program findings remain."""
    return lint_paths(
        [FIXTURE_ROOT / "src"],
        root=FIXTURE_ROOT,
        config=LintConfig.load(FIXTURE_ROOT),
    )


def hits(violations, rule, filename):
    return sorted(
        v.line for v in violations if v.rule == rule and v.relpath.endswith(filename)
    )


def rules_in(violations, filename):
    return {v.rule for v in violations if v.relpath.endswith(filename)}


# ----------------------------------------------------------------------
# True positives: every whole-program rule flags its bad fixture
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "rule, filename, lines",
    [
        # wall-clock laundered through two helper hops into schedule()
        ("RL010", "schedulers/clock_bad.py", [9]),
        # wall-clock (via a package re-export) pushed onto the event queue
        ("RL010", "sim/enqueue_bad.py", [8]),
        # unseeded RNG laundered into an on_* hook
        ("RL011", "schedulers/rng_bad.py", [9]),
        # RNG-tainted local flowing into view.apply
        ("RL011", "sim/enqueue_bad.py", [13]),
        # wall-clock in step(), RNG in ingest(): the session drivers
        # (DESIGN.md §5.8) are sinks like apply()
        ("RL010", "sim/session_bad.py", [9]),
        ("RL011", "sim/session_bad.py", [13]),
        # set-ordered return iterated + id()-derived value in schedule()
        ("RL012", "schedulers/order_bad.py", [10, 11]),
        # alias write, alias mutator call, escape into a mutating helper,
        # mutator on an item of an aliased resident map
        ("RL013", "cluster/escape_bad.py", [6, 7, 19, 24]),
        # module mutable (mutated + unmutated), class container,
        # type(self).attr and ClassName.attr writes from methods
        ("RL014", "state/shared_bad.py", [3, 5, 13, 16, 19]),
        # itertools iterators at module level (plain, aliased module,
        # imported name) and at class level
        ("RL014", "state/iterators_bad.py", [7, 9, 11, 15]),
    ],
)
def test_rule_flags_bad_fixture(fixture_violations, rule, filename, lines):
    assert hits(fixture_violations, rule, filename) == lines


def test_no_cross_rule_noise(fixture_violations):
    assert rules_in(fixture_violations, "schedulers/clock_bad.py") == {"RL010"}
    assert rules_in(fixture_violations, "schedulers/rng_bad.py") == {"RL011"}
    assert rules_in(fixture_violations, "schedulers/order_bad.py") == {"RL012"}
    assert rules_in(fixture_violations, "sim/enqueue_bad.py") == {"RL010", "RL011"}
    assert rules_in(fixture_violations, "sim/session_bad.py") == {"RL010", "RL011"}
    assert rules_in(fixture_violations, "cluster/escape_bad.py") == {"RL013"}
    assert rules_in(fixture_violations, "state/shared_bad.py") == {"RL014"}
    assert rules_in(fixture_violations, "state/iterators_bad.py") == {"RL014"}


# ----------------------------------------------------------------------
# Allowed idioms: the good fixtures (and the helpers) stay silent
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "filename",
    [
        "schedulers/clean.py",  # threaded now/rng, sorted with stable key
        "sim/enqueue_good.py",  # push/apply fed from threaded sim state
        "sim/session_good.py",  # step/ingest fed from threaded sim state
        "cluster/escape_good.py",  # read-only alias + owner API call
        "cluster/server.py",  # a view: reads plus owner API calls
        "cluster/mirror.py",  # owner module writes are sanctioned
        "state/shared_good.py",  # frozen module state, per-instance bins and counters
        "util/clock.py",  # sources themselves are per-file territory
        "util/entropy.py",
        "util/ids.py",
    ],
)
def test_allowed_idioms_not_flagged(fixture_violations, filename):
    assert rules_in(fixture_violations, filename) == set()


def test_messages_never_embed_line_numbers(fixture_violations):
    """Report fingerprints hash (rule, path, message); a line number in
    the message would change a finding's fingerprint on unrelated edits."""
    for v in fixture_violations:
        assert f":{v.line}" not in v.message
        assert f"line {v.line}" not in v.message


# ----------------------------------------------------------------------
# Graph construction: determinism and cross-module resolution
# ----------------------------------------------------------------------
def test_graph_dump_independent_of_listing_order():
    pkg = FIXTURE_ROOT / "src" / "repro"
    files = sorted(p for p in pkg.rglob("*.py") if p.is_file())
    assert len(files) > 10
    orders = [
        files,
        list(reversed(files)),
        files[1::2] + files[0::2],
        files[len(files) // 2 :] + files[: len(files) // 2],
    ]
    dumps = {
        build_program_graph(FIXTURE_ROOT, files=order).dump() for order in orders
    }
    assert len(dumps) == 1


def test_graph_resolves_reexports_and_methods():
    graph = build_program_graph(FIXTURE_ROOT)
    # `from repro.util import stamp` resolves through the __init__.
    assert graph.resolve_object("repro.util.stamp") == "repro.util.clock.stamp"
    # Methods resolve through the class table.
    assert (
        graph.resolve_object("repro.sim.engine.SimulationEngine.apply")
        == "repro.sim.engine.SimulationEngine.apply"
    )
    # Subclasses link to the program MRO.
    mro = graph.mro("repro.schedulers.clock_bad.ClockScheduler")
    assert "repro.schedulers.base.Scheduler" in mro


def test_graph_records_syntax_errors(tmp_path):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "broken.py").write_text("def oops(:\n")
    graph = build_program_graph(tmp_path)
    assert [e[0] for e in graph.syntax_errors] == ["src/repro/broken.py"]


# ----------------------------------------------------------------------
# Config: per-rule globs apply uniformly to whole-program rules
# ----------------------------------------------------------------------
def test_per_rule_ignore_globs_cover_whole_program_rules():
    base = LintConfig.load(FIXTURE_ROOT)
    config = LintConfig(
        exclude=base.exclude,
        ignore={**base.ignore, "RL014": ("src/repro/state/*",)},
    )
    violations = lint_paths([FIXTURE_ROOT / "src"], root=FIXTURE_ROOT, config=config)
    assert hits(violations, "RL014", "state/shared_bad.py") == []
    # Other whole-program rules are untouched.
    assert hits(violations, "RL013", "cluster/escape_bad.py") == [6, 7, 19, 24]


def test_findings_filtered_to_lint_targets(fixture_violations):
    """The graph is whole-program, but reports honor the target paths."""
    violations = lint_paths(
        [FIXTURE_ROOT / "src" / "repro" / "state"],
        root=FIXTURE_ROOT,
        config=LintConfig.load(FIXTURE_ROOT),
    )
    assert {v.relpath for v in violations} == {
        "src/repro/state/iterators_bad.py",
        "src/repro/state/shared_bad.py",
    }
    # ... and nothing was lost relative to the full run.
    assert hits(violations, "RL014", "state/shared_bad.py") == hits(
        fixture_violations, "RL014", "state/shared_bad.py"
    )


# ----------------------------------------------------------------------
# Report fingerprints
# ----------------------------------------------------------------------
def _violation(rule="RL014", path="src/repro/x.py", line=3, col=0, message="m"):
    return Violation(rule, path, line, col, message)


def test_fingerprints_disambiguate_identical_findings():
    a = _violation(line=3)
    b = _violation(line=9)  # same (rule, path, message), different line
    c = _violation(message="other")
    fps = fingerprint_violations([a, b, c])
    assert fps[0] != fps[1] != fps[2]
    assert fps[1] == f"{fps[0]}#2"
    # Line numbers do not enter the hash: shifting code keeps the fingerprint.
    assert fingerprint_violations([_violation(line=77)])[0] == fps[0]


# ----------------------------------------------------------------------
# CLI: golden reports, exit codes, git mode, unused-ignores
# ----------------------------------------------------------------------
def _run_cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "tools.repro_lint", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


@pytest.mark.parametrize("fmt", ["json", "sarif"])
def test_cli_golden_report(fmt):
    proc = _run_cli(["--format", fmt, "src"], cwd=FIXTURE_ROOT)
    assert proc.returncode == 1
    golden = (GOLDEN_ROOT / f"taint_tree.{fmt}").read_text()
    assert proc.stdout == golden


def test_golden_sarif_shape():
    sarif = json.loads((GOLDEN_ROOT / "taint_tree.sarif").read_text())
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert {f"RL{n:03d}" for n in range(15)} <= rule_ids
    assert len(run["results"]) == 21
    for result in run["results"]:
        assert result["partialFingerprints"]["reproLint/v1"]
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uriBaseId"] == "SRCROOT"
        assert loc["region"]["startColumn"] >= 1


def test_cli_output_flag_writes_report_and_echoes_text(tmp_path):
    out = tmp_path / "report" / "lint.sarif"
    proc = _run_cli(
        ["--format", "sarif", "--output", str(out), "src"], cwd=FIXTURE_ROOT
    )
    assert proc.returncode == 1
    assert json.loads(out.read_text())["version"] == "2.1.0"
    assert "RL010" in proc.stdout  # findings still readable on stdout


def test_cli_internal_error_exits_3(monkeypatch, capsys):
    from tools.repro_lint import engine

    def boom(args):
        raise RuntimeError("synthetic linter crash")

    monkeypatch.setattr(engine, "_run", boom)
    assert engine.main(["src"]) == 3
    assert "internal error" in capsys.readouterr().err


def test_cli_list_rules():
    proc = _run_cli(["--list-rules"], cwd=FIXTURE_ROOT)
    assert proc.returncode == 0
    for n in range(15):
        assert f"RL{n:03d}" in proc.stdout


def test_cli_unused_ignores(tmp_path):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cfg.py").write_text(
        "MENU = [1, 2, 3]  # repro-lint: ignore[RL014]\n"
        "STALE = 7  # repro-lint: ignore[RL004]\n"
    )
    # The RL014 waiver is *used* (inline suppressions cover the
    # whole-program rules too); the RL004 one is stale.
    proc = _run_cli(["--unused-ignores", "src"], cwd=tmp_path)
    assert proc.returncode == 1
    assert "RL009" in proc.stdout
    assert "cfg.py:2:" in proc.stdout
    assert "RL014" not in proc.stdout
    # Without the flag the stale waiver is tolerated.
    assert _run_cli(["src"], cwd=tmp_path).returncode == 0


# ----------------------------------------------------------------------
# End-to-end: a seeded corruption of the real tree must fail the gate
# ----------------------------------------------------------------------
def _copy_real_tree(tmp_path):
    shutil.copytree(REPO_ROOT / "src", tmp_path / "src")
    shutil.copy(REPO_ROOT / "pyproject.toml", tmp_path / "pyproject.toml")


def test_gate_catches_laundered_wall_clock_in_real_tree(tmp_path):
    _copy_real_tree(tmp_path)
    before = _run_cli(["src"], cwd=tmp_path)
    assert before.returncode == 0, before.stdout + before.stderr

    (tmp_path / "src" / "repro" / "workload" / "_clockutil.py").write_text(
        textwrap.dedent(
            '''
            """Deliberately corrupt fixture: laundered wall-clock."""

            import time


            def fresh_now():
                return time.time()
            '''
        ).lstrip()
    )
    (tmp_path / "src" / "repro" / "schedulers" / "_wallclock_bad.py").write_text(
        textwrap.dedent(
            '''
            """Deliberately corrupt fixture: clock-driven scheduler."""

            from repro.schedulers.base import Scheduler
            from repro.workload._clockutil import fresh_now


            class WallClockScheduler(Scheduler):
                def schedule(self, cluster, clock, pending_jobs):
                    return [] if fresh_now() > 0 else None
            '''
        ).lstrip()
    )
    after = _run_cli(["src"], cwd=tmp_path)
    assert after.returncode == 1, after.stdout + after.stderr
    assert "RL010" in after.stdout
    assert "_wallclock_bad.py" in after.stdout


def test_gate_fails_rl014_in_every_package(tmp_path):
    """Module state that a function mutates outlives one engine, and the
    identity matrix and this suite run many engines per process: RL014
    fails the gate wherever in ``src/repro`` it appears."""
    _copy_real_tree(tmp_path)
    planted = [
        f"src/repro/{pkg}/_shared_bad.py" for pkg in ("sim", "cluster", "workload")
    ]
    for relpath in planted:
        (tmp_path / relpath).write_text(
            textwrap.dedent(
                '''
                """Deliberately corrupt fixture: state shared between runs."""

                _SEEN = {}


                def remember(key, value):
                    _SEEN[key] = value
                '''
            ).lstrip()
        )
    proc = _run_cli(["src"], cwd=tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    flagged = {
        line.split(":", 1)[0] for line in proc.stdout.splitlines() if " RL014 " in line
    }
    assert flagged == set(planted)
