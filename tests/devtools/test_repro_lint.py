"""Self-tests for the repro-lint rules.

Each rule is pinned by fixtures under ``fixtures/lint_tree`` — one file
of true positives and one of allowed idioms — so a refactor of the rule
engine cannot silently stop a rule from matching (the bad fixtures would
go green and these tests would fail).
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from tools.repro_lint import LintConfig, lint_paths

FIXTURE_ROOT = Path(__file__).parent / "fixtures" / "lint_tree"
REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def fixture_violations():
    """Lint the fixture tree once, with no config (every rule active)."""
    return lint_paths(
        [FIXTURE_ROOT / "src"], root=FIXTURE_ROOT, config=LintConfig.empty()
    )


def hits(violations, rule, filename):
    return sorted(
        v.line for v in violations if v.rule == rule and v.relpath.endswith(filename)
    )


def rules_in(violations, filename):
    return {v.rule for v in violations if v.relpath.endswith(filename)}


# ----------------------------------------------------------------------
# True positives: every rule must flag its bad fixture at the right lines
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "rule, filename, lines",
    [
        ("RL001", "cluster/bad_writes.py", [5, 6, 10, 11, 12, 13, 14]),
        ("RL002", "workload/rng_bad.py", [10, 11, 12]),
        ("RL003", "core/float_eq_bad.py", [5, 7]),
        ("RL004", "sim/clock_bad.py", [8, 9]),
        ("RL005", "core/eps_bad.py", [3, 3, 7]),
        ("RL006", "schedulers/iter_bad.py", [5, 7]),
        ("RL007", "schedulers/protocol_bad.py", [5, 6, 7, 8, 9]),
        ("RL008", "sim/drain_bad.py", [5, 9, 14]),
    ],
)
def test_rule_flags_bad_fixture(fixture_violations, rule, filename, lines):
    assert hits(fixture_violations, rule, filename) == lines


# ----------------------------------------------------------------------
# Allowed idioms: the good fixtures must stay perfectly clean
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "filename",
    [
        "cluster/server.py",  # a view reads state and calls the owner's API
        "cluster/mirror.py",  # the owner module may write server state
        "workload/rng_good.py",  # seeded/threaded Generators
        "core/float_eq_good.py",  # EPS idiom, inf sentinel, inline waiver
        "sim/clock_good.py",  # perf_counter is an elapsed counter
        "resources.py",  # the canonical EPS home
        "schedulers/iter_good.py",  # sorted(...) with explicit keys, tuples
        "schedulers/protocol_good.py",  # typed actions via view.apply
        "sim/drain_good.py",  # pop_batch/peek drain API, inline waiver
    ],
)
def test_allowed_idioms_not_flagged(fixture_violations, filename):
    assert rules_in(fixture_violations, filename) == set()


def test_no_cross_rule_noise(fixture_violations):
    """Bad fixtures trigger exactly their own rule, nothing else."""
    assert rules_in(fixture_violations, "cluster/bad_writes.py") == {"RL001"}
    assert rules_in(fixture_violations, "workload/rng_bad.py") == {"RL002"}
    assert rules_in(fixture_violations, "core/float_eq_bad.py") == {"RL003"}
    assert rules_in(fixture_violations, "sim/clock_bad.py") == {"RL004"}
    assert rules_in(fixture_violations, "core/eps_bad.py") == {"RL005"}
    assert rules_in(fixture_violations, "schedulers/iter_bad.py") == {"RL006"}
    assert rules_in(fixture_violations, "schedulers/protocol_bad.py") == {"RL007"}
    assert rules_in(fixture_violations, "sim/drain_bad.py") == {"RL008"}


# ----------------------------------------------------------------------
# Config: per-rule ignore globs and global excludes
# ----------------------------------------------------------------------
def test_per_rule_ignore_globs():
    config = LintConfig(ignore={"RL005": ("src/repro/core/*",)})
    violations = lint_paths([FIXTURE_ROOT / "src"], root=FIXTURE_ROOT, config=config)
    assert hits(violations, "RL005", "core/eps_bad.py") == []
    # Other rules in the same directory still fire.
    assert hits(violations, "RL003", "core/float_eq_bad.py") == [5, 7]


def test_global_exclude_glob():
    config = LintConfig(exclude=("src/repro/cluster/*",))
    violations = lint_paths([FIXTURE_ROOT / "src"], root=FIXTURE_ROOT, config=config)
    assert rules_in(violations, "cluster/bad_writes.py") == set()


def test_repo_config_excludes_fixtures():
    """The real pyproject config must shield this fixture tree."""
    config = LintConfig.load(REPO_ROOT)
    assert config.is_excluded("tests/devtools/fixtures/lint_tree/src/repro/core/eps_bad.py")


def test_config_falls_back_to_tomli(monkeypatch):
    """Python 3.10 has no stdlib ``tomllib``; the config then reads
    pyproject.toml through ``tomli`` and must load the same settings."""
    tomllib = pytest.importorskip("tomllib")
    monkeypatch.setitem(sys.modules, "tomllib", None)  # import raises
    monkeypatch.setitem(sys.modules, "tomli", tomllib)
    spec = importlib.util.find_spec("tools.repro_lint.config")
    fallback = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, fallback)
    spec.loader.exec_module(fallback)
    assert asdict(fallback.LintConfig.load(REPO_ROOT)) == asdict(LintConfig.load(REPO_ROOT))


# ----------------------------------------------------------------------
# CLI contract: non-zero exit + rule IDs + file:line on dirty trees,
# zero on the real repository
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


def test_cli_reports_violations_with_rule_ids_and_locations():
    proc = _run_cli(["src"], cwd=FIXTURE_ROOT)
    assert proc.returncode == 1
    assert "src/repro/cluster/bad_writes.py:5:" in proc.stdout
    for rule in ("RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL007"):
        assert rule in proc.stdout


def test_cli_clean_on_real_tree():
    proc = _run_cli(["src", "tests", "benchmarks"], cwd=REPO_ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == ""


def test_cli_unknown_path():
    proc = _run_cli(["no/such/dir"], cwd=FIXTURE_ROOT)
    assert proc.returncode == 2


#: pyproject.toml text → what the one-line error must name.
_BAD_CONFIGS = {
    # tomllib names the position of the syntax error.
    "malformed-toml": ('[tool.repro-lint]\nexclude ["a"]\n', "line 2"),
    "unknown-key": ('[tool.repro-lint]\nexlude = ["a"]\n', "'exlude'"),
    # The retired baseline and whole-program settings are unknown too.
    "stale-baseline-key": ('[tool.repro-lint]\nbaseline = "b.json"\n', "'baseline'"),
    "stale-whole-program-key": (
        "[tool.repro-lint]\nwhole-program = false\n",
        "'whole-program'",
    ),
    "unknown-rule": ('[tool.repro-lint.ignore]\nRL404 = ["a"]\n', "'RL404'"),
    # A bare string would be read as one glob per character, and its
    # lone `*` would waive RL004 on every file.
    "string-glob": ('[tool.repro-lint.ignore]\nRL004 = "*/x.py"\n', "RL004"),
    "string-exclude": ('[tool.repro-lint]\nexclude = "tests/*"\n', "exclude"),
    "ignore-not-a-table": (
        '[tool.repro-lint]\nignore = ["a"]\n',
        "[tool.repro-lint.ignore]",
    ),
    "tool-not-a-table": ("tool = 3\n", "[tool.repro-lint]"),
    "program-root-not-a-string": (
        "[tool.repro-lint]\nprogram-root = 3\n",
        "program-root",
    ),
}


@pytest.mark.parametrize("case", _BAD_CONFIGS)
def test_malformed_config_is_usage_error(tmp_path, case):
    table, named = _BAD_CONFIGS[case]
    sim = tmp_path / "src" / "repro" / "sim"
    sim.mkdir(parents=True)
    (sim / "clock.py").write_text(
        "import time\n\n\ndef stamp(event):\n    event.t = time.time()\n"
    )
    (tmp_path / "pyproject.toml").write_text(table)
    proc = _run_cli(["src"], cwd=tmp_path)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert "pyproject.toml" in line
    assert named in line
