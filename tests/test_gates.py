"""The CI gate wiring: every gate named resolves to something that exists.

``tools/check.sh`` names the gates ``make check`` runs, CI calls make
targets, the Makefile runs Python modules with flags, and the
benchmark's traced run wraps program functions by name.  A recipe left
pointing at a deleted module or passing a deleted flag, a gate list
naming a deleted target, or a traced layer naming a renamed method fails
here in the test suite instead of in the gate itself.
"""

from __future__ import annotations

import importlib.util
import inspect
import re
import shlex
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MAKEFILE = (ROOT / "Makefile").read_text()


def _make_targets() -> set[str]:
    return set(re.findall(r"^([\w-]+):", MAKEFILE, flags=re.MULTILINE))


def test_check_sh_default_gates_are_make_targets():
    script = (ROOT / "tools" / "check.sh").read_text()
    (default,) = re.findall(r'GATES="\$\{\*:-([^}]*)\}"', script)
    gates = default.split()
    assert gates
    assert set(gates) - _make_targets() == set()


def test_ci_make_calls_are_make_targets():
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    called = set(re.findall(r"\bmake ([\w-]+)", workflow))
    assert called
    assert called - _make_targets() == set()


def test_ci_installs_the_declared_test_extra():
    """CI installs what pyproject.toml declares for testing (tomli on
    3.10 included), not a hand-kept package list that can drift."""
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    installs = re.findall(r"pip install (.+)", workflow)
    assert installs == ['-e ".[test]"']
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert re.search(r"^test = \[", pyproject, flags=re.MULTILINE)


def test_makefile_python_modules_resolve():
    modules = re.findall(r"\$\(PYTHON\) -m ([\w.]+)", MAKEFILE)
    assert modules
    missing = [m for m in modules if importlib.util.find_spec(m) is None]
    assert missing == []


def test_make_lint_arguments_parse():
    """The ``make lint`` recipe passes only arguments repro-lint accepts,
    and its targets exist."""
    from tools.repro_lint.engine import _build_parser

    (recipe,) = re.findall(r"^lint:\n((?:\t.*\n)+)", MAKEFILE, flags=re.MULTILINE)
    command = shlex.split(recipe.replace("\\\n", " "))
    assert command[:3] == ["$(PYTHON)", "-m", "tools.repro_lint"]
    try:
        args = _build_parser().parse_args(command[3:])
    except SystemExit:
        pytest.fail(f"repro-lint rejects the `make lint` arguments {command[3:]}")
    assert [t for t in args.targets if not (ROOT / t).exists()] == []


def test_benchmark_layers_resolve():
    """Every layer of the benchmark's traced run names code that exists;
    a class target defines the attribute in its own ``__dict__``, which
    is what ``LayerTracer.wrap`` requires (an inherited one raises)."""
    from benchmarks.bench.layers import LAYERS, resolve

    missing = []
    for layer, target, attr in LAYERS:
        owner = resolve(target)
        found = attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr)
        if not found:
            missing.append(f"{layer}: {target}.{attr}")
    assert missing == []


def test_checkpoint_format_bump_reaches_docs_and_tests():
    """A checkpoint format bump names the new format in DESIGN.md, pins
    it in the legacy test, and adds the previous one to the formats that
    test rejects by name."""
    from repro.sim.checkpoint import CHECKPOINT_FORMAT
    from tests.sim.test_checkpoint import TestLegacyCheckpoint

    assert CHECKPOINT_FORMAT in (ROOT / "DESIGN.md").read_text()
    test = TestLegacyCheckpoint.test_old_format_rejected_by_name
    assert f'CHECKPOINT_FORMAT == "{CHECKPOINT_FORMAT}"' in inspect.getsource(test)
    (mark,) = [m for m in test.pytestmark if m.name == "parametrize"]
    current = int(re.fullmatch(r"repro-checkpoint-v(\d+)", CHECKPOINT_FORMAT).group(1))
    assert mark.args == ("old", [f"v{k}" for k in range(1, current)])
