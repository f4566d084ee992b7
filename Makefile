# Repro development targets.  `make check` is the full gate CI runs —
# it delegates to tools/check.sh, which executes each gate below
# fail-fast and prints a PASS/FAIL summary line per gate.  CI invokes
# `make check` directly so the gate list lives in exactly one place.

PYTHON ?= python
export PYTHONPATH := src:$(PYTHONPATH)

# Coverage floor lives in pyproject.toml ([tool.coverage.report]).
COV_FAIL_UNDER = $(shell sed -n 's/^fail_under *= *//p' pyproject.toml)

.PHONY: check lint test identity bench-check coverage

check:
	@MAKE="$(MAKE)" sh tools/check.sh

# Full analyzer: per-file rules + whole-program dataflow + stale-waiver
# check; any finding fails the gate.  The SARIF report lands in
# artifacts/lint/ (uploaded by CI); findings still print as text.
lint:
	$(PYTHON) -m tools.repro_lint --unused-ignores --format sarif \
		--output artifacts/lint/repro_lint.sarif src tests benchmarks

# Tier 1 in development mode: a file or socket left unclosed fails the
# gate.  Its ResourceWarning is raised from a finalizer, so pytest turns
# it into a PytestUnraisableExceptionWarning, which fails the test too.
test:
	$(PYTHON) -X dev -m pytest -x -q -W error::ResourceWarning \
		-W error::pytest.PytestUnraisableExceptionWarning

# The determinism matrix: workloads × fault profiles × drivers, each
# driver byte-identical to the one-shot run.  The testbed × none replay
# leaves its metrics, spans and decision journal in artifacts/identity/
# (uploaded by CI).
identity:
	$(PYTHON) -m repro.devtools.identity artifacts/identity

# The benchmark harness: its own tests, then one full-size run of each
# of the four workloads at seed 2022, failing on any failed check or any
# result whose digest differs from benchmarks/bench/digests.json.  The
# stamped record lands in artifacts/bench/ (uploaded by CI).
bench-check:
	$(PYTHON) -m pytest -q benchmarks/bench/tests
	$(PYTHON) -m benchmarks.bench --repeat 1 --seconds 0

# Enforced in CI (pytest-cov is installed there); locally the gate
# degrades to a skip when pytest-cov isn't available, since the repo
# must work without installing anything.
coverage:
	@if $(PYTHON) -c "import pytest_cov" 2>/dev/null; then \
		$(PYTHON) -m pytest -x -q --cov=repro --cov=tools \
			--cov-report=term --cov-fail-under=$(COV_FAIL_UNDER); \
	else \
		echo "coverage: pytest-cov not installed, skipping (floor $(COV_FAIL_UNDER)% enforced in CI)"; \
	fi
