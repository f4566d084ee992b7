"""Tests of the benchmark harness, on workloads shrunk through arguments.

Run: PYTHONPATH=src python -m pytest benchmarks/bench/tests -q
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

from benchmarks.bench.harness import END_TO_END, PER_LAYER, measure, pinned_digests
from benchmarks.bench.layers import LAYERS, LayerTracer, install_layers, resolve
from benchmarks.bench import workloads
from benchmarks.bench.summary import tail_percentile
from benchmarks.bench.workloads import WORKLOADS, IngestWorkload

ROOT = Path(__file__).resolve().parents[3]

SHRUNK = {
    "engine-30k": dict(servers=300, jobs=30, cross_check_profiler=False),
    "engine-100k-burst": dict(servers=500, jobs=8),
    "ingest-1m": dict(rows=3_000),
    "serve-30k": dict(servers=200, jobs=30, rate=200.0, checkpoint_every=5.0),
}


@pytest.fixture(autouse=True)
def _fixture_cache(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "fixture_dir", lambda: tmp_path / "fixtures")


def shrunk(name: str):
    return replace(WORKLOADS[name], **SHRUNK[name])


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _originals() -> list:
    out = []
    for _, target, attr in LAYERS:
        owner = resolve(target)
        out.append(owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr))
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_each_workload_runs_shrunk_and_checks_out(name):
    out = measure(shrunk(name), seed=7, seconds=0.0)
    assert out["failed"] == 0, out["errors"]
    assert out["reps"] == 1
    assert list(out["metrics"]) == [m for m, _ in END_TO_END]
    assert all(value > 0 for value in out["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_matches_untraced_and_restores_wrappers(name):
    before = _originals()
    out = measure(shrunk(name), seed=3, seconds=0.0, trace=True)
    assert out["failed"] == 0, out["errors"]  # includes the traced-digest check
    assert list(out["metrics"]) == [m for m, _ in PER_LAYER]
    assert _originals() == before


def test_traced_digest_equals_untraced_digest():
    workload = shrunk("engine-100k-burst")
    inputs = workload.inputs(11)
    plain = workload.rep(inputs)
    with LayerTracer() as tracer:
        install_layers(tracer)
        traced = workload.rep(inputs)
    assert traced.digest == plain.digest
    assert tracer.profiler.report()["sim.engine.step"]["calls"] > 0


def test_metric_names_and_units_match_benchmark_json():
    spec = _benchmark_json()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert sorted(pinned_digests()) == sorted(WORKLOADS)


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (200, 95.0), (1_000, 99.0), (10_000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    got = tail_percentile([float(i) for i in range(n)])
    if expected is None:
        assert got is None
        return
    pct, value, count = got
    assert (pct, count) == (expected, n)
    assert sum(1 for i in range(n) if i > value) >= 10


def test_serve_decisions_are_stamped_on_the_right_jobs():
    workload = replace(shrunk("serve-30k"), rate=50.0)
    rep = workload.rep(workload.inputs(5))
    assert rep.failed == 0, rep.errors
    assert rep.layer["service.decision_samples"] == workload.jobs
    # Admitting job k pulls line k+1 first, so job k's decision cannot
    # come before line k+1 was due; a stamp credited to the wrong job
    # would read a whole spacing earlier or later.
    spacing_ms = 1e3 / workload.rate
    assert spacing_ms <= rep.layer["service.decision_ms_p50"] < 2 * spacing_ms


def test_fixture_cache_is_reused(tmp_path):
    workload = IngestWorkload(name="ingest-test", why="test", rows=500)
    first = workload.inputs(1)
    stamp = first.path.stat().st_mtime_ns
    second = workload.inputs(1)
    assert second.path == first.path
    assert second.path.stat().st_mtime_ns == stamp
    assert list(first.path.parent.iterdir()) == [first.path]
    # The generating child has ended and been reaped: no process is left.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
