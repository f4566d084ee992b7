"""Integration tests: observability attached to real simulations.

Pins the §5.4 contracts end to end:

* instrumented counters agree with the engine's own accounting;
* two same-seed runs export byte-identical snapshots and span traces;
* attaching observability never changes the simulation itself;
* a recorded run replays bit-identically with metrics+tracing enabled;
* the ``REPRO_METRICS`` / ``REPRO_PROFILE`` env toggles opt runs in.
"""

import json

import pytest

from repro.cluster.heterogeneity import homogeneous_cluster, paper_cluster_30_nodes
from repro.core.online import DollyMPScheduler
from repro.faults import FAULT_PROFILES
from repro.observability import METRICS_ENV, Observability, observability_default
from repro.observability.profiling import PROFILE_ENV
from repro.resources import Resources
from repro.schedulers.drf import DRFScheduler
from repro.schedulers.tetris import TetrisScheduler
from repro.sim.engine import SimulationEngine
from repro.sim.replay import assert_replay_identical, replay_trace
from repro.sim.runner import run_recorded, run_simulation
from repro.workload.mapreduce import pagerank_job, wordcount_job
from tests.conftest import all_tasks, make_chain_job


def _cluster():
    return paper_cluster_30_nodes()


def _jobs():
    jobs = []
    for i in range(6):
        if i % 2 == 0:
            jobs.append(wordcount_job(2.0, arrival_time=40.0 * i, job_id=i))
        else:
            jobs.append(pagerank_job(0.5, arrival_time=40.0 * i, job_id=i))
    return jobs


def _value(snapshot, name, **labels):
    for s in snapshot[name]["series"]:
        if s["labels"] == labels:
            return s["value"]
    raise AssertionError(f"no series {labels} in {name}")


def test_counters_agree_with_engine_accounting():
    obs = Observability()
    result = run_simulation(
        _cluster(), DollyMPScheduler(max_clones=2), _jobs(), seed=11,
        observability=obs,
    )
    m = obs.snapshot()["metrics"]
    assert _value(m, "repro_sim_actions_total", kind="launch") == result.copies_launched
    assert _value(m, "repro_sim_copies_launched_total") == result.copies_launched
    assert _value(m, "repro_sim_clones_launched_total") == result.clones_launched
    assert _value(m, "repro_sim_time_seconds") == result.simulated_time
    assert _value(m, "repro_sim_active_jobs") == 0.0
    assert _value(m, "repro_sim_events_total", kind="job_arrival") == len(
        result.records
    )
    # every job finished → one flowtime observation each
    flow = next(
        s for s in m["repro_sim_job_flowtime_seconds"]["series"] if s["labels"] == {}
    )
    assert flow["count"] == len(result.records)
    assert flow["sum"] == pytest.approx(result.total_flowtime)


@pytest.mark.parametrize("row_name", ["testbed", "google2011"])
def test_fault_counters_agree_with_engine_accounting(tmp_path, row_name):
    """The fault instruments and the engine's own fault tallies count
    the same injections and losses on a chaos run."""
    from repro.devtools import identity

    if row_name == "testbed":
        row = identity.paper_testbed_row()
    else:
        (row,) = [r for r in identity.trace_rows(tmp_path) if r.name == row_name]
    obs = Observability()
    result = SimulationEngine(
        row.cluster(),
        DollyMPScheduler(max_clones=2),
        row.jobs(),
        seed=row.seed,
        schedule_interval=row.schedule_interval,
        fault_profile=FAULT_PROFILES["chaos"],
        observability=obs,
    ).run()
    m = obs.snapshot()["metrics"]
    assert result.copies_lost > 0
    assert _value(m, "repro_faults_copies_lost_total") == result.copies_lost
    assert (
        _value(m, "repro_faults_recoveries_masked_by_clone_total")
        == result.recoveries_masked_by_clone
    )
    assert _value(m, "repro_faults_tasks_requeued_total") == result.tasks_requeued
    injected = [
        _value(m, "repro_faults_injected_total", kind=kind)
        for kind in ("server_fail", "copy_fail", "slowdown")
    ]
    assert sum(injected) == result.faults_injected


def test_same_seed_snapshots_and_spans_are_byte_identical(tmp_path):
    outputs = []
    for run in range(2):
        obs = Observability()
        run_simulation(
            _cluster(), DollyMPScheduler(max_clones=2), _jobs(), seed=5,
            observability=obs,
        )
        spans = tmp_path / f"spans{run}.jsonl"
        obs.dump_spans(spans)
        outputs.append((obs.to_json(), obs.to_prometheus(), spans.read_bytes()))
    assert outputs[0] == outputs[1]


def test_observability_never_steers_the_simulation():
    plain = run_simulation(
        _cluster(), DollyMPScheduler(max_clones=2), _jobs(), seed=9
    )
    obs = Observability(profile=True)
    observed = run_simulation(
        _cluster(), DollyMPScheduler(max_clones=2), _jobs(), seed=9,
        observability=obs,
    )
    assert plain.records == observed.records
    assert plain.clones_launched == observed.clones_launched
    assert plain.simulated_time == observed.simulated_time


def test_replay_bit_identity_with_observability_enabled():
    obs_rec = Observability()
    recorded, trace = run_recorded(
        _cluster(), DollyMPScheduler(max_clones=2), _jobs(), seed=3,
        observability=obs_rec,
    )
    obs_rep = Observability()
    replayed = replay_trace(trace, _cluster(), _jobs(), observability=obs_rep)
    assert_replay_identical(recorded, replayed)
    # the replayed run's sim-derived metrics equal the recording's,
    # except decision-cause attribution (the replay's actions re-apply
    # at ReplayScheduler entry points) and action/event counts that
    # journaled engine-side kills as explicit decisions.
    m_rec = obs_rec.snapshot()["metrics"]
    m_rep = obs_rep.snapshot()["metrics"]
    assert _value(m_rep, "repro_sim_copies_launched_total") == _value(
        m_rec, "repro_sim_copies_launched_total"
    )
    assert _value(m_rep, "repro_sim_clones_launched_total") == _value(
        m_rec, "repro_sim_clones_launched_total"
    )
    assert (
        m_rep["repro_sim_job_flowtime_seconds"] == m_rec["repro_sim_job_flowtime_seconds"]
    )
    assert _value(m_rep, "repro_sim_time_seconds") == _value(
        m_rec, "repro_sim_time_seconds"
    )


def test_slotted_mode_counts_schedule_ticks():
    obs = Observability()
    run_simulation(
        _cluster(), TetrisScheduler(), _jobs(), seed=2, schedule_interval=5.0,
        observability=obs,
    )
    m = obs.snapshot()["metrics"]
    assert _value(m, "repro_sim_events_total", kind="schedule_tick") > 0
    assert _value(m, "repro_sim_decision_points_total", cause="schedule") > 0


def test_placement_query_counters_follow_the_active_path():
    """One unlabelled counter counts every best-fit query: DollyMP's
    clone-fill lookups and the cluster scans DRF places tasks with."""
    for scheduler in (DollyMPScheduler(max_clones=2), DRFScheduler()):
        obs = Observability()
        run_simulation(
            homogeneous_cluster(8, Resources.of(16, 64)),
            scheduler,
            [make_chain_job(2, 6, sigma=5.0, job_id=0)],
            seed=1,
            observability=obs,
        )
        series = obs.snapshot()["metrics"]["repro_placement_queries_total"]["series"]
        assert [s["labels"] for s in series] == [{}]
        assert series[0]["value"] > 0


def test_rejected_actions_are_counted():
    from repro.sim.actions import InvalidAction, Launch

    cluster = homogeneous_cluster(1, Resources.of(2, 4))
    job = make_chain_job(1, 4, cpu=2.0, mem=4.0, job_id=0)
    obs = Observability()

    class Greedy(DollyMPScheduler):
        def schedule(self, view):
            # try to overcommit: second launch on the full server must
            # reject without mutating anything.
            for job_ in view.active_jobs:
                for phase in job_.phases:
                    for task in all_tasks(phase):
                        if task.state.name != "PENDING":
                            continue
                        try:
                            view.apply(Launch(task, view.cluster[0]))
                        except InvalidAction:
                            pass

    run_simulation(cluster, Greedy(max_clones=0), [job], seed=0, observability=obs)
    m = obs.snapshot()["metrics"]
    assert _value(m, "repro_sim_actions_rejected_total", kind="launch") > 0
    assert _value(m, "repro_sim_actions_rejected_total", kind="kill") == 0


def test_profiler_attributes_all_three_phases():
    obs = Observability(profile=True)
    run_simulation(
        _cluster(), DollyMPScheduler(max_clones=2), _jobs(), seed=4,
        observability=obs,
    )
    report = obs.profiler.report()
    assert {"engine", "scheduler", "placement"} <= set(report)
    snap = obs.snapshot(include_wall=True)
    assert snap["profile"] == report
    assert "profile" not in obs.snapshot()


def test_engine_profile_flag_forces_profiler():
    engine = SimulationEngine(
        _cluster(), DollyMPScheduler(max_clones=2), _jobs(), seed=4, profile=True
    )
    assert engine.observability is not None
    assert engine.observability.profiler is not None
    engine.run()
    assert engine.observability.profiler.report()


def test_env_opt_in(monkeypatch):
    monkeypatch.delenv(METRICS_ENV, raising=False)
    monkeypatch.delenv(PROFILE_ENV, raising=False)
    assert observability_default() is None
    engine = SimulationEngine(
        _cluster(), DollyMPScheduler(max_clones=2), _jobs(), seed=0
    )
    assert engine.observability is None

    monkeypatch.setenv(METRICS_ENV, "1")
    engine = SimulationEngine(
        _cluster(), DollyMPScheduler(max_clones=2), _jobs(), seed=0
    )
    assert engine.observability is not None
    assert engine.observability.registry is not None

    monkeypatch.delenv(METRICS_ENV, raising=False)
    monkeypatch.setenv(PROFILE_ENV, "yes")
    engine = SimulationEngine(
        _cluster(), DollyMPScheduler(max_clones=2), _jobs(), seed=0
    )
    assert engine.observability is not None
    assert engine.observability.profiler is not None


def test_workload_recording():
    jobs = _jobs()
    obs = Observability()
    obs.record_workload(jobs)
    m = obs.snapshot()["metrics"]
    assert _value(m, "repro_workload_jobs_total") == len(jobs)
    assert _value(m, "repro_workload_tasks_total") == sum(
        p.num_tasks for j in jobs for p in j.phases
    )


def test_snapshot_schema_and_wall_segregation():
    obs = Observability()
    run_simulation(
        _cluster(), DollyMPScheduler(max_clones=2), _jobs(), seed=6,
        observability=obs,
    )
    snap = obs.snapshot()
    assert snap["schema"] == "repro-metrics/v1"
    assert all(not name.startswith("repro_wall_") for name in snap["metrics"])
    wall = obs.snapshot(include_wall=True)["metrics"]
    assert "repro_wall_schedule_pass_seconds" in wall
    assert "repro_wall_run_seconds" in wall
    # JSON snapshot round-trips
    assert json.loads(obs.to_json()) == snap
