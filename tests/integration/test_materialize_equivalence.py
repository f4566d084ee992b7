"""Spec → job materialization vs its eager reference.

``jobs_from_specs`` builds no phase: each job holds its spec until the
engine builds it at its arrival.  A build fits each phase's default
h(r) on first read, skips Kahn's sort for index-ordered phase graphs,
shares one demand vector per distinct demand and builds no task: a
phase builds a task the first time it is asked for it, which on the run
path is at launch (DESIGN.md §5.6).  ``tests/reference.py`` keeps the
eager form; built from the same specs, both must give the same jobs,
field by field, and the same simulation — records, event counts and
decision journals byte for byte, in one shot and resumed from a mid-run
checkpoint.  Call-count guards keep the skipped work skipped.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.bench.workloads import WORKLOADS, SmallJobTrace
from repro import cli
from repro.cluster.heterogeneity import paper_cluster_30_nodes, trace_sim_cluster
from repro.core.online import DollyMPScheduler
from repro.core.volume import measure_job
from repro.devtools import identity
from repro.observability import Observability
from repro.resources import Resources
from repro.sim.checkpoint import checkpoint_bytes, restore_bytes
from repro.sim.engine import SimulationEngine
from repro.sim.events import EventKind
from repro.sim.runner import run_simulation
from repro.workload import dag
from repro.workload.google_trace import (
    GoogleTraceGenerator,
    PhaseSpec,
    TraceJobSpec,
    jobs_from_specs,
    save_trace,
)
from repro.workload.phase import Phase
from repro.workload.speedup import ParetoSpeedup
from repro.workload.task import Task
from tests import reference
from tests.conftest import all_tasks, snapshot_copies
from tests.integration.test_vectorized_equivalence import launch_log

#: A few repeated demands, so phases share vectors, next to free ones.
MENU = ((0.5, 1.0), (1.0, 2.0), (2.0, 4.0), (1, 2))

finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def phase_specs(draw, k):
    theta = draw(st.floats(0.01, 1e4, **finite))
    sigma = draw(st.one_of(st.just(0.0), st.floats(0.01 * theta, 10.0 * theta, **finite)))
    cpu, mem = draw(
        st.one_of(
            st.sampled_from(MENU),
            st.tuples(st.floats(0.0, 16.0, **finite), st.floats(1e-3, 64.0, **finite)),
        )
    )
    parents = draw(st.lists(st.integers(0, k - 1), max_size=3)) if k else []
    return PhaseSpec(draw(st.integers(1, 4)), cpu, mem, theta, sigma, tuple(parents))


@st.composite
def job_specs(draw):
    specs = []
    for i in range(draw(st.integers(1, 5))):
        phases = [draw(phase_specs(k)) for k in range(draw(st.integers(1, 4)))]
        arrival = draw(st.floats(0.0, 1e4, **finite))
        specs.append(TraceJobSpec(f"job-{i}", arrival, tuple(phases), job_id=i))
    return specs


def dist_fields(dist) -> tuple:
    return (type(dist), *(getattr(dist, s).hex() for s in type(dist).__slots__))


def job_fields(job) -> tuple:
    return (
        job.job_id,
        job.name,
        job.arrival_time.hex(),
        tuple(
            (
                p.index,
                p.name,
                p.demand,
                dist_fields(p.distribution),
                p.parents,
                p.start_delay,
                p.num_tasks,
                p.num_pending,
                p.pending_indices(),
                [(t.index, t.uid, t.state, t.copies) for t in all_tasks(p)],
                type(p.speedup),
                getattr(p.speedup, "alpha", 0.0).hex(),
            )
            for p in job.phases
        ),
    )


@pytest.fixture
def built(monkeypatch):
    """Every task built from here on, as (phase, index) in build order;
    holding the phase keeps its ``id`` from being reused."""
    seen = []
    init = Task.__init__

    def counting_init(self, phase, index):
        init(self, phase, index)
        seen.append((phase, index))

    monkeypatch.setattr(Task, "__init__", counting_init)
    return seen


@pytest.fixture
def phases_built(monkeypatch):
    """Every phase built from here on, as its name, in build order."""
    seen = []
    init = Phase.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        seen.append(self.name)

    monkeypatch.setattr(Phase, "__init__", counting_init)
    return seen


class TestReferenceMaterializer:
    @given(job_specs())
    @settings(max_examples=150, deadline=None)
    def test_same_jobs_field_by_field(self, specs):
        got = jobs_from_specs(specs)
        want = reference.jobs_from_specs(specs)
        assert all(p.built_tasks() == [] for j in got for p in j.phases)
        assert all(len(p.built_tasks()) == p.num_tasks for j in want for p in j.phases)
        assert [job_fields(j) for j in got] == [job_fields(j) for j in want]
        # A task is built once and kept.
        for p in (p for j in got for p in j.phases):
            assert all(p.task(i) is t for i, t in enumerate(all_tasks(p)))
        # Equal demands share one vector; the reference builds one each.
        demands = {(p.demand.cpu, p.demand.mem) for j in got for p in j.phases}
        assert len({id(p.demand) for j in got for p in j.phases}) == len(demands)

    def test_same_run_with_category_targets(self):
        """The one reader of h(r), DollyMP's category-target cloning,
        makes the same decisions on lazily fitted phases."""
        specs = SmallJobTrace(seed=5, mean_theta=40.0).generate(40, mean_interarrival=3.0)
        specs = [replace(s, job_id=i) for i, s in enumerate(specs)]
        lazy = jobs_from_specs(specs)
        # Held here: a finished job releases its phases.
        lazy_phases = [p for j in lazy for p in j.phases]
        logs = []
        for jobs in (lazy, reference.jobs_from_specs(specs)):
            sched = DollyMPScheduler(max_clones=2, use_category_target=True)
            copies = snapshot_copies(sched)
            run_simulation(
                paper_cluster_30_nodes(),
                sched,
                jobs,
                seed=11,
                schedule_interval=5.0,
                max_time=1e7,
            )
            logs.append(launch_log(copies))
        assert logs[0] == logs[1]
        # Fitted lazily, where the rule weighed a clone.
        assert any(p._speedup is not None for p in lazy_phases)


class TestCallCounts:
    """Materializing and measuring jobs skips the work no output uses,
    and a task is built when it first launches, and only then.  Counts,
    not times, so the guards are deterministic."""

    def test_no_fits_no_kahn_sorts_one_vector_per_demand(self, monkeypatch):
        specs = SmallJobTrace(seed=2022).generate(300, mean_interarrival=0.25)
        calls = {"fit": 0, "kahn": 0}
        fit, kahn = ParetoSpeedup.from_moments, dag._kahn_order

        def counting_fit(mean, std):
            calls["fit"] += 1
            return fit(mean, std)

        def counting_kahn(parents):
            calls["kahn"] += 1
            return kahn(parents)

        monkeypatch.setattr(ParetoSpeedup, "from_moments", staticmethod(counting_fit))
        monkeypatch.setattr(dag, "_kahn_order", counting_kahn)
        jobs = jobs_from_specs(specs)
        total = Resources.of(3000.0, 6000.0)
        for job in jobs:
            measure_job(job, total)
        phases = [p for j in jobs for p in j.phases]
        assert len(phases) > len(jobs) > 0  # multi-phase jobs were measured
        assert calls == {"fit": 0, "kahn": 0}
        demands = {(p.demand.cpu, p.demand.mem) for p in phases}
        assert len({id(p.demand) for p in phases}) == len(demands)
        # The counters see the work they guard.
        assert phases[0].speedup is not None and calls["fit"] == 1
        dag.topological_order([(1,), ()])
        assert calls["kahn"] == 1

    def test_jobs_and_engine_build_no_phase(self, phases_built):
        """Set-up builds no job: ``jobs_from_specs`` holds the specs, and
        an engine over the list checks every job from its spec."""
        specs = WORKLOADS["engine-100k-burst"].inputs(2022).specs
        jobs = jobs_from_specs(specs)
        SimulationEngine(
            trace_sim_cluster(1_000, seed=2022), DollyMPScheduler(max_clones=2), jobs
        )
        assert phases_built == [] and not any(j.built for j in jobs)
        assert sum(j.num_phases for j in jobs) == 753 and phases_built == []
        # The counter sees the work it guards.
        jobs[0].build()
        assert phases_built == [f"{specs[0].name}-p{k}" for k in range(len(specs[0].phases))]

    @pytest.mark.parametrize("column", identity.COLUMNS)
    def test_run_builds_each_job_once_at_its_arrival(self, phases_built, column):
        """A job is built when its arrival is processed, before the
        arrival hook, and never again; until then every queued or listed
        job is known only by its spec."""
        row = identity.google_synth_row()
        arrived = []

        class Watching(DollyMPScheduler):
            def on_job_arrival(self, job, view):
                arrived.append(job.job_id)
                assert job.built
                assert phases_built[-job.num_phases :] == [p.name for p in job.phases]
                super().on_job_arrival(job, view)

        engine = identity.build_engine(row, column, jobs_from_specs(row.specs), Watching)
        engine.start()
        while engine.step():
            waiting = [*engine.events.payloads(EventKind.JOB_ARRIVAL)]
            waiting += engine.arrivals.remaining()
            assert not any(j.built for j in waiting)
        assert engine.finalize().num_jobs == len(row.specs)
        assert arrived == sorted(arrived) == list(range(len(row.specs)))
        assert len(phases_built) == len(set(phases_built))
        assert len(phases_built) == sum(len(s.phases) for s in row.specs)

    def test_burst_specs_build_no_task(self, built):
        specs = WORKLOADS["engine-100k-burst"].inputs(2022).specs
        jobs = jobs_from_specs(specs)
        assert len(jobs) == 400 and built == []
        # The eager reference builds every task: the guard sees the work.
        reference.jobs_from_specs(specs)
        assert len(built) == sum(s.num_tasks() for s in specs) == 24_182

    @pytest.mark.parametrize("column, clones", [("none", 2), ("chaos", 2), ("chaos", 0)])
    def test_run_builds_each_task_once_at_its_first_launch(self, built, column, clones):
        """Between any two instants every built task of an active job
        has launched a copy, and a run that finishes every job builds
        each task exactly once.  Without clones, chaos orphans tasks,
        which are requeued and relaunch as the object already built."""
        row = identity.paper_testbed_row()
        engine = identity.build_engine(
            row,
            column,
            jobs_from_specs(row.specs),
            scheduler=lambda max_clones: DollyMPScheduler(max_clones=clones),
        )
        engine.start()
        while engine.step():
            for job in engine.active_jobs.values():
                for phase in job.phases:
                    for task in phase.built_tasks():
                        assert task.num_copies > 0, task.uid
        result = engine.finalize()
        assert result.num_jobs == len(row.specs)
        assert len({(id(phase), i) for phase, i in built}) == len(built)
        assert len(built) == sum(s.num_tasks() for s in row.specs)
        assert (engine.tasks_requeued > 0) is (clones == 0)


def _outputs(engine) -> tuple[bytes, int, list[str]]:
    """Records (pickled, so bit for bit), events and journal lines."""
    result = engine.finalize()
    return (
        pickle.dumps(result.records, protocol=5),
        result.events_processed,
        [d.to_json() for d in engine.trace],
    )


def _one_shot(row, column, jobs):
    """The outputs and the number of instants the run took."""
    engine = identity.build_engine(row, column, jobs)
    engine.start()
    instants = engine.drain()
    return _outputs(engine), instants


def _resumed(row, column, jobs, cut):
    """Stepped to instant ``cut``, checkpointed, restored and drained;
    returns the outputs, whether the cut held a task not yet built and
    whether the restored cut holds its jobs yet to arrive unbuilt."""
    engine = identity.build_engine(row, column, jobs)
    engine.start()
    for _ in range(cut):
        assert engine.step()
    unbuilt = identity._holds_unbuilt_task(engine)
    revived = restore_bytes(checkpoint_bytes(engine)[0])
    waiting = [*revived.events.payloads(EventKind.JOB_ARRIVAL), *revived.arrivals.remaining()]
    unbuilt_jobs = bool(waiting) and not any(j.built for j in waiting)
    revived.drain()
    return _outputs(revived), unbuilt, unbuilt_jobs


_ROWS = {"testbed": identity.paper_testbed_row, "google-synth": identity.google_synth_row}


@pytest.fixture(scope="module")
def rows():
    return {name: make() for name, make in _ROWS.items()}


class TestRunEquivalence:
    """The identity gate's testbed and google-synth rows with both
    builders: the same records, event count and decision journal, byte
    for byte, whether run in one shot or resumed from a checkpoint cut
    half-way through its instants."""

    @pytest.mark.parametrize("column", identity.COLUMNS)
    @pytest.mark.parametrize("name", list(_ROWS))
    def test_lazy_and_eager_builders_identical(self, rows, name, column):
        row = rows[name]
        want, instants = _one_shot(row, column, reference.jobs_from_specs(row.specs))
        assert _one_shot(row, column, jobs_from_specs(row.specs)) == (want, instants)
        for build in (jobs_from_specs, reference.jobs_from_specs):
            got, unbuilt, unbuilt_jobs = _resumed(row, column, build(row.specs), instants // 2)
            assert got == want, build.__module__
            # The lazy cut restores unbuilt slots, and the jobs yet to
            # arrive unbuilt; the eager one has neither.
            assert unbuilt is unbuilt_jobs is (build is jobs_from_specs)


class TestNoBuildReaders:
    """Readers of a workload's shape answer from the specs: the values
    a build gives, and nothing built."""

    def test_counts_and_workload_metrics_match_a_build(self):
        specs = GoogleTraceGenerator(seed=9).generate(25)
        lazy, eager = jobs_from_specs(specs), reference.jobs_from_specs(specs)
        assert [(j.num_phases, j.num_tasks) for j in lazy] == [
            (j.num_phases, j.num_tasks) for j in eager
        ]
        snapshots = []
        for jobs in (lazy, eager):
            obs = Observability(spans=False)
            obs.record_workload(jobs)
            snapshots.append(obs.to_json())
        assert snapshots[0] == snapshots[1]
        assert not any(j.built for j in lazy)

    def test_replay_metrics_build_no_job_at_set_up(self, tmp_path, monkeypatch, capsys):
        """``replay --metrics-out`` records the workload and builds the
        engine without building a job, and writes the snapshot the
        eager reference writes, byte for byte."""
        trace = tmp_path / "trace.json"
        save_trace(GoogleTraceGenerator(seed=3).generate(12, mean_interarrival=10.0), trace)
        built_at_start = []
        start = SimulationEngine.start

        def watched_start(engine):
            built_at_start.extend(j.built for j in engine.arrivals.remaining())
            return start(engine)

        monkeypatch.setattr(SimulationEngine, "start", watched_start)
        outputs = []
        for build in (jobs_from_specs, reference.jobs_from_specs):
            monkeypatch.setattr(cli, "jobs_from_specs", build)
            out = tmp_path / f"{build.__module__}.json"
            args = ["replay", str(trace), "--cluster", "trace:40", "--metrics-out", str(out)]
            assert cli.main(args) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert b"repro_workload_tasks_total" in outputs[0]
        assert built_at_start == [False] * 12 + [True] * 12
