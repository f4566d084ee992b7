"""Spec → job materialization vs its eager reference.

``jobs_from_specs`` fits each phase's default h(r) on first read, skips
Kahn's sort for index-ordered phase graphs and shares one demand vector
per distinct demand (DESIGN.md §5.6).  ``tests/reference.py`` keeps the
eager form; built from the same specs, both must give the same jobs,
field by field, and the same simulation, launch for launch.  A call-count
guard keeps the skipped work skipped.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.bench.workloads import SmallJobTrace
from repro.cluster.heterogeneity import paper_cluster_30_nodes
from repro.core.online import DollyMPScheduler
from repro.core.volume import measure_job
from repro.resources import Resources
from repro.sim.runner import run_simulation
from repro.workload import dag
from repro.workload.google_trace import PhaseSpec, TraceJobSpec, jobs_from_specs
from repro.workload.speedup import ParetoSpeedup
from tests import reference
from tests.conftest import snapshot_copies
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
                [(t.index, t.state, t.copies) for t in p.tasks],
                type(p.speedup),
                getattr(p.speedup, "alpha", 0.0).hex(),
            )
            for p in job.phases
        ),
    )


class TestReferenceMaterializer:
    @given(job_specs())
    @settings(max_examples=150, deadline=None)
    def test_same_jobs_field_by_field(self, specs):
        got = jobs_from_specs(specs)
        want = reference.jobs_from_specs(specs)
        assert [job_fields(j) for j in got] == [job_fields(j) for j in want]
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
    """Materializing and measuring jobs skips the work no output uses.
    Counts, not times, so the guard is deterministic."""

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
