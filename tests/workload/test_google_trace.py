"""Unit tests for the synthetic Google trace generator and trace I/O."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.workload.arrivals import JsonlSource
from repro.workload.google_trace import (
    GoogleTraceGenerator,
    PhaseSpec,
    TraceJobSpec,
    jobs_from_specs,
    load_trace,
    save_trace,
    spec_to_dict,
)
from repro.workload.job import Job


class TestSpecs:
    def test_phase_spec_validation(self):
        with pytest.raises(ValueError):
            PhaseSpec(num_tasks=0, cpu=1, mem=1, theta=1.0, sigma=0.0)
        with pytest.raises(ValueError):
            PhaseSpec(num_tasks=1, cpu=1, mem=1, theta=0.0, sigma=0.0)
        with pytest.raises(ValueError):
            PhaseSpec(num_tasks=1, cpu=1, mem=1, theta=1.0, sigma=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["theta", "sigma", "cpu", "mem"])
    def test_non_finite_phase_field_rejected_by_name(self, name, value):
        kw = dict(num_tasks=1, cpu=1.0, mem=1.0, theta=1.0, sigma=0.5)
        kw[name] = value
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            PhaseSpec(**kw)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_bad_arrival_time_rejected_by_name(self, value):
        with pytest.raises(ValueError, match="^arrival_time must be finite and non-negative"):
            TraceJobSpec(name="j", arrival_time=value)

    def test_all_zero_demand_rejected_by_name(self):
        # It failed only when the job was built (`phase tasks must demand
        # some resource`), which is now its arrival.
        with pytest.raises(ValueError, match="^cpu and mem must not both be zero"):
            PhaseSpec(num_tasks=1, cpu=0, mem=0.0, theta=1.0, sigma=0.0)
        PhaseSpec(num_tasks=1, cpu=0, mem=1e-300, theta=1.0, sigma=0.0)

    def test_empty_phases_rejected_by_name(self):
        with pytest.raises(ValueError, match="^phases must hold at least one phase"):
            TraceJobSpec(name="j", arrival_time=0.0, phases=())

    @pytest.mark.parametrize(
        "theta, sigma, cause",
        [
            (5e-324, 1.0, "x_m must be positive, got 0.0"),  # x_m underflows
            (1.0, 1e-160, "Numerical result out of range"),  # (θ/σ)² overflows
            (1e308, 1e-10, "x_m must be positive, got nan"),  # θ/σ overflows
        ],
    )
    def test_pareto_fit_that_fails_rejected_by_name(self, theta, sigma, cause):
        message = re.escape(f"theta={theta!r} with sigma={sigma!r} admits no Pareto fit")
        with pytest.raises(ValueError, match=message) as exc:
            PhaseSpec(num_tasks=1, cpu=1.0, mem=1.0, theta=theta, sigma=sigma)
        assert cause in str(exc.value)

    # Most drawn specs are rejected, by design: the edges are the point.
    @given(st.data())
    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
    )
    def test_any_spec_the_constructors_accept_builds(self, data):
        """Whatever ``PhaseSpec`` and ``TraceJobSpec`` accept builds when
        the job arrives, with the shapes its spec reported, so no build
        error reaches the middle of a run.  Values run to the ends of
        the float range, subnormals and zeros included."""
        # One draw in four is an edge of the float range.
        edges = st.sampled_from([0.0, 5e-324, 1e-320, 1e-160, 1e308])
        value = st.one_of(*[st.floats(0.0, 1e300)] * 3, edges)
        rows = [
            (
                data.draw(st.integers(1, 3)),
                data.draw(value),
                data.draw(value),
                data.draw(value),
                data.draw(value),
                data.draw(st.lists(st.integers(0, k - 1), max_size=2) if k else st.just([])),
            )
            for k in range(data.draw(st.integers(1, 3)))
        ]
        try:
            spec = TraceJobSpec(
                "j", 0.0, tuple(PhaseSpec(*row) for row in rows), job_id=0
            )
        except ValueError:
            assume(False)
        job = Job.from_spec(spec)
        unbuilt = [(s.num_tasks, s.cpu, s.mem) for s in job.phase_shapes()]
        phases = job.build()
        assert [(p.num_tasks, p.demand.cpu, p.demand.mem) for p in phases] == unbuilt
        assert job.num_tasks == spec.num_tasks()
        assert all(p.distribution.mean > 0 for p in phases)

    def test_job_spec_task_count(self):
        spec = TraceJobSpec(
            name="j",
            arrival_time=0.0,
            phases=(
                PhaseSpec(num_tasks=3, cpu=1, mem=1, theta=1.0, sigma=0.0),
                PhaseSpec(num_tasks=2, cpu=1, mem=1, theta=1.0, sigma=0.0, parents=(0,)),
            ),
        )
        assert spec.num_tasks() == 5


class TestGenerator:
    def test_reproducible(self):
        a = GoogleTraceGenerator(seed=5).generate(20)
        b = GoogleTraceGenerator(seed=5).generate(20)
        assert a == b

    def test_seed_matters(self):
        a = GoogleTraceGenerator(seed=5).generate(20)
        b = GoogleTraceGenerator(seed=6).generate(20)
        assert a != b

    def test_arrivals_monotone(self):
        specs = GoogleTraceGenerator(seed=0).generate(50, mean_interarrival=10.0)
        times = [s.arrival_time for s in specs]
        assert times == sorted(times)
        assert times[0] == 0.0

    def test_mostly_small_jobs(self):
        """95% of jobs are small (the trace statistic from Sec. 1)."""
        specs = GoogleTraceGenerator(seed=1).generate(500)
        sizes = np.array([s.num_tasks() for s in specs])
        assert np.quantile(sizes, 0.90) <= 500
        assert sizes.max() > np.median(sizes) * 10  # heavy tail exists

    def test_straggler_phase_fraction(self):
        """~70% of phases should be straggler-prone (cv = straggler_cv)."""
        gen = GoogleTraceGenerator(seed=2, straggler_phase_fraction=0.7)
        specs = gen.generate(400)
        phases = [p for s in specs for p in s.phases]
        straggly = sum(1 for p in phases if p.sigma / p.theta > 0.5)
        frac = straggly / len(phases)
        assert 0.6 < frac < 0.8

    def test_zero_fraction_means_no_stragglers(self):
        gen = GoogleTraceGenerator(seed=2, straggler_phase_fraction=0.0, normal_cv=0.1)
        specs = gen.generate(100)
        assert all(p.sigma / p.theta < 0.2 for s in specs for p in s.phases)

    def test_phase_chains_valid(self):
        specs = GoogleTraceGenerator(seed=3).generate(200)
        for s in specs:
            for k, p in enumerate(s.phases):
                assert all(q < k for q in p.parents)

    def test_num_jobs_zero(self):
        assert GoogleTraceGenerator(seed=0).generate(0) == []


class TestMaterialization:
    def test_jobs_match_specs(self):
        specs = GoogleTraceGenerator(seed=4).generate(30)
        jobs = jobs_from_specs(specs)
        assert len(jobs) == 30
        for spec, job in zip(specs, jobs):
            assert job.arrival_time == spec.arrival_time
            assert job.num_tasks == spec.num_tasks()
            for ps, phase in zip(spec.phases, job.phases):
                assert phase.theta == pytest.approx(ps.theta, rel=1e-9)
                assert phase.sigma == pytest.approx(ps.sigma, rel=1e-9)

    def test_jobs_are_built_on_first_read_of_their_phases(self):
        specs = GoogleTraceGenerator(seed=4).generate(3)
        jobs = jobs_from_specs(specs)
        assert not any(j.built for j in jobs)
        phases = jobs[1].phases
        assert jobs[1].built and jobs[1].phases is phases
        assert all(p.job is jobs[1] for p in phases)
        assert not jobs[0].built and not jobs[2].built

    def test_deterministic_phase_when_sigma_zero(self):
        spec = TraceJobSpec(
            name="d",
            arrival_time=0.0,
            phases=(PhaseSpec(num_tasks=1, cpu=1, mem=1, theta=5.0, sigma=0.0),),
        )
        (job,) = jobs_from_specs([spec])
        assert job.phases[0].sigma == 0.0


class TestTraceIO:
    def test_roundtrip(self, tmp_path):
        specs = GoogleTraceGenerator(seed=7).generate(25)
        path = tmp_path / "trace.json"
        save_trace(specs, path)
        loaded = load_trace(path)
        assert loaded == specs

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else", "jobs": []}')
        with pytest.raises(ValueError):
            load_trace(path)


class TestJsonlErrors:
    """Hostile stream lines fail when they are read, naming the line by
    its stream ordinal and the field at fault."""

    @staticmethod
    def lines(**bad):
        specs = GoogleTraceGenerator(seed=3).generate(3, mean_interarrival=5.0)
        rows = [spec_to_dict(s) for s in specs]
        for key, value in bad.items():
            if key in ("arrival_time", "job_id"):
                rows[1][key] = value
            else:
                rows[1]["phases"][0][key] = value
        # json writes NaN/Infinity tokens and reads them back as floats.
        return ["", *(json.dumps(r) for r in rows)]

    @pytest.mark.parametrize(
        "name, value",
        [
            ("arrival_time", math.nan),
            ("arrival_time", math.inf),
            ("theta", math.nan),
            ("sigma", math.nan),
            ("cpu", math.nan),
            ("mem", math.inf),
        ],
    )
    def test_non_finite_field_names_line_and_field(self, name, value):
        src = JsonlSource(self.lines(**{name: value}))
        assert src.take().job_id == 0
        with pytest.raises(ValueError, match=f"^JSONL line 1: {name} must be finite"):
            src.take()

    @pytest.mark.parametrize("name", ["cpu", "mem"])
    def test_negative_demand_names_line_and_field(self, name):
        src = JsonlSource(self.lines(**{name: -4.0}))
        assert src.take().job_id == 0
        with pytest.raises(ValueError, match=f"^JSONL line 1: {name} must be non-negative"):
            src.take()

    @pytest.mark.parametrize("value", [2.5, True, "3"])
    def test_non_integer_task_count_names_line_and_field(self, value):
        src = JsonlSource(self.lines(num_tasks=value))
        assert src.take().job_id == 0
        with pytest.raises(ValueError, match="^JSONL line 1: num_tasks must be an integer"):
            src.take()

    @pytest.mark.parametrize("value", ["7", 7.5, True])
    def test_non_integer_job_id_names_line_and_field(self, value):
        # "7" among integer ids used to be admitted and crash mid-run,
        # when priority groups sorted the ids.
        src = JsonlSource(self.lines(job_id=value))
        assert src.take().job_id == 0
        message = f"^JSONL line 1: job_id must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=message):
            src.take()

    @pytest.mark.parametrize("value", [["0"], [0.0], [True], 5, "0"])
    def test_non_integer_parents_name_line_and_field(self, value):
        src = JsonlSource(self.lines(parents=value))
        assert src.take().job_id == 0
        with pytest.raises(ValueError, match="^JSONL line 1: parents must be a list of integers"):
            src.take()

    @pytest.mark.parametrize("value", [[0], [-1], [3]])
    def test_parents_outside_preceding_phases_name_line_and_field(self, value):
        src = JsonlSource(self.lines(parents=value))
        assert src.take().job_id == 0
        message = rf"^JSONL line 1: parents of phase 0 must lie in \[0, 0\), got {value[0]}"
        with pytest.raises(ValueError, match=message):
            src.take()

    @pytest.mark.parametrize("name", ["theta", "sigma", "cpu", "mem"])
    def test_bool_number_names_line_and_field(self, name):
        # true used to run as 1.
        src = JsonlSource(self.lines(**{name: True}))
        assert src.take().job_id == 0
        with pytest.raises(ValueError, match=f"^JSONL line 1: {name} must be a number, got True"):
            src.take()

    def test_all_zero_demand_names_line_and_field(self):
        src = JsonlSource(self.lines(cpu=0.0, mem=0))
        assert src.take().job_id == 0
        with pytest.raises(ValueError, match="^JSONL line 1: cpu and mem must not both be zero"):
            src.take()

    def test_undecodable_line_named(self):
        src = JsonlSource([self.lines()[1], "{oops"])
        src.take()
        with pytest.raises(ValueError, match="^JSONL line 1: Expecting property name"):
            src.take()

    def test_missing_field_named(self):
        src = JsonlSource(['{"name": "a", "phases": []}'])
        with pytest.raises(ValueError, match="^JSONL line 0: missing 'arrival_time'"):
            src.take()
