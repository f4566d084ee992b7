"""Unit tests for the volume / effective-length measures (Eqs. 9–17)."""

import pytest

from repro.core.volume import (
    JobMeasure,
    dominant_share,
    job_effective_length,
    job_volume,
    measure_job,
    measure_single_task_job,
    phase_dominant_share,
)
from repro.resources import Resources
from repro.workload.distributions import Deterministic
from repro.workload.job import Job
from repro.workload.phase import Phase
from tests.conftest import make_chain_job
from tests.workload.test_job import finish_phase

TOTAL = Resources.of(100, 200)


class TestDominantShare:
    def test_eq9(self):
        assert dominant_share(Resources.of(10, 10), TOTAL) == pytest.approx(0.1)
        assert dominant_share(Resources.of(1, 100), TOTAL) == pytest.approx(0.5)

    def test_phase_variant(self):
        p = Phase(0, 1, Resources.of(20, 20), Deterministic(1.0))
        Job([p])
        assert phase_dominant_share(p, TOTAL) == pytest.approx(0.2)


class TestJobVolume:
    def test_single_phase_eq14(self):
        # v = n · e · d = 4 · 10 · 0.1
        job = make_chain_job(1, 4, cpu=10.0, mem=10.0, theta=10.0)
        assert job_volume(job, TOTAL, r=1.5) == pytest.approx(4.0)

    def test_multi_phase_sums(self):
        job = make_chain_job(2, 3, cpu=10.0, mem=10.0, theta=10.0)
        assert job_volume(job, TOTAL, r=0.0) == pytest.approx(2 * 3 * 10 * 0.1)

    def test_remaining_only_eq16(self):
        job = make_chain_job(2, 3, cpu=10.0, mem=10.0, theta=10.0)
        finish_phase(job.phases[0])
        v_rem = job_volume(job, TOTAL, r=0.0, remaining_only=True)
        v_all = job_volume(job, TOTAL, r=0.0, remaining_only=False)
        assert v_rem == pytest.approx(v_all / 2)

    def test_partial_phase_counts_unfinished_tasks(self):
        job = make_chain_job(1, 4, cpu=10.0, mem=10.0, theta=10.0)
        job.phases[0].task(0).complete(1.0)
        assert job_volume(job, TOTAL, r=0.0) == pytest.approx(3 * 10 * 0.1)

    def test_deviation_weight_increases_volume(self):
        job = make_chain_job(1, 2, cpu=10.0, mem=10.0, theta=10.0, sigma=4.0)
        assert job_volume(job, TOTAL, r=1.5) > job_volume(job, TOTAL, r=0.0)


class TestEffectiveLength:
    def test_chain_eq17(self):
        job = make_chain_job(3, 2, theta=10.0)
        assert job_effective_length(job, r=0.0) == pytest.approx(30.0)
        finish_phase(job.phases[0])
        assert job_effective_length(job, r=0.0) == pytest.approx(20.0)

    def test_full_length_option(self):
        job = make_chain_job(3, 2, theta=10.0)
        finish_phase(job.phases[0])
        assert (
            job_effective_length(job, r=0.0, remaining_only=False)
            == pytest.approx(30.0)
        )


class TestMeasures:
    def test_measure_job_fields(self):
        job = make_chain_job(2, 3, cpu=10.0, mem=10.0, theta=10.0, job_id=9)
        m = measure_job(job, TOTAL, r=0.0)
        assert m.job_id == 9
        assert m.volume == pytest.approx(6.0)
        assert m.length == pytest.approx(20.0)
        assert m.max_dominant_share == pytest.approx(0.1)

    def test_measure_single_task_eq10(self):
        m = measure_single_task_job(1, Resources.of(10, 10), 7.0, TOTAL)
        assert m.volume == pytest.approx(0.7)  # d·θ
        assert m.length == pytest.approx(7.0)

    def test_negative_measure_rejected(self):
        with pytest.raises(ValueError):
            JobMeasure(job_id=0, volume=-1.0, length=1.0, max_dominant_share=0.1)

    def test_finished_phase_excluded_from_max_share(self):
        # Phase 0 has the big demand; once finished, max share drops.
        phases = [
            Phase(0, 1, Resources.of(50, 50), Deterministic(1.0)),
            Phase(1, 1, Resources.of(10, 10), Deterministic(1.0), parents=(0,)),
        ]
        job = Job(phases)
        finish_phase(job.phases[0])
        m = measure_job(job, TOTAL, r=0.0)
        assert m.max_dominant_share == pytest.approx(0.1)
