"""Tests for the AM statistics estimation (Sec. 5.2)."""

import pytest

from repro.cluster.heterogeneity import homogeneous_cluster
from repro.core.estimation import EstimatingDollyMPScheduler, PhaseStatsEstimator
from repro.core.online import DollyMPScheduler
from repro.resources import Resources
from repro.sim.runner import run_simulation
from repro.workload.distributions import Deterministic, ParetoType1
from repro.workload.job import Job
from repro.workload.phase import Phase
from repro.workload.task import TaskCopy
from tests.conftest import all_tasks, make_chain_job


def finished_phase_with_durations(durations, name="map", job_name="jobA"):
    phase = Phase(0, len(durations), Resources.of(1, 1), Deterministic(999.0), name=name)
    job = Job([phase], name=job_name)
    for task, d in zip(all_tasks(phase), durations):
        c = TaskCopy(task, 0, 0.0, d, is_clone=False)
        task.add_copy(c)
        c.finished = True
        task.complete(d)
    return job, phase


class TestValidation:
    def test_params(self):
        with pytest.raises(ValueError):
            PhaseStatsEstimator(min_task_samples=0)
        with pytest.raises(ValueError):
            PhaseStatsEstimator(max_history=1)
        with pytest.raises(ValueError):
            PhaseStatsEstimator(default_cv=-0.1)


class TestTiers:
    def test_tier3_falls_back_to_hint(self):
        est = PhaseStatsEstimator()
        phase = Phase(0, 4, Resources.of(1, 1), ParetoType1.from_moments(30.0, 12.0))
        job = Job([phase], name="fresh")
        theta, sigma = est.estimate(job, phase)
        assert theta == pytest.approx(30.0)
        assert sigma == pytest.approx(12.0)

    def test_tier3_default_cv_for_deterministic_hint(self):
        est = PhaseStatsEstimator(default_cv=0.5)
        phase = Phase(0, 1, Resources.of(1, 1), Deterministic(10.0))
        job = Job([phase], name="fresh")
        theta, sigma = est.estimate(job, phase)
        assert (theta, sigma) == (10.0, 5.0)

    def test_tier2_uses_current_phase_samples(self):
        est = PhaseStatsEstimator(min_task_samples=3)
        job, phase = finished_phase_with_durations([10.0, 12.0, 14.0])
        theta, sigma = est.estimate(job, phase)
        assert theta == pytest.approx(12.0)
        assert sigma == pytest.approx(2.0)  # sample std

    def test_tier1_uses_recurring_history(self):
        est = PhaseStatsEstimator(min_task_samples=3)
        # A prior run of "jobA" completes; record its tasks.
        prior, prior_phase = finished_phase_with_durations([20.0, 20.0, 20.0])
        for t in prior_phase.built_tasks():
            est.record_task(t)
        # A new submission of the same recurring job: no tasks done yet.
        fresh_phase = Phase(0, 5, Resources.of(1, 1), Deterministic(999.0), name="map")
        fresh = Job([fresh_phase], name="jobA")
        theta, sigma = est.estimate(fresh, fresh_phase)
        assert theta == pytest.approx(20.0)  # history, not the 999 hint

    def test_current_phase_beats_history(self):
        est = PhaseStatsEstimator(min_task_samples=2)
        prior, prior_phase = finished_phase_with_durations([50.0, 50.0], job_name="J")
        for t in prior_phase.built_tasks():
            est.record_task(t)
        job, phase = finished_phase_with_durations([10.0, 10.0], job_name="J")
        theta, _ = est.estimate(job, phase)
        assert theta == pytest.approx(10.0)

    def test_history_bounded(self):
        est = PhaseStatsEstimator(max_history=4)
        job, phase = finished_phase_with_durations([1.0] * 10, job_name="H")
        for t in phase.built_tasks():
            est.record_task(t)
        assert est.history_size(job, phase) == 4

    def test_different_job_names_do_not_share_history(self):
        est = PhaseStatsEstimator(min_task_samples=1)
        prior, prior_phase = finished_phase_with_durations([5.0], job_name="A")
        est.record_task(prior_phase.task(0))
        other_phase = Phase(0, 1, Resources.of(1, 1), Deterministic(99.0), name="map")
        other = Job([other_phase], name="B")
        theta, _ = est.estimate(other, other_phase)
        assert theta == pytest.approx(99.0)  # falls back to hint


class TestMeasure:
    def test_measure_matches_truth_when_hinted(self):
        from repro.core.volume import measure_job

        est = PhaseStatsEstimator()
        job = make_chain_job(2, 3, cpu=10.0, mem=10.0, theta=10.0, sigma=4.0)
        total = Resources.of(100, 200)
        m_est = est.measure_job(job, total, r=1.5)
        m_true = measure_job(job, total, r=1.5)
        assert m_est.volume == pytest.approx(m_true.volume)
        assert m_est.length == pytest.approx(m_true.length)


class TestEstimatingScheduler:
    def test_completes_workload(self):
        cluster = homogeneous_cluster(2, Resources.of(8, 16))
        jobs = [
            make_chain_job(2, 4, theta=8.0, sigma=3.0, arrival_time=10.0 * k, job_id=k)
            for k in range(6)
        ]
        res = run_simulation(
            cluster, EstimatingDollyMPScheduler(max_clones=2), jobs, seed=5, max_time=1e6
        )
        assert res.num_jobs == 6
        assert res.scheduler_name == "EstimatingDollyMP^2"

    def test_close_to_clairvoyant_on_recurring_workload(self):
        """With recurring jobs, estimated stats converge and performance
        approaches the ground-truth scheduler's."""

        def make_jobs():
            return [
                make_chain_job(
                    1, 6, theta=10.0, sigma=4.0, arrival_time=25.0 * k,
                    job_id=k, name="recurring-wc",
                )
                for k in range(20)
            ]

        def run_with(sched):
            return run_simulation(
                homogeneous_cluster(2, Resources.of(8, 16)),
                sched,
                make_jobs(),
                seed=8,
                max_time=1e6,
            )

        truth = run_with(DollyMPScheduler(max_clones=2))
        estimated = run_with(EstimatingDollyMPScheduler(max_clones=2))
        assert estimated.total_flowtime <= 1.25 * truth.total_flowtime
