"""Unit tests for the high-level runner API."""

import pytest

from repro.cluster.heterogeneity import homogeneous_cluster
from repro.resources import Resources
from repro.schedulers.fifo import FIFOScheduler
from repro.schedulers.srpt import SRPTScheduler
from repro.sim.runner import compare_schedulers, run_simulation
from tests.conftest import make_single_task_job


class TestRunSimulation:
    def test_returns_result(self):
        cluster = homogeneous_cluster(1, Resources.of(4, 8))
        res = run_simulation(cluster, FIFOScheduler(), [make_single_task_job()])
        assert res.num_jobs == 1
        assert res.scheduler_name == "FIFO"

    def test_seed_reproducibility(self):
        def go():
            return run_simulation(
                homogeneous_cluster(1, Resources.of(4, 8)),
                FIFOScheduler(),
                [make_single_task_job(sigma=5.0, job_id=1)],
                seed=9,
            ).records[0].finish_time

        assert go() == go()


class TestCompareSchedulers:
    def test_runs_each_policy_on_fresh_workload(self):
        results = compare_schedulers(
            lambda: homogeneous_cluster(1, Resources.of(4, 8)),
            lambda: [
                make_single_task_job(theta=10.0, job_id=1),
                make_single_task_job(theta=1.0, arrival_time=0.0, job_id=2),
            ],
            {
                "fifo": FIFOScheduler,
                "srpt": SRPTScheduler,
            },
            seed=1,
        )
        assert set(results) == {"fifo", "srpt"}
        # SRPT should not lose to FIFO on this instance.
        assert results["srpt"].total_flowtime <= results["fifo"].total_flowtime

    def test_same_seed_same_durations(self):
        """Both policies see identical duration draws where placements
        coincide: a single job placed identically finishes identically."""
        results = compare_schedulers(
            lambda: homogeneous_cluster(1, Resources.of(4, 8)),
            lambda: [make_single_task_job(sigma=5.0, job_id=1)],
            {"a": FIFOScheduler, "b": SRPTScheduler},
            seed=4,
        )
        assert results["a"].records[0].finish_time == pytest.approx(
            results["b"].records[0].finish_time
        )


def _mk_cluster():
    return homogeneous_cluster(2, Resources.of(4, 8))


def _mk_jobs():
    return [
        make_single_task_job(theta=10.0, sigma=4.0, job_id=1),
        make_single_task_job(theta=2.0, sigma=1.0, arrival_time=1.0, job_id=2),
        make_single_task_job(theta=6.0, sigma=2.0, arrival_time=2.0, job_id=3),
    ]


class TestParallelSweeps:
    SCHEDS = {"fifo": FIFOScheduler, "srpt": SRPTScheduler}

    def test_seeds_sweep_shape(self):
        results = compare_schedulers(
            _mk_cluster, _mk_jobs, self.SCHEDS, seeds=[1, 2, 3]
        )
        assert set(results) == {"fifo", "srpt"}
        for per_seed in results.values():
            assert set(per_seed) == {1, 2, 3}

    def test_single_seed_keeps_historical_shape(self):
        results = compare_schedulers(_mk_cluster, _mk_jobs, self.SCHEDS, seed=7)
        # seeds=None: flat {name: result}.
        assert results["fifo"].num_jobs == 3

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            compare_schedulers(_mk_cluster, _mk_jobs, self.SCHEDS, seeds=[])
