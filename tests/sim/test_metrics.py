"""Unit tests for per-job records and aggregate results."""

import pytest

from repro.cluster.heterogeneity import homogeneous_cluster
from repro.resources import Resources
from repro.schedulers.fifo import FIFOScheduler
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import JobRecord, record_for_job
from repro.workload.task import TaskCopy
from tests.conftest import make_chain_job, make_single_task_job


def finished_record(**kw):
    return JobRecord(
        job_id=kw.get("job_id", 0),
        name=kw.get("name", "j"),
        arrival_time=kw.get("arrival_time", 0.0),
        first_start_time=kw.get("first_start_time", 2.0),
        finish_time=kw.get("finish_time", 12.0),
        num_phases=1,
        num_tasks=kw.get("num_tasks", 1),
        num_copies=kw.get("num_copies", 1),
        num_clones=kw.get("num_clones", 0),
        tasks_with_clones=kw.get("tasks_with_clones", 0),
        cpu_seconds=kw.get("cpu_seconds", 10.0),
        mem_seconds=kw.get("mem_seconds", 20.0),
    )


class TestJobRecord:
    def test_derived_metrics(self):
        r = finished_record(arrival_time=1.0, first_start_time=3.0, finish_time=13.0)
        assert r.flowtime == 12.0
        assert r.running_time == 10.0
        assert r.wait_time == 2.0

    def test_normalized_usage(self):
        r = finished_record(cpu_seconds=10.0, mem_seconds=40.0)
        assert r.normalized_usage(Resources.of(100, 200)) == pytest.approx(0.3)


class TestRecordForJob:
    def test_unfinished_job_rejected(self):
        with pytest.raises(ValueError):
            record_for_job(make_single_task_job())

    def test_counts_copies_and_clones(self):
        job = make_single_task_job(cpu=2.0, mem=4.0)
        task = job.phases[0].task(0)
        a = TaskCopy(task, 0, 0.0, 10.0, is_clone=False)
        b = TaskCopy(task, 1, 0.0, 6.0, is_clone=True)
        task.add_copy(a)
        task.add_copy(b)
        b.finished = True
        a.killed = True
        a.duration = 6.0
        task.complete(6.0)
        job.mark_finished_if_done(6.0)
        rec = record_for_job(job)
        assert rec.num_copies == 2
        assert rec.num_clones == 1
        assert rec.tasks_with_clones == 1
        assert rec.cpu_seconds == pytest.approx(2.0 * 12.0)
        assert rec.mem_seconds == pytest.approx(4.0 * 12.0)


class TestSimulationResult:
    @pytest.fixture
    def result(self):
        cluster = homogeneous_cluster(2, Resources.of(8, 16))
        jobs = [
            make_chain_job(1, 4, theta=10.0, job_id=k, arrival_time=5.0 * k)
            for k in range(3)
        ]
        engine = SimulationEngine(cluster, FIFOScheduler(), jobs, max_time=1e5)
        return engine.run()

    def test_vectors_sorted_by_job_id(self, result):
        assert [r.job_id for r in result.records] == [0, 1, 2]
        assert len(result.flowtimes()) == 3

    def test_aggregates_consistent(self, result):
        assert result.total_flowtime == pytest.approx(result.flowtimes().sum())
        assert result.mean_flowtime == pytest.approx(result.flowtimes().mean())
        assert result.num_jobs == 3

    def test_makespan(self, result):
        finish = max(r.finish_time for r in result.records)
        assert result.makespan == pytest.approx(finish - 0.0)

    def test_clone_task_fraction_zero_without_clones(self, result):
        assert result.clone_task_fraction == 0.0

    def test_cumulative_flowtime_series(self, result):
        idx, cum = result.cumulative_flowtime_series()
        assert list(idx) == [1, 2, 3]
        assert cum[-1] == pytest.approx(result.total_flowtime)
        assert all(b >= a for a, b in zip(cum, cum[1:]))

    def test_summary_keys(self, result):
        s = result.summary()
        for key in (
            "jobs",
            "total_flowtime",
            "mean_flowtime",
            "makespan",
            "total_usage",
            "clone_task_fraction",
        ):
            assert key in s

    def test_overhead_stats(self, result):
        assert result.mean_schedule_pass_ms >= 0.0
        assert result.max_schedule_pass_ms >= result.mean_schedule_pass_ms
