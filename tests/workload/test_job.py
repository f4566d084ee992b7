"""Unit tests for DAG jobs: readiness, progress, metrics, Eqs. 14–17."""

import pickle

import pytest

from repro.resources import Resources
from repro.workload.distributions import Deterministic, ParetoType1
from repro.workload.google_trace import PhaseSpec, TraceJobSpec
from repro.workload.job import Job, PhaseShape
from repro.workload.phase import Phase
from repro.workload.task import TaskCopy
from tests.conftest import (
    all_tasks,
    make_chain_job,
    make_diamond_job,
    make_single_task_job,
)


def finish_task(task, t=1.0):
    copy = TaskCopy(task, 0, 0.0, max(t, 1e-9), is_clone=False)
    task.add_copy(copy)
    copy.finished = True
    task.complete(t)


def finish_phase(phase, t=1.0):
    for task in all_tasks(phase):
        finish_task(task, t)


class TestConstruction:
    def test_requires_phases(self):
        with pytest.raises(ValueError):
            Job([])

    def test_phase_indices_checked(self):
        p = Phase(1, 1, Resources.of(1, 1), Deterministic(1.0))
        with pytest.raises(ValueError):
            Job([p])

    def test_backlink_set(self):
        job = make_chain_job(2, 1)
        assert all(p.job is job for p in job.phases)

    def test_explicit_job_id(self):
        assert make_single_task_job(job_id=777).job_id == 777

    def test_auto_ids_unique(self):
        a, b = make_single_task_job(), make_single_task_job()
        assert a.job_id != b.job_id

    def test_counts(self):
        job = make_chain_job(3, 4)
        assert job.num_phases == 3
        assert job.num_tasks == 12


class TestBuiltFromSpec:
    """A job made from its spec holds the spec until the first read of
    ``phases`` builds the graph (DESIGN.md §5.6)."""

    SPEC = TraceJobSpec(
        "spec-job",
        3.0,
        (
            PhaseSpec(4, 1, 2.0, 10.0, 5.0),
            PhaseSpec(2, 0.5, 0, 6.0, 0.0, parents=(0,)),
        ),
        job_id=12,
    )

    def test_answers_without_building(self):
        job = Job.from_spec(self.SPEC)
        assert (job.job_id, job.name, job.arrival_time) == (12, "spec-job", 3.0)
        assert (job.num_phases, job.num_tasks) == (2, 6)
        assert job.phase_shapes() is self.SPEC.phases
        assert not job.released and job.finish_time is None
        assert "tasks=6" in repr(job)
        assert not job.built

    def test_first_read_builds_once_and_keeps_the_graph(self):
        job = Job.from_spec(self.SPEC)
        phases = job.phases
        assert job.built and job.phases is phases and job.build() is phases
        assert [p.name for p in phases] == ["spec-job-p0", "spec-job-p1"]
        assert all(p.job is job for p in phases)
        assert job.phase_shapes() == [PhaseShape(4, 1.0, 2.0), PhaseShape(2, 0.5, 0.0)]
        assert (job.num_phases, job.num_tasks) == (2, 6)

    def test_pickles_as_its_spec_until_built(self):
        revived = pickle.loads(pickle.dumps(Job.from_spec(self.SPEC), protocol=5))
        assert not revived.built and revived.phase_shapes() == self.SPEC.phases
        assert [p.num_tasks for p in revived.phases] == [4, 2]
        twice = pickle.loads(pickle.dumps(revived, protocol=5))
        assert twice.built and [p.name for p in twice.phases] == ["spec-job-p0", "spec-job-p1"]

    def test_shared_demand_map_shares_vectors(self):
        demands: dict = {}
        a, b = (Job.from_spec(self.SPEC, demands) for _ in range(2))
        assert [p.demand for p in a.phases] == [p.demand for p in b.phases]
        assert all(p.demand is q.demand for p, q in zip(a.phases, b.phases))

    def test_other_missing_attributes_still_raise(self):
        job = Job.from_spec(self.SPEC)
        with pytest.raises(AttributeError, match="no attribute 'tasks'"):
            job.tasks  # noqa: B018
        assert not job.built


class TestReadiness:
    def test_chain_gates_phases(self):
        job = make_chain_job(2, 2)
        assert [p.index for p in job.ready_phases()] == [0]
        assert len(job.ready_tasks()) == 2
        finish_phase(job.phases[0])
        assert [p.index for p in job.ready_phases()] == [1]

    def test_diamond_middle_phases_parallel(self):
        job = make_diamond_job()
        finish_phase(job.phases[0])
        assert [p.index for p in job.ready_phases()] == [1, 2]
        assert len(job.ready_tasks()) == 4

    def test_join_waits_for_all_parents(self):
        job = make_diamond_job()
        finish_phase(job.phases[0])
        finish_phase(job.phases[1])
        assert 3 not in [p.index for p in job.ready_phases()]
        finish_phase(job.phases[2])
        assert [p.index for p in job.ready_phases()] == [3]

    def test_first_ready_phase_skips_fully_launched(self):
        job = make_chain_job(1, 2)
        t = job.phases[0].task(0)
        t.add_copy(TaskCopy(t, 0, 0.0, 5.0, is_clone=False))
        phase = job.first_ready_phase()
        assert phase is job.phases[0]  # still one pending task
        t2 = job.phases[0].task(1)
        t2.add_copy(TaskCopy(t2, 0, 0.0, 5.0, is_clone=False))
        assert job.first_ready_phase() is None  # nothing pending


class TestCompletion:
    def test_finish_lifecycle(self):
        job = make_chain_job(2, 1, arrival_time=5.0)
        assert not job.is_finished
        finish_phase(job.phases[0], t=10.0)
        assert not job.mark_finished_if_done(10.0)
        finish_phase(job.phases[1], t=25.0)
        assert job.mark_finished_if_done(25.0)
        assert job.finish_time == 25.0
        assert job.flowtime == 20.0

    def test_mark_finished_idempotent(self):
        job = make_single_task_job()
        finish_phase(job.phases[0], t=4.0)
        assert job.mark_finished_if_done(4.0)
        assert not job.mark_finished_if_done(9.0)
        assert job.finish_time == 4.0

    def test_flowtime_none_until_done(self):
        job = make_single_task_job()
        assert job.flowtime is None
        assert job.running_time is None

    def test_release_drops_graph_keeps_identity_and_times(self):
        job = make_chain_job(2, 2, arrival_time=5.0, job_id=41)
        phases = list(job.phases)
        with pytest.raises(RuntimeError, match="release before finish"):
            job.release()
        assert not job.released
        for phase in phases:
            finish_phase(phase, t=10.0)
        job.mark_finished_if_done(10.0)
        job.release()
        assert job.released
        assert job.phases == []
        assert all(p.num_tasks == 0 and p.built_tasks() == [] for p in phases)
        assert (job.job_id, job.arrival_time, job.finish_time) == (41, 5.0, 10.0)


class TestEffectiveLengths:
    def test_single_phase(self):
        job = make_single_task_job(theta=10.0, sigma=4.0)
        assert job.effective_length(1.5) == pytest.approx(10.0 + 6.0)

    def test_chain_sums(self):
        job = make_chain_job(3, 1, theta=10.0)
        assert job.effective_length(1.5) == pytest.approx(30.0)

    def test_diamond_takes_critical_branch(self):
        mk = Deterministic
        phases = [
            Phase(0, 1, Resources.of(1, 1), mk(5.0)),
            Phase(1, 1, Resources.of(1, 1), mk(20.0), parents=(0,)),
            Phase(2, 1, Resources.of(1, 1), mk(3.0), parents=(0,)),
            Phase(3, 1, Resources.of(1, 1), mk(2.0), parents=(1, 2)),
        ]
        job = Job(phases)
        assert job.effective_length(0.0) == pytest.approx(27.0)

    def test_remaining_length_shrinks(self):
        job = make_chain_job(3, 1, theta=10.0)
        assert job.remaining_effective_length(0.0) == pytest.approx(30.0)
        finish_phase(job.phases[0])
        assert job.remaining_effective_length(0.0) == pytest.approx(20.0)

    def test_remaining_phases(self):
        job = make_chain_job(2, 1)
        finish_phase(job.phases[0])
        assert [p.index for p in job.remaining_phases()] == [1]


class TestMetrics:
    def test_resource_usage_counts_all_copies(self):
        job = make_single_task_job(cpu=2.0, mem=3.0)
        t = job.phases[0].task(0)
        t.add_copy(TaskCopy(t, 0, 0.0, 10.0, is_clone=False))
        t.add_copy(TaskCopy(t, 1, 0.0, 4.0, is_clone=True))
        # (2+3) * (10+4)
        assert job.resource_usage() == pytest.approx(70.0)

    def test_first_start_time(self):
        job = make_chain_job(1, 2)
        assert job.first_start_time() is None
        t = job.phases[0].task(1)
        t.add_copy(TaskCopy(t, 0, 7.0, 1.0, is_clone=False))
        assert job.first_start_time() == 7.0
