"""Unit tests for phases (θ, σ, effective time, progress tracking)."""

import pytest

from repro.resources import Resources
from repro.workload.distributions import Deterministic, ParetoType1
from repro.workload.phase import Phase
from repro.workload.speedup import NoSpeedup, ParetoSpeedup
from repro.workload.job import Job
from repro.workload.task import TaskCopy, TaskState


def make_phase(num_tasks=3, theta=10.0, sigma=0.0):
    dist = ParetoType1.from_moments(theta, sigma) if sigma > 0 else Deterministic(theta)
    p = Phase(0, num_tasks, Resources.of(1, 2), dist)
    Job([p])
    return p


class TestConstruction:
    def test_rejects_zero_tasks(self):
        with pytest.raises(ValueError):
            Phase(0, 0, Resources.of(1, 1), Deterministic(1.0))

    def test_rejects_zero_demand(self):
        with pytest.raises(ValueError):
            Phase(0, 1, Resources.of(0, 0), Deterministic(1.0))

    @pytest.mark.parametrize("cpu, mem", [(-4.0, 2.0), (1.0, -0.5)])
    def test_rejects_negative_demand(self, cpu, mem):
        field = "cpu" if cpu < 0 else "mem"
        with pytest.raises(ValueError, match=f"^demand {field} must be non-negative"):
            Phase(0, 1, Resources.of(cpu, mem), Deterministic(1.0))

    @pytest.mark.parametrize("n", [True, 2.5])
    def test_rejects_non_integer_task_count(self, n):
        # True used to build a 1-task phase; 2.5 failed inside range().
        with pytest.raises(ValueError, match=f"^num_tasks must be an integer, got {n!r}"):
            Phase(0, n, Resources.of(1, 1), Deterministic(1.0))

    def test_rejects_forward_parents(self):
        with pytest.raises(ValueError):
            Phase(1, 1, Resources.of(1, 1), Deterministic(1.0), parents=(1,))

    @pytest.mark.parametrize("bad", [0.5, 0.0, True, "0"])
    def test_rejects_non_integer_parent(self, bad):
        # 0.5 used to pass here and fail only in the job's Kahn sort.
        with pytest.raises(ValueError, match=f"^parent {bad!r} must be an integer"):
            Phase(2, 1, Resources.of(1, 1), Deterministic(1.0), parents=(0, bad))

    def test_parents_sorted_and_deduped(self):
        p = Phase(3, 1, Resources.of(1, 1), Deterministic(1.0), parents=(2, 0, 2))
        assert p.parents == (0, 2)

    def test_default_name(self):
        assert make_phase().name == "phase0"


class TestStatistics:
    def test_theta_sigma_from_distribution(self):
        p = make_phase(theta=20.0, sigma=8.0)
        assert p.theta == pytest.approx(20.0)
        assert p.sigma == pytest.approx(8.0)

    def test_effective_time(self):
        p = make_phase(theta=20.0, sigma=8.0)
        assert p.effective_time(1.5) == pytest.approx(20.0 + 1.5 * 8.0)

    def test_effective_time_deterministic_equals_theta(self):
        p = make_phase(theta=20.0)
        assert p.effective_time(1.5) == 20.0

    def test_default_speedup_pareto_for_stochastic(self):
        p = make_phase(theta=10.0, sigma=4.0)
        assert isinstance(p.speedup, ParetoSpeedup)

    def test_default_speedup_none_for_deterministic(self):
        p = make_phase(theta=10.0)
        assert isinstance(p.speedup, NoSpeedup)

    def test_explicit_speedup_kept(self):
        h = ParetoSpeedup(2.0)
        p = Phase(0, 1, Resources.of(1, 1), Deterministic(1.0), speedup=h)
        assert p.speedup is h

    def test_default_speedup_fitted_on_first_read(self):
        p = make_phase(theta=10.0, sigma=4.0)
        assert p._speedup is None
        h = p.speedup
        assert p.speedup is h
        want = ParetoSpeedup.from_moments(10.0, p.distribution.std)
        assert h.alpha.hex() == want.alpha.hex()


class TestProgress:
    def test_initial(self):
        p = make_phase(3)
        assert p.num_unfinished == 3
        assert not p.is_finished
        assert p.finish_time() is None
        assert p.pending_indices() == [0, 1, 2]

    def test_running_partition(self):
        p = make_phase(3)
        t = p.task(0)
        t.add_copy(TaskCopy(t, 0, 0.0, 5.0, is_clone=False))
        assert p.running_tasks() == [t]
        assert p.pending_indices() == [1, 2]

    def test_finish_tracking(self):
        p = make_phase(2)
        p.task(0).complete(3.0)
        assert p.num_unfinished == 1
        p.task(1).complete(7.0)
        assert p.is_finished
        assert p.finish_time() == 7.0  # λ = max over tasks
        assert all(t.state is TaskState.FINISHED for t in p.built_tasks())


class TestTaskSlots:
    """A phase builds a task the first time it is asked for it."""

    def test_built_once_on_first_request(self):
        p = make_phase(4)
        assert p.built_tasks() == [] and p.num_pending == 4
        t = p.task(2)
        assert p.task(2) is t and t.index == 2 and t.uid == (p.job.job_id, 0, 2)
        assert t.state is TaskState.PENDING
        assert p.built_tasks() == [t]
        # A built, unlaunched task is still pending like the unbuilt ones.
        assert p.pending_indices() == [0, 1, 2, 3]

    def test_pending_indices_build_nothing(self):
        p = make_phase(5)
        for i in (3, 1):
            t = p.task(i)
            t.add_copy(TaskCopy(t, 0, 0.0, 5.0, is_clone=False))
        assert p.pending_indices() == [0, 2, 4]
        assert [t.index for t in p.built_tasks()] == [1, 3]
        assert [t.index for t in p.running_tasks()] == [1, 3]

    def test_index_out_of_range(self):
        p = make_phase(2)
        for i in (-1, 2):
            with pytest.raises(IndexError):
                p.task(i)
        assert p.built_tasks() == []
