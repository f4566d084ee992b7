"""Unit tests for arrival processes and the job-list source."""

import pickle

import numpy as np
import pytest

from repro.workload.arrivals import (
    StaticSource,
    arrivals_from_list,
    fixed_interarrival,
    poisson_arrivals,
)
from tests.conftest import make_single_task_job


class TestFixed:
    def test_exact_gaps(self):
        assert fixed_interarrival(4, 10.0) == [0.0, 10.0, 20.0, 30.0]

    def test_start_offset(self):
        assert fixed_interarrival(2, 5.0, start=100.0) == [100.0, 105.0]

    def test_jitter_keeps_monotone(self):
        times = fixed_interarrival(
            50, 10.0, jitter=0.4, rng=np.random.default_rng(0)
        )
        assert all(b >= a for a, b in zip(times, times[1:]))
        assert times != fixed_interarrival(50, 10.0)

    def test_jitter_reproducible(self):
        a = fixed_interarrival(10, 5.0, jitter=0.2, rng=np.random.default_rng(3))
        b = fixed_interarrival(10, 5.0, jitter=0.2, rng=np.random.default_rng(3))
        assert a == b

    def test_empty(self):
        assert fixed_interarrival(0, 10.0) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            fixed_interarrival(-1, 1.0)
        with pytest.raises(ValueError):
            fixed_interarrival(1, -1.0)
        with pytest.raises(ValueError):
            fixed_interarrival(1, 1.0, jitter=1.0)


class TestPoisson:
    def test_count_and_monotone(self):
        times = poisson_arrivals(100, rate=0.1, rng=np.random.default_rng(1))
        assert len(times) == 100
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_mean_gap_close_to_rate(self):
        times = poisson_arrivals(20_000, rate=0.5, rng=np.random.default_rng(2))
        gaps = np.diff([0.0] + times)
        assert gaps.mean() == pytest.approx(2.0, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_arrivals(1, rate=0.0)
        with pytest.raises(ValueError):
            poisson_arrivals(-1, rate=1.0)


class TestExplicit:
    def test_passthrough(self):
        assert arrivals_from_list([0, 1.5, 3]) == [0.0, 1.5, 3.0]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            arrivals_from_list([-1.0])

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            arrivals_from_list([0.0, 2.0, 1.0])


class TestStaticSource:
    def test_hands_out_one_job_per_take_in_stable_arrival_order(self):
        a = make_single_task_job(arrival_time=5.0, job_id=1)
        b = make_single_task_job(arrival_time=0.0, job_id=2)
        c = make_single_task_job(arrival_time=5.0, job_id=3)
        source = StaticSource([a, b, c])
        assert list(source.remaining()) == [b, a, c]
        assert source.take() is b
        assert list(source.remaining()) == [a, c]
        assert (source.consumed, source.exhausted) == (1, False)
        assert [source.take(), source.take(), source.take()] == [a, c, None]
        assert (source.consumed, source.exhausted) == (3, True)

    def test_pickles_only_the_jobs_not_taken(self):
        jobs = [make_single_task_job(arrival_time=float(t), job_id=t) for t in range(3)]
        source = StaticSource(jobs)
        source.take()
        assert source.__getstate__()["_jobs"] == jobs[1:]
        revived = pickle.loads(pickle.dumps(source))
        assert [j.job_id for j in revived.remaining()] == [1, 2]
        assert (revived.consumed, revived.exhausted) == (1, False)
        assert [revived.take().job_id, revived.take().job_id] == [1, 2]
        assert (revived.take(), revived.consumed, revived.exhausted) == (None, 3, True)
