"""Unit tests for per-server allocation bookkeeping.

A server is a view of its cluster's state arrays (``Cluster[i]``), so
every case builds a one-server cluster and works through the view.
"""

import pytest

from repro.cluster.cluster import Cluster
from repro.resources import Resources, ZERO
from repro.workload.distributions import Deterministic
from repro.workload.job import Job
from repro.workload.phase import Phase
from repro.workload.task import TaskCopy


def make_task(cpu=2.0, mem=4.0, theta=10.0):
    phase = Phase(0, 1, Resources.of(cpu, mem), Deterministic(theta))
    Job([phase])
    return phase.task(0)


def make_copy(task, server_id=0, start=0.0, duration=10.0, clone=False):
    return TaskCopy(task, server_id, start, duration, is_clone=clone)


def one_server(capacity):
    """Server 0 of a one-server cluster."""
    return Cluster.build([(capacity, 1.0)])[0]


class TestConstruction:
    def test_basic(self):
        s = one_server(Resources.of(8, 16))
        assert s.capacity == Resources.of(8, 16)
        assert s.allocated == ZERO
        assert s.available == Resources.of(8, 16)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            Cluster.build([(Resources.of(0, 16), 1.0)])
        with pytest.raises(ValueError):
            Cluster.build([(Resources.of(8, -1), 1.0)])

    def test_rejects_nonpositive_slowdown(self):
        with pytest.raises(ValueError):
            Cluster.build([(Resources.of(8, 16), 0.0)])


class TestAllocation:
    def test_allocate_reserves(self):
        s = one_server(Resources.of(8, 16))
        copy = make_copy(make_task(2, 4))
        s.allocate(copy)
        assert s.allocated == Resources.of(2, 4)
        assert s.available == Resources.of(6, 12)
        assert copy in s.running_copies

    def test_allocate_overflow_raises(self):
        s = one_server(Resources.of(2, 4))
        t = make_task(2, 4)
        s.allocate(make_copy(t))
        with pytest.raises(RuntimeError):
            s.allocate(make_copy(make_task(1, 1)))

    def test_double_allocate_same_copy_raises(self):
        s = one_server(Resources.of(8, 16))
        copy = make_copy(make_task(1, 1))
        s.allocate(copy)
        with pytest.raises(RuntimeError):
            s.allocate(copy)

    def test_release_frees(self):
        s = one_server(Resources.of(8, 16))
        copy = make_copy(make_task(2, 4))
        s.allocate(copy)
        s.release(copy)
        assert s.allocated == ZERO
        assert copy not in s.running_copies

    def test_release_unknown_raises(self):
        s = one_server(Resources.of(8, 16))
        with pytest.raises(RuntimeError):
            s.release(make_copy(make_task()))

    def test_idle_server_snaps_to_exact_zero(self):
        s = one_server(Resources.of(8, 16))
        copies = [make_copy(make_task(0.1, 0.3)) for _ in range(7)]
        for c in copies:
            s.allocate(c)
        for c in copies:
            s.release(c)
        assert s.allocated == ZERO  # exact, no float residue

    def test_can_fit(self):
        s = one_server(Resources.of(8, 16))
        s.allocate(make_copy(make_task(6, 6)))
        assert s.can_fit(Resources.of(2, 10))
        assert not s.can_fit(Resources.of(3, 1))

    def test_utilization(self):
        s = one_server(Resources.of(8, 16))
        s.allocate(make_copy(make_task(4, 4)))
        u = s.utilization()
        assert u.cpu == pytest.approx(0.5)
        assert u.mem == pytest.approx(0.25)
