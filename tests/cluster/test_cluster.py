"""Unit tests for Cluster aggregates and queries."""

import functools
import operator

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.topology import Topology
from repro.resources import Resources, ZERO
from tests.cluster.test_server import make_copy, make_task


def two_server_cluster():
    return Cluster.build([(Resources.of(8, 16), 1.0), (Resources.of(4, 32), 1.0)])


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Cluster.build([])

    def test_ids_must_be_sequential(self):
        # Ids are array positions: 0..n-1 in order, nothing else exists.
        c = Cluster.build([(Resources.of(1, 1), 1.0)] * 3)
        assert [s.server_id for s in c] == [0, 1, 2]
        assert c[-1].server_id == 2
        with pytest.raises(IndexError):
            c[3]
        with pytest.raises(ValueError):
            Cluster([1.0, 1.0], [1.0])  # one capacity pair per server

    def test_topology_size_checked(self):
        with pytest.raises(ValueError):
            Cluster.build([(Resources.of(1, 1), 1.0)], Topology([0, 0]))

    def test_default_topology_single_rack(self):
        c = two_server_cluster()
        assert c.topology.num_racks == 1

    def test_build_from_specs(self):
        c = Cluster.build([(Resources.of(8, 16), 1.0), (Resources.of(4, 8), 1.5)])
        assert len(c) == 2
        assert c[1].slowdown == 1.5


class TestAggregates:
    def test_total_capacity(self):
        c = two_server_cluster()
        assert c.total_capacity == Resources.of(12, 48)

    @pytest.mark.parametrize("n", [1, 2, 1_000, 100_000])
    def test_total_capacity_is_a_left_fold(self, n):
        # Non-integer capacities, so the order of the additions shows in
        # the last ulp: the totals must be the plain left-to-right fold
        # in id order, not np.sum's pairwise sum or a compensated sum()
        # (Python 3.12's).
        rng = np.random.default_rng(n)
        cpu = rng.uniform(0.5, 64.0, n)
        mem = rng.uniform(0.5, 512.0, n)
        total = Cluster(cpu, mem).total_capacity
        assert total.cpu == functools.reduce(operator.add, cpu.tolist())
        assert total.mem == functools.reduce(operator.add, mem.tolist())

    def test_total_allocated_and_available(self):
        c = two_server_cluster()
        c[0].allocate(make_copy(make_task(2, 4)))
        assert c.total_allocated() == Resources.of(2, 4)
        assert c.total_available() == Resources.of(10, 44)

    def test_utilization(self):
        c = two_server_cluster()
        c[0].allocate(make_copy(make_task(6, 12)))
        u = c.utilization()
        assert u.cpu == pytest.approx(6 / 12)
        assert u.mem == pytest.approx(12 / 48)

    def test_running_copy_count(self):
        c = two_server_cluster()
        assert c.running_copy_count() == 0
        c[0].allocate(make_copy(make_task(1, 1)))
        c[1].allocate(make_copy(make_task(1, 1)))
        assert c.running_copy_count() == 2


class TestQueries:
    def test_best_fit_prefers_max_alignment(self):
        c = two_server_cluster()
        # Demand (1, 8): dot with (8,16)=8+128=136; with (4,32)=4+256=260.
        best = c.best_fit_server(Resources.of(1, 8))
        assert best is not None and best.server_id == 1

    def test_best_fit_none_when_nothing_fits(self):
        c = two_server_cluster()
        assert c.best_fit_server(Resources.of(100, 1)) is None

    def test_best_fit_respects_current_allocation(self):
        c = two_server_cluster()
        c[1].allocate(make_copy(make_task(4, 1)))  # server 1 out of CPU
        best = c.best_fit_server(Resources.of(1, 8))
        assert best is not None and best.server_id == 0

    def test_iteration_order(self):
        c = two_server_cluster()
        assert [s.server_id for s in c] == [0, 1]


def identical_cluster(n=4):
    return Cluster.build([(Resources.of(8, 16), 1.0)] * n)


def best_id(cluster, demand):
    best = cluster.best_fit_server(demand)
    return None if best is None else best.server_id


class TestTieBreaking:
    """Equal alignment scores must resolve to the *lowest* server id in
    production and in the reference loop (``np.argmax`` returns the
    first maximal index; the loop's strict ``>`` keeps the first
    maximum)."""

    @pytest.mark.parametrize("reference", [True, False])
    def test_all_equal_picks_server_zero(self, reference_kernels, reference):
        if reference:
            reference_kernels("best-fit")
        assert best_id(identical_cluster(), Resources.of(2, 4)) == 0

    @pytest.mark.parametrize("reference", [True, False])
    def test_tie_after_loading_lowest_wins(self, reference_kernels, reference):
        if reference:
            reference_kernels("best-fit")
        c = identical_cluster()
        # Load servers 0 and 1 identically: 2 and 3 now tie for best.
        c[0].allocate(make_copy(make_task(4, 8), server_id=0))
        c[1].allocate(make_copy(make_task(4, 8), server_id=1))
        assert best_id(c, Resources.of(2, 4)) == 2

    def test_both_modes_agree_on_every_query(self, reference_kernels):
        c = identical_cluster()
        c[1].allocate(make_copy(make_task(3, 6), server_id=1))
        c[3].allocate(make_copy(make_task(3, 6), server_id=3))
        demands = (Resources.of(2, 4), Resources.of(5, 10), Resources.of(8, 16))
        production = [best_id(c, d) for d in demands]
        reference_kernels("best-fit")
        assert [best_id(c, d) for d in demands] == production
