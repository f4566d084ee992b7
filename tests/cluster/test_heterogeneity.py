"""Tests for the paper's cluster builders."""

import pytest

from repro.cluster.heterogeneity import (
    homogeneous_cluster,
    paper_cluster_30_nodes,
    single_server_cluster,
    trace_sim_cluster,
)
from repro.resources import Resources


class TestPaperCluster:
    def test_node_and_core_counts_match_paper(self):
        c = paper_cluster_30_nodes()
        assert len(c) == 30
        assert c.total_capacity.cpu == 328  # Sec. 6: "a total of 328 cores"

    def test_server_class_mix(self):
        c = paper_cluster_30_nodes()
        cores = sorted(s.capacity.cpu for s in c)
        assert cores.count(24) == 2   # two powerful servers
        assert cores.count(16) == 7   # seven normal servers
        assert cores.count(8) == 21   # the rest

    def test_two_racks(self):
        c = paper_cluster_30_nodes()
        assert c.topology.num_racks == 2
        assert {c.topology.rack(s.server_id) for s in c} == {0, 1}

    def test_heterogeneous_slowdowns(self):
        c = paper_cluster_30_nodes()
        slowdowns = {s.slowdown for s in c}
        assert len(slowdowns) == 3
        assert min(slowdowns) < 1.0 < max(slowdowns)

    def test_normal_servers_memory_range(self):
        c = paper_cluster_30_nodes()
        normal_mem = {s.capacity.mem for s in c if s.capacity.cpu == 16}
        assert normal_mem <= {32.0, 64.0}  # "32-64GB memory"


class TestTraceSimCluster:
    def test_default_size(self):
        c = trace_sim_cluster()
        assert len(c) == 300

    def test_custom_size(self):
        assert len(trace_sim_cluster(50)) == 50

    def test_reproducible(self):
        a = trace_sim_cluster(100, seed=3)
        b = trace_sim_cluster(100, seed=3)
        assert [s.capacity for s in a] == [s.capacity for s in b]

    def test_seed_changes_mix(self):
        a = trace_sim_cluster(100, seed=3)
        b = trace_sim_cluster(100, seed=4)
        assert [s.capacity for s in a] != [s.capacity for s in b]

    def test_cpu_scale_shrinks_cores(self):
        full = trace_sim_cluster(100, seed=1)
        half = trace_sim_cluster(100, seed=1, cpu_scale=0.5)
        assert half.total_capacity.cpu < full.total_capacity.cpu
        assert half.total_capacity.mem == full.total_capacity.mem

    def test_cpu_scale_never_below_one_core(self):
        tiny = trace_sim_cluster(50, seed=1, cpu_scale=0.01)
        assert all(s.capacity.cpu >= 1 for s in tiny)

    def test_rejects_zero_servers(self):
        with pytest.raises(ValueError):
            trace_sim_cluster(0)

    def test_multiple_racks_at_scale(self):
        c = trace_sim_cluster(200, seed=0)
        assert c.topology.num_racks >= 2


class TestSimpleBuilders:
    def test_homogeneous(self):
        c = homogeneous_cluster(5, Resources.of(4, 8))
        assert len(c) == 5
        assert all(s.capacity == Resources.of(4, 8) for s in c)
        assert all(s.slowdown == 1.0 for s in c)

    def test_single_server_default_unit(self):
        c = single_server_cluster()
        assert len(c) == 1
        assert c.total_capacity == Resources.of(1, 1)
