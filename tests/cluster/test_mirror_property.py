"""Property tests: the mirror's arrays always equal their derivation.

Allocation is written in place (one add or clamp per allocate/release)
and availability derived from it; these tests drive arbitrary operation
sequences — including the engine's clone first-copy-wins kill path —
and assert every availability entry is bit-identical to its derivation
from allocation, capacity and up flag, and (for direct operation
sequences) that allocation and availability equal an independent
per-server model using the same float expressions.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.cluster.heterogeneity import paper_cluster_30_nodes
from repro.core.online import DollyMPScheduler
from repro.resources import Resources
from repro.sim.runner import run_simulation
from repro.workload.mapreduce import wordcount_job
from tests.cluster.test_server import make_copy, make_task


def assert_mirror_fresh(cluster: Cluster) -> None:
    """Stored availability equals its derivation bit for bit (no
    tolerance), idle servers allocate exactly zero and the block bounds
    hold."""
    mirror = cluster.mirror
    derived = mirror.derived_availability()
    for field, truth in zip(("avail_cpu", "avail_mem"), derived):
        assert np.array_equal(getattr(mirror, field), truth), field
    idle = np.ones(len(mirror), dtype=bool)
    idle[list(mirror.resident)] = False
    assert not mirror.alloc_cpu[idle].any() and not mirror.alloc_mem[idle].any()
    assert mirror.loose_bounds() == []


class ServerModel:
    """Per-server allocation bookkeeping in plain floats, with the
    expressions the mirror must reproduce: add on allocate, clamp on
    release, snap to exactly zero when the last copy leaves."""

    def __init__(self, cap: Resources) -> None:
        self.cap = cap
        self.cpu = self.mem = 0.0
        self.copies: list = []

    def allocate(self, copy) -> None:
        self.copies.append(copy)
        self.cpu += copy.task.demand.cpu
        self.mem += copy.task.demand.mem

    def release(self, copy) -> None:
        self.copies.remove(copy)
        if not self.copies:
            self.cpu = self.mem = 0.0
        else:
            self.cpu = max(self.cpu - copy.task.demand.cpu, 0.0)
            self.mem = max(self.mem - copy.task.demand.mem, 0.0)

    def state(self) -> tuple[float, float, float, float]:
        return (
            self.cpu,
            self.mem,
            max(self.cap.cpu - self.cpu, 0.0),
            max(self.cap.mem - self.mem, 0.0),
        )


CAPS = [
    (Resources.of(8, 16), 1.0),
    (Resources.of(4, 8), 1.0),
    (Resources.of(16, 8), 1.5),
    (Resources.of(6, 6), 1.0),
]


def assert_matches_model(cluster: Cluster, models: list[ServerModel]) -> None:
    m = cluster.mirror
    for i, model in enumerate(models):
        stored = (m.alloc_cpu[i], m.alloc_mem[i], m.avail_cpu[i], m.avail_mem[i])
        assert stored == model.state(), i


@given(ops=st.lists(st.integers(min_value=0, max_value=10**9), max_size=80))
@settings(max_examples=60, deadline=None)
def test_mirror_matches_recompute_after_arbitrary_ops(ops):
    """Arbitrary interleavings of allocate and release (kill/finish both
    reduce to a release) keep the mirror exact."""
    cluster = Cluster.build(CAPS)
    models = [ServerModel(cap) for cap, _ in CAPS]
    running: list[tuple[int, object]] = []
    for op in ops:
        if op % 3 == 0 and running:
            sid, copy = running.pop(op % len(running))
            cluster[sid].release(copy)
            models[sid].release(copy)
        else:
            sid = op % len(cluster)
            server = cluster[sid]
            task = make_task(cpu=1.0 + op % 5, mem=1.0 + op % 7)
            if server.can_fit(task.demand):
                copy = make_copy(task, server_id=sid, duration=5.0)
                server.allocate(copy)
                models[sid].allocate(copy)
                running.append((sid, copy))
        assert_mirror_fresh(cluster)
        assert_matches_model(cluster, models)
    # Drain everything: the mirror must land back on full availability.
    for sid, copy in running:
        cluster[sid].release(copy)
    assert_mirror_fresh(cluster)
    assert cluster.total_allocated() == Resources.of(0, 0)


class _AuditingDollyMP(DollyMPScheduler):
    """Asserts mirror exactness on every schedule pass, mid-simulation —
    i.e. while clones are racing and first-copy-wins kills fire."""

    passes = 0

    def schedule(self, view):
        assert_mirror_fresh(view.cluster)
        super().schedule(view)
        assert_mirror_fresh(view.cluster)
        type(self).passes += 1


def test_mirror_exact_through_clone_kill_path():
    """An engine-driven run with aggressive cloning exercises
    _process_copy_finish: the winning copy finishes, siblings are killed
    and released; the mirror must stay exact at every schedule pass."""
    cluster = paper_cluster_30_nodes()
    jobs = [
        wordcount_job(3.0 + i, arrival_time=2.0 * i, job_id=500 + i, cv=1.2)
        for i in range(5)
    ]
    _AuditingDollyMP.passes = 0
    result = run_simulation(
        cluster, _AuditingDollyMP(max_clones=2), jobs, seed=3, max_time=1e6
    )
    assert result.num_jobs == 5
    assert result.clones_launched > 0  # the kill path actually ran
    assert _AuditingDollyMP.passes > 10
    assert_mirror_fresh(cluster)
    # All jobs done: the cluster must be fully drained.
    assert cluster.total_allocated() == Resources.of(0, 0)
    cap_cpu, cap_mem = cluster.mirror.capacity_columns()
    assert np.array_equal(cluster.mirror.avail_cpu, cap_cpu)
    assert np.array_equal(cluster.mirror.avail_mem, cap_mem)
