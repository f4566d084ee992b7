"""The mirror's class form equals the dense per-server arrays it replaced.

A cluster keeps capacity and nominal slowdown once per server class,
plus a per-server class index (DESIGN.md §5.1).  Every answer the dense
columns gave — per-server capacity and slowdown, the capacity totals'
bits, ``peak_alignment``, ``can_host`` and every availability bit — must
come out the same, before and after a pickle round trip.  The pins at
the end hold the layout to its bytes per server and per copy.
"""

import functools
import operator
import pickle
import tracemalloc

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.heterogeneity import (
    NORMAL_SLOWDOWN,
    POWERFUL_SLOWDOWN,
    SMALL_SLOWDOWN,
    draw_classes,
    paper_cluster_30_nodes,
    trace_sim_cluster,
)
from repro.faults import FaultProfile
from repro.resources import EPS, Resources
from repro.schedulers.fifo import FIFOScheduler
from repro.sim.checkpoint import checkpoint_bytes, restore_bytes
from repro.sim.engine import SimulationEngine
from repro.workload.task import TaskCopy
from tests import reference
from tests.cluster.test_server import make_copy, make_task
from tests.conftest import make_single_task_job

TRACE_WEIGHTS = np.array([0.15, 0.55, 0.30])


def bits(column) -> np.ndarray:
    return np.asarray(column, dtype=np.float64).view(np.uint64)


def dense_trace_columns(n: int, seed: int, cpu_scale: float = 1.0):
    """``trace_sim_cluster``'s per-server columns the way it built them
    before server classes: ``rng.choice`` and a gather per column."""
    rng = np.random.default_rng(seed)
    picks = rng.choice(3, size=n, p=TRACE_WEIGHTS / TRACE_WEIGHTS.sum())
    cpu = np.array([24.0, 16.0, 8.0])[picks]
    mem = np.array([48.0, 32.0, 16.0])[picks]
    slowdown = np.array([POWERFUL_SLOWDOWN, NORMAL_SLOWDOWN, SMALL_SLOWDOWN])[picks]
    if cpu_scale != 1.0:
        cpu = np.maximum(1.0, np.round(cpu * cpu_scale))
    return cpu, mem, slowdown


def paper_testbed_columns():
    c = paper_cluster_30_nodes()
    return (
        np.array([s.capacity.cpu for s in c]),
        np.array([s.capacity.mem for s in c]),
        np.array([s.slowdown for s in c]),
    )


def dense_cases():
    rng = np.random.default_rng(11)
    n = 1000
    cpu, mem, slowdown = dense_trace_columns(300, seed=5)
    # Two classes that differ only in cores become one once scaled.
    merged = np.maximum(1.0, np.round(np.array([16.0, 8.0, 24.0] * 20) * 0.05))
    # Capacities and slowdowns one ulp apart are distinct classes.
    ulp = np.array([16.0, np.nextafter(16.0, 32.0), np.nextafter(16.0, 0.0)])
    return {
        "one-ulp-apart": (
            np.tile(ulp, 8), np.repeat(ulp, 8), np.tile(np.repeat(ulp, 2), 4), 18
        ),
        "one-class": (np.full(50, 16.0), np.full(50, 32.0), np.full(50, 1.0), 1),
        "three-classes": (cpu, mem, slowdown, 3),
        "testbed": (*paper_testbed_columns(), 4),
        "all-distinct": (
            rng.uniform(0.5, 64.0, n), rng.uniform(0.5, 512.0, n), rng.uniform(0.5, 2.0, n), n
        ),
        "scale-merges": (merged, np.full(60, 32.0), np.full(60, 1.0), 1),
    }


def assert_matches_dense(cluster: Cluster, cpu, mem, slowdown) -> None:
    mirror = cluster.mirror
    n = len(cpu)
    assert len(cluster) == n
    assert mirror.class_of.dtype == np.min_scalar_type(len(mirror.class_cpu) - 1)
    # Every class has a server.
    assert np.bincount(mirror.class_of, minlength=len(mirror.class_cpu)).all()
    for i in range(n):
        cap = mirror.capacity(i)
        assert bits([cap.cpu, cap.mem]).tolist() == bits([cpu[i], mem[i]]).tolist()
        assert bits(mirror.slowdown_of(i)) == bits(slowdown[i])
    gathered = mirror.capacity_columns()
    assert np.array_equal(bits(gathered[0]), bits(cpu))
    assert np.array_equal(bits(gathered[1]), bits(mem))
    total = cluster.total_capacity
    assert total.cpu.hex() == functools.reduce(operator.add, cpu.tolist()).hex()
    assert total.mem.hex() == functools.reduce(operator.add, mem.tolist()).hex()
    assert cluster.peak_alignment.hex() == float(np.max(cpu * cpu + mem * mem)).hex()
    for d_cpu in (0.5, *np.unique(cpu)[:4], cpu.max() + EPS / 2, cpu.max() + 2 * EPS):
        for d_mem in (0.5, *np.unique(mem)[:4], mem.max() + EPS / 2, mem.max() + 2 * EPS):
            demand = Resources(float(d_cpu), float(d_mem))
            dense = bool(np.any((cpu + EPS >= demand.cpu) & (mem + EPS >= demand.mem)))
            assert cluster.can_host(demand) is dense, demand


def assert_availability_matches_dense(cluster: Cluster, cpu, mem) -> None:
    """Load every third server, take an idle one down, and compare every
    availability bit with the dense derivation, directly and after a
    pickle round trip."""
    n = len(cpu)
    for i in range(0, n, 3):
        task = make_task(cpu[i] / 3, mem[i] / 7)
        cluster[i].allocate(make_copy(task, server_id=i))
    idle = [i for i in range(n) if i not in cluster.mirror.resident]
    if idle:
        cluster[idle[-1]].mark_down()
    for mirror in (cluster.mirror, pickle.loads(pickle.dumps(cluster.mirror))):
        for stored, cap, alloc in (
            (mirror.avail_cpu, cpu, mirror.alloc_cpu),
            (mirror.avail_mem, mem, mirror.alloc_mem),
        ):
            dense = np.where(mirror.up, np.maximum(cap - alloc, 0.0), 0.0)
            assert np.array_equal(bits(stored), bits(dense))


class TestDenseEquivalence:
    @pytest.mark.parametrize("case", list(dense_cases()))
    def test_class_form_matches_dense_columns(self, case):
        cpu, mem, slowdown, classes = dense_cases()[case]
        cluster = Cluster(cpu, mem, slowdown)
        assert len(cluster.mirror.class_cpu) == classes
        assert_matches_dense(cluster, cpu, mem, slowdown)
        assert_availability_matches_dense(cluster, cpu, mem)

    @pytest.mark.parametrize("n", [1, 2, 3, 300])
    @pytest.mark.parametrize("cpu_scale", [1.0, 0.5, 0.01])
    def test_trace_cluster_matches_dense_columns(self, n, cpu_scale):
        for seed in range(6):
            cpu, mem, slowdown = dense_trace_columns(n, seed, cpu_scale)
            cluster = trace_sim_cluster(n, seed=seed, cpu_scale=cpu_scale)
            # A class no server drew is not in the table.
            assert len(cluster.mirror.class_cpu) == len(np.unique(slowdown))
            assert_matches_dense(cluster, cpu, mem, slowdown)
            assert_availability_matches_dense(cluster, cpu, mem)

    @pytest.mark.parametrize("case", list(dense_cases()))
    def test_classes_match_a_2d_unique(self, case):
        """Per-column factoring gives ``np.unique(axis=0)``'s classes:
        the same class table, bit for bit, and the same class per row."""
        cpu, mem, slowdown, _ = dense_cases()[case]
        table, class_of = reference.factor_rows(cpu, mem, slowdown)
        mirror = Cluster(cpu, mem, slowdown).mirror
        got = (mirror.class_cpu, mirror.class_mem, mirror.class_slowdown)
        for k, column in enumerate(got):
            assert np.array_equal(bits(column), bits(table[:, k]))
        assert np.array_equal(mirror.class_of, class_of)

    def test_invalid_class_names_its_first_server(self):
        with pytest.raises(ValueError, match="server 1: capacity"):
            Cluster([4.0, np.nan, 4.0, np.nan], [8.0] * 4)
        with pytest.raises(ValueError, match="server 2: capacity"):
            Cluster([4.0, 4.0, -4.0, 8.0, -4.0], [8.0] * 5)
        with pytest.raises(ValueError, match="server 2: slowdown"):
            Cluster([4.0] * 3, [8.0] * 3, [1.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="server 0: slowdown"):
            Cluster.from_classes([4.0], [8.0], np.inf, np.zeros(3, np.uint8))

    def test_unused_classes_are_dropped(self):
        cluster = Cluster.from_classes(
            [8.0, 16.0, 24.0], [16.0, 32.0, 48.0], [1.0, 2.0, 3.0], np.array([2, 0, 2])
        )
        assert cluster.mirror.class_cpu.tolist() == [8.0, 24.0]
        assert cluster.mirror.class_slowdown.tolist() == [1.0, 3.0]
        assert cluster.mirror.class_of.tolist() == [1, 0, 1]


class TestClassDraw:
    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 30_000, 100_000])
    def test_draw_matches_rng_choice(self, n):
        """``draw_classes`` returns ``rng.choice``'s classes and leaves
        the generator where ``choice`` leaves it, seed after seed."""
        for seed in range(200):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            want = a.choice(3, size=n, p=TRACE_WEIGHTS / TRACE_WEIGHTS.sum())
            got = draw_classes(b, TRACE_WEIGHTS, n)
            assert got.dtype == np.uint8
            assert np.array_equal(got, want), seed
            assert a.bit_generator.state == b.bit_generator.state


class TestBrownoutEntry:
    def _engine(self, **kw):
        cluster = Cluster.build(
            [(Resources.of(4, 8), 1.25), (Resources.of(8, 16), 0.75)] * 3
        )
        jobs = [
            make_single_task_job(theta=20.0, arrival_time=7.0 * i, job_id=i)
            for i in range(12)
        ]
        return SimulationEngine(
            cluster,
            FIFOScheduler(),
            jobs,
            seed=5,
            fault_profile=FaultProfile(
                slowdown_rate=1.0 / 20.0, slowdown_factor=3.0, slowdown_duration=25.0
            ),
            **kw,
        )

    def test_window_open_and_close_leaves_the_class_value(self):
        engine = self._engine()
        mirror = engine.cluster.mirror
        nominal = [mirror.slowdown_of(i) for i in range(len(mirror))]
        for sid in (1, 4):
            engine.faults.on_slow_start(engine, sid)
        assert mirror.brownout == {1: 0.75 * 3.0, 4: 1.25 * 3.0}
        assert engine.cluster[4].slowdown == 1.25 * 3.0
        for sid in (1, 4):
            engine.faults.on_slow_end(engine, sid)
        assert mirror.brownout == {}
        after = [mirror.slowdown_of(i) for i in range(len(mirror))]
        assert bits(after).tolist() == bits(nominal).tolist()

    def test_checkpoint_with_a_window_open_revives_it(self):
        uninterrupted = self._engine(record_trace=True)
        reference = uninterrupted.run()
        engine = self._engine(record_trace=True)
        engine.start()
        while not engine.cluster.mirror.brownout:
            engine.step()
        open_windows = dict(engine.cluster.mirror.brownout)
        revived = restore_bytes(checkpoint_bytes(engine)[0])
        assert revived.cluster.mirror.brownout == open_windows
        revived.drain()
        # Both runs end with the same windows open, if any.
        assert revived.cluster.mirror.brownout == uninterrupted.cluster.mirror.brownout
        result = revived.finalize()
        assert result.deterministic() == reference.deterministic()
        assert list(revived.trace) == list(uninterrupted.trace)


class TestPins:
    """Bytes that grow with the 100K-server configuration."""

    def test_mirror_holds_34_bytes_a_server(self):
        m = 100_000
        mirror = trace_sim_cluster(m, seed=2022).mirror
        per_server = sum(
            value.nbytes
            for name in mirror.__slots__
            if isinstance(value := getattr(mirror, name), np.ndarray) and len(value) == m
        )
        assert per_server / m <= 34  # 57 with per-server capacity and slowdown

    def test_a_copy_allocates_no_more_than_its_object(self):
        task = make_task()
        n = 10_000
        copies = [None] * n
        start, duration = 3.5, 12.25
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for k in range(n):
                copies[k] = TaskCopy(task, 0, start, duration, is_clone=False)
            per_copy = (tracemalloc.get_traced_memory()[0] - before) / n
        finally:
            tracemalloc.stop()
        assert per_copy <= 88  # 123-128 with two more slots and a uid int
