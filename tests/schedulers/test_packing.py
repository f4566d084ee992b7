"""Unit tests for the shared placement loops."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import mirror as mirror_module
from repro.cluster.cluster import Cluster
from repro.cluster.heterogeneity import homogeneous_cluster
from repro.cluster.mirror import AvailabilityMirror
from repro.cluster.server import Server
from repro.resources import Resources
from repro.schedulers.base import Scheduler
from repro.schedulers.packing import (
    CloneScoreCache,
    fill_clones_best_fit,
    fill_tasks_best_fit,
    next_pending_task,
    pending_by_phase,
)
from repro.sim.engine import SimulationEngine
from repro.workload.distributions import Deterministic
from repro.workload.job import Job
from repro.workload.phase import Phase
from repro.workload.task import TaskState
from tests.conftest import make_chain_job, make_diamond_job


class _Null(Scheduler):
    name = "null"

    def schedule(self, view):
        pass


def make_view(cluster, jobs, t=0.0):
    """An engine view with all jobs activated (no events processed)."""
    engine = SimulationEngine(cluster, _Null(), jobs)
    for j in jobs:
        engine.active_jobs[j.job_id] = j
    return engine.view


class TestPendingByPhase:
    def test_only_ready_phases(self):
        job = make_chain_job(2, 3)
        got = pending_by_phase(job)
        assert [p.index for p, _ in got] == [0]
        assert len(got[0][1]) == 3

    def test_parallel_branches_offered(self):
        job = make_diamond_job()
        for t in job.phases[0].tasks:
            t.complete(1.0)
        got = pending_by_phase(job)
        assert [p.index for p, _ in got] == [1, 2]

    def test_next_pending_task(self):
        job = make_chain_job(1, 2)
        t = next_pending_task(job)
        assert t is job.phases[0].tasks[0]
        t.complete(1.0)
        assert next_pending_task(job) is job.phases[0].tasks[1]
        job.phases[0].tasks[1].complete(1.0)
        assert next_pending_task(job) is None


class TestFillTasks:
    def test_fills_until_capacity(self):
        cluster = homogeneous_cluster(1, Resources.of(4, 8))
        job = make_chain_job(1, 10, cpu=1.0, mem=1.0, theta=5.0)
        view = make_view(cluster, [job])
        launched = fill_tasks_best_fit(view, pending_by_phase(job))
        assert launched == 4  # CPU-bound

    def test_empty_candidates(self):
        cluster = homogeneous_cluster(1, Resources.of(4, 8))
        job = make_chain_job(1, 1)
        view = make_view(cluster, [job])
        assert fill_tasks_best_fit(view, []) == 0

    def test_best_fit_prefers_aligned_server(self):
        # Memory-heavy task should land on the memory-rich server.
        from repro.cluster.cluster import Cluster
        from repro.cluster.server import Server

        cluster = Cluster(
            [Server(0, Resources.of(16, 8)), Server(1, Resources.of(4, 64))]
        )
        phase = Phase(0, 1, Resources.of(1, 8), Deterministic(5.0))
        job = Job([phase])
        view = make_view(cluster, [job])
        fill_tasks_best_fit(view, pending_by_phase(job))
        assert phase.tasks[0].copies[0].server_id == 1

    def test_on_launch_callback(self):
        cluster = homogeneous_cluster(1, Resources.of(4, 8))
        job = make_chain_job(1, 2, theta=5.0)
        view = make_view(cluster, [job])
        seen = []
        fill_tasks_best_fit(
            view, pending_by_phase(job), on_launch=lambda t, s: seen.append(t.uid)
        )
        assert len(seen) == 2

    def test_mixed_demands_pack_tightly(self):
        """The loop should keep placing small tasks after big ones stop
        fitting."""
        cluster = homogeneous_cluster(1, Resources.of(10, 100))
        big = Phase(0, 2, Resources.of(4, 4), Deterministic(5.0))
        big_job = Job([big])
        small = Phase(0, 5, Resources.of(1, 1), Deterministic(5.0))
        small_job = Job([small])
        view = make_view(cluster, [big_job, small_job])
        launched = fill_tasks_best_fit(
            view, pending_by_phase(big_job) + pending_by_phase(small_job)
        )
        # 2 big (8 cpu) + 2 small (2 cpu) = 10 cpu.
        assert launched == 4
        assert cluster[0].available.cpu == pytest.approx(0.0)


class TestFillClones:
    def test_one_clone_per_listed_task(self):
        cluster = homogeneous_cluster(2, Resources.of(4, 8))
        job = make_chain_job(1, 2, theta=10.0)
        view = make_view(cluster, [job])
        fill_tasks_best_fit(view, pending_by_phase(job))
        running = job.phases[0].tasks
        launched = fill_clones_best_fit(view, list(running))
        assert launched == 2
        assert all(t.num_live_copies == 2 for t in running)

    def test_budget_check_blocks(self):
        cluster = homogeneous_cluster(2, Resources.of(4, 8))
        job = make_chain_job(1, 2, theta=10.0)
        view = make_view(cluster, [job])
        fill_tasks_best_fit(view, pending_by_phase(job))
        launched = fill_clones_best_fit(
            view, list(job.phases[0].tasks), budget_check=lambda t: False
        )
        assert launched == 0

    def test_pending_tasks_skipped(self):
        cluster = homogeneous_cluster(1, Resources.of(4, 8))
        job = make_chain_job(1, 1, theta=10.0)
        view = make_view(cluster, [job])
        launched = fill_clones_best_fit(view, list(job.phases[0].tasks))
        assert launched == 0  # never ran, nothing to clone

    def test_max_launches(self):
        cluster = homogeneous_cluster(4, Resources.of(4, 8))
        job = make_chain_job(1, 4, theta=10.0)
        view = make_view(cluster, [job])
        fill_tasks_best_fit(view, pending_by_phase(job))
        launched = fill_clones_best_fit(
            view, list(job.phases[0].tasks), max_launches=2
        )
        assert launched == 2


class _StubServer:
    """Just enough Server surface for AvailabilityMirror."""

    def __init__(self, sid: int, capacity: Resources) -> None:
        self.server_id = sid
        self.capacity = capacity
        self.available = capacity
        self.allocated = Resources(0.0, 0.0)
        self.up = True


class TestCloneScoreCache:
    """The per-pass memo must answer exactly like a fresh
    ``mirror.best_fit`` at every step, as long as every availability
    change flows through ``on_launch`` — the pass-2 usage contract."""

    demands = (
        Resources(1.0, 0.5),
        Resources(2.0, 2.0),
        Resources(0.5, 1.5),
        Resources(3.0, 1.0),
    )

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_best_fit_under_launch_sequences(self, data):
        caps = [Resources(4.0, 4.0), Resources(8.0, 6.0), Resources(2.0, 3.0)]
        servers = [
            _StubServer(i, caps[data.draw(st.integers(0, len(caps) - 1))])
            for i in range(data.draw(st.integers(1, 8)))
        ]
        mirror = AvailabilityMirror(servers)
        cache = CloneScoreCache(mirror)
        for _ in range(data.draw(st.integers(0, 25))):
            demand = data.draw(st.sampled_from(self.demands))
            expect = mirror.best_fit(demand)
            got = cache.best_fit_id(demand)
            if expect is None:
                assert got is None
                continue
            assert got == expect[0]
            # Launch on the chosen server: shrink availability through
            # the mirror, then invalidate via the cache's own hook.
            server = servers[got]
            server.available = server.available - demand
            server.allocated = server.allocated + demand
            mirror.update(server)
            cache.on_launch(got)

    def test_returns_none_when_nothing_fits(self):
        servers = [_StubServer(0, Resources(1.0, 1.0))]
        cache = CloneScoreCache(AvailabilityMirror(servers))
        assert cache.best_fit_id(Resources(2.0, 2.0)) is None


class TestBlockSizeIdentity:
    """The placement index's block size prunes scoring work only: one
    server per block and one block for the whole cluster must launch the
    same copies on the same servers, in the same order, for task fills
    (weighted or not) and clone fills (cached or not)."""

    caps = (
        Resources.of(8, 16),
        Resources.of(4, 32),
        Resources.of(16, 8),
        Resources.of(6, 6),
        Resources.of(12, 24),
    )
    demands = (
        Resources.of(2, 2),
        Resources.of(1, 6),
        Resources.of(5, 1),
        Resources.of(3, 3),
    )

    def _launches(self, block, *, vectorized=True):
        with mock.patch.object(mirror_module, "BLOCK_SIZE", block):
            cluster = Cluster(
                [Server(i, self.caps[i * 3 % len(self.caps)]) for i in range(11)],
                vectorized=vectorized,
            )
        jobs = [
            Job([Phase(0, 6, d, Deterministic(10.0))], job_id=i)
            for i, d in enumerate(self.demands)
        ]
        view = make_view(cluster, jobs)
        seen = []

        def record(task, server):
            seen.append((task.uid, server.server_id))

        fill_tasks_best_fit(
            view,
            pending_by_phase(jobs[0]) + pending_by_phase(jobs[1]),
            on_launch=record,
        )
        fill_tasks_best_fit(
            view,
            pending_by_phase(jobs[2]) + pending_by_phase(jobs[3]),
            on_launch=record,
            server_weight=lambda s: 1.0 / (1.0 + s.server_id % 3),
        )
        running = [
            t
            for job in jobs
            for t in job.phases[0].tasks
            if t.state is TaskState.RUNNING
        ]
        half = len(running) // 2
        fill_clones_best_fit(
            view,
            running[:half],
            on_launch=record,
            score_cache=CloneScoreCache(cluster.mirror),
        )
        fill_clones_best_fit(view, running[half:], on_launch=record)
        return seen

    def test_one_server_per_block_matches_one_block(self):
        single = self._launches(11)
        assert self._launches(1) == single
        assert self._launches(4) == single
        # ...and both match the scalar reference loop.
        assert self._launches(1, vectorized=False) == single
        assert len(single) > 20
