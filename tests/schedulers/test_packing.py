"""Unit tests for the shared placement loops."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import mirror as mirror_module
from repro.cluster.cluster import Cluster
from repro.cluster.heterogeneity import homogeneous_cluster
from repro.cluster.server import server_id_of
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
from tests import reference
from tests.cluster.test_server import make_copy, make_task
from tests.conftest import all_tasks, make_chain_job, make_diamond_job


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
        for t in all_tasks(job.phases[0]):
            t.complete(1.0)
        got = pending_by_phase(job)
        assert [p.index for p, _ in got] == [1, 2]

    def test_next_pending_task(self):
        job = make_chain_job(1, 2)
        t = next_pending_task(job)
        assert t is job.phases[0].task(0)
        t.complete(1.0)
        assert next_pending_task(job) is job.phases[0].task(1)
        job.phases[0].task(1).complete(1.0)
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
        cluster = Cluster.build([(Resources.of(16, 8), 1.0), (Resources.of(4, 64), 1.0)])
        phase = Phase(0, 1, Resources.of(1, 8), Deterministic(5.0))
        job = Job([phase])
        view = make_view(cluster, [job])
        fill_tasks_best_fit(view, pending_by_phase(job))
        assert phase.task(0).copies[0].server_id == 1

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
        running = all_tasks(job.phases[0])
        launched = fill_clones_best_fit(view, list(running))
        assert launched == 2
        assert all(t.num_live_copies == 2 for t in running)

    def test_budget_check_blocks(self):
        cluster = homogeneous_cluster(2, Resources.of(4, 8))
        job = make_chain_job(1, 2, theta=10.0)
        view = make_view(cluster, [job])
        fill_tasks_best_fit(view, pending_by_phase(job))
        launched = fill_clones_best_fit(
            view, all_tasks(job.phases[0]), budget_check=lambda t: False
        )
        assert launched == 0

    def test_pending_tasks_skipped(self):
        cluster = homogeneous_cluster(1, Resources.of(4, 8))
        job = make_chain_job(1, 1, theta=10.0)
        view = make_view(cluster, [job])
        launched = fill_clones_best_fit(view, all_tasks(job.phases[0]))
        assert launched == 0  # never ran, nothing to clone

    def test_max_launches(self):
        cluster = homogeneous_cluster(4, Resources.of(4, 8))
        job = make_chain_job(1, 4, theta=10.0)
        view = make_view(cluster, [job])
        fill_tasks_best_fit(view, pending_by_phase(job))
        launched = fill_clones_best_fit(
            view, all_tasks(job.phases[0]), max_launches=2
        )
        assert launched == 2


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
        cluster = Cluster.build(
            (caps[data.draw(st.integers(0, len(caps) - 1))], 1.0)
            for _ in range(data.draw(st.integers(1, 8)))
        )
        mirror = cluster.mirror
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
            mirror.allocate(got, make_copy(make_task(demand.cpu, demand.mem), server_id=got))
            cache.on_launch(got)

    def test_returns_none_when_nothing_fits(self):
        cluster = Cluster.build([(Resources(1.0, 1.0), 1.0)])
        cache = CloneScoreCache(cluster.mirror)
        assert cache.best_fit_id(Resources(2.0, 2.0)) is None


@st.composite
def fill_scenarios(draw):
    """(capacities, down ids, pre-loads, demands, task counts, weights)."""
    m = draw(st.integers(1, 12))
    caps = draw(
        st.lists(
            st.builds(Resources.of, st.integers(1, 16), st.integers(1, 32)),
            min_size=m,
            max_size=m,
        )
    )
    down = draw(st.sets(st.integers(0, m - 1), max_size=m // 3))
    loads = [
        (draw(st.integers(0, int(c.cpu))), draw(st.integers(0, int(c.mem))))
        for c in caps
    ]
    # Each demand fits some server's capacity (the engine rejects
    # jobs no server could ever host).
    demands = []
    for _ in range(draw(st.integers(2, 5))):
        cap = draw(st.sampled_from(caps))
        cpu = draw(st.integers(1, min(int(cap.cpu), 6)))
        demands.append(Resources.of(cpu, draw(st.integers(1, min(int(cap.mem), 8)))))
    sizes = draw(st.lists(st.integers(1, 6), min_size=len(demands), max_size=len(demands)))
    weights = draw(st.lists(st.floats(0.25, 4.0), min_size=m, max_size=m))
    return caps, down, loads, demands, sizes, weights


def launch_sequence(scenario, fill_tasks, fill_clones, block=mirror_module.BLOCK_SIZE):
    """(task uid, server id) of every launch: an unweighted and a weighted
    task fill, then two clone fills sharing one cache and a cacheless one."""
    caps, down, loads, demands, sizes, weights = scenario
    with mock.patch.object(mirror_module, "BLOCK_SIZE", block):
        cluster = Cluster.build((cap, 1.0) for cap in caps)
    for i, (cpu, mem) in enumerate(loads):
        if i in down:
            cluster[i].mark_down()
        elif cpu or mem:
            cluster[i].allocate(make_copy(make_task(cpu, mem), server_id=i))
    jobs = [
        Job([Phase(0, n, d, Deterministic(10.0))], job_id=i)
        for i, (d, n) in enumerate(zip(demands, sizes))
    ]
    view = make_view(cluster, jobs)
    seen = []

    def record(task, server):
        seen.append((task.uid, server.server_id))

    half = len(jobs) // 2
    fill_tasks(
        view, [p for j in jobs[:half] for p in pending_by_phase(j)], on_launch=record
    )
    fill_tasks(
        view,
        [p for j in jobs[half:] for p in pending_by_phase(j)],
        on_launch=record,
        server_weight=lambda s: weights[s.server_id],
    )
    running = [
        t for j in jobs for t in j.phases[0].built_tasks() if t.state is TaskState.RUNNING
    ]
    cache = CloneScoreCache(cluster.mirror)
    fill_clones(view, running[::2], on_launch=record, score_cache=cache)
    fill_clones(view, running[1::2], on_launch=record, score_cache=cache)
    fill_clones(view, running, on_launch=record)
    return seen


class TestBlockSizeIdentity:
    """The placement index's block size prunes scoring work only: for one
    server per block, a few, and one block for the whole cluster, the
    task fill (weighted or not) and the clone fill (pass-scoped or
    call-local cache) launch the same copies on the same servers, in the
    same order, as the reference loops — over random capacities,
    pre-loads, down servers, demands and weights."""

    @given(fill_scenarios())
    @settings(max_examples=150, deadline=None)
    def test_one_server_per_block_matches_one_block(self, scenario):
        expected = launch_sequence(scenario, reference.fill_tasks, reference.fill_clones)
        for block in (1, 3, len(scenario[0])):
            got = launch_sequence(
                scenario, fill_tasks_best_fit, fill_clones_best_fit, block=block
            )
            assert got == expected


@st.composite
def shared_demand_fills(draw):
    """(capacities, demands, task counts, weights) where candidate phases
    share demands: at least three rows drawn from a pool of at most two
    demands, servers of two capacity shapes (equal scores across servers
    and rows), weights from three values (equal weighted scores too),
    and rows of one to three tasks, so a row empties while a row of the
    same demand remains."""
    m = draw(st.integers(1, 10))
    shapes = [Resources.of(4, 8), Resources.of(8, 4)]
    caps = draw(st.lists(st.sampled_from(shapes), min_size=m, max_size=m))
    pool = draw(
        st.lists(
            st.builds(Resources.of, st.integers(1, 4), st.integers(1, 4)),
            min_size=1,
            max_size=2,
        )
    )
    demands = draw(st.lists(st.sampled_from(pool), min_size=3, max_size=8))
    sizes = draw(st.lists(st.integers(1, 3), min_size=len(demands), max_size=len(demands)))
    weights = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=m, max_size=m))
    return caps, demands, sizes, weights


def fill_launches(scenario, fill, weighted):
    """The exact ``Launch`` sequence one task fill applies — one phase
    per candidate row, equal-demand phases included."""
    caps, demands, sizes, weights = scenario
    cluster = Cluster.build((cap, 1.0) for cap in caps)
    jobs = [
        Job([Phase(0, n, d, Deterministic(10.0))], job_id=i)
        for i, (d, n) in enumerate(zip(demands, sizes))
    ]
    view = make_view(cluster, jobs)
    applied = []
    apply = view.apply

    def record(action):
        applied.append((action.task.uid, server_id_of(action.server), action.clone))
        return apply(action)

    view.apply = record
    fill(
        view,
        [p for j in jobs for p in pending_by_phase(j)],
        server_weight=(lambda s: weights[s.server_id]) if weighted else None,
    )
    return applied


class TestSharedDemandRows:
    """Candidate phases with equal demand share one score row in the
    task fill; the launch sequence must stay the reference loop's, which
    scores every candidate separately."""

    @given(shared_demand_fills(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_launch_sequence_matches_reference(self, scenario, weighted):
        expected = fill_launches(scenario, reference.fill_tasks, weighted)
        assert fill_launches(scenario, fill_tasks_best_fit, weighted) == expected
