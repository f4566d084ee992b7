"""Behavioural tests for the baseline schedulers.

Each test pins the policy-specific ordering decision that distinguishes
the scheduler, using small deterministic workloads where the correct
behaviour is computable by hand.
"""

import pytest

from repro.cluster.heterogeneity import homogeneous_cluster, single_server_cluster
from repro.resources import Resources
from repro.schedulers.carbyne import CarbyneScheduler
from repro.schedulers.drf import DRFScheduler
from repro.schedulers.fifo import CapacityScheduler, FIFOScheduler
from repro.schedulers.graphene import GrapheneScheduler
from repro.schedulers.srpt import SRPTScheduler
from repro.schedulers.svf import SVFScheduler
from repro.schedulers.tetris import TetrisScheduler
from repro.sim.runner import run_simulation
from repro.workload.distributions import Deterministic
from repro.workload.job import Job
from repro.workload.phase import Phase
from tests.conftest import make_chain_job, make_single_task_job


def single_core_cluster():
    """One 1-core server: schedulers fully serialize unit-core tasks."""
    return homogeneous_cluster(1, Resources.of(1, 100))


class TestFIFO:
    def test_arrival_order_respected(self):
        cluster = single_core_cluster()
        # Long job arrives first; FIFO makes the short one wait.
        long = make_single_task_job(theta=100.0, arrival_time=0.0, job_id=1)
        short = make_single_task_job(theta=1.0, arrival_time=1.0, job_id=2)
        run_simulation(cluster, FIFOScheduler(), [long, short], max_time=1e5)
        assert long.finish_time == pytest.approx(100.0)
        assert short.finish_time == pytest.approx(101.0)

    def test_head_of_line_blocking(self):
        """FIFO's defining pathology: short jobs stuck behind a long one."""
        cluster = single_core_cluster()
        jobs = [make_single_task_job(theta=50.0, arrival_time=0.0, job_id=1)]
        jobs += [
            make_single_task_job(theta=1.0, arrival_time=2.0 + i, job_id=2 + i)
            for i in range(3)
        ]
        res = run_simulation(cluster, FIFOScheduler(), jobs, max_time=1e5)
        short_flows = [r.flowtime for r in res.records if r.job_id >= 2]
        assert min(short_flows) > 45.0  # all blocked behind the long job


class TestSRPT:
    def test_short_job_preempts_queue_position(self):
        cluster = single_core_cluster()
        long = make_single_task_job(theta=100.0, arrival_time=0.0, job_id=1)
        short = make_single_task_job(theta=1.0, arrival_time=1.0, job_id=2)
        run_simulation(cluster, SRPTScheduler(), [long, short], max_time=1e5)
        # Non-preemptive: the long job holds the core until t=100, but
        # the short job then goes before any later work.
        assert short.finish_time == pytest.approx(101.0)

    def test_short_first_when_simultaneous(self):
        cluster = single_core_cluster()
        long = make_single_task_job(theta=100.0, arrival_time=0.0, job_id=1)
        short = make_single_task_job(theta=1.0, arrival_time=0.0, job_id=2)
        run_simulation(cluster, SRPTScheduler(), [long, short], max_time=1e5)
        assert short.finish_time == pytest.approx(1.0)
        assert long.finish_time == pytest.approx(101.0)

    def test_remaining_time_uses_critical_path(self):
        job = make_chain_job(3, 5, theta=10.0)
        assert SRPTScheduler.remaining_time(job) == pytest.approx(30.0)


class TestSVF:
    def test_volume_not_time_decides(self):
        """A short-but-wide job has more volume than a long-narrow one."""
        cluster = homogeneous_cluster(1, Resources.of(10, 100))
        # wide: 10 tasks × 10s × (1 core) → volume 10·10·0.1 = 10
        wide = make_chain_job(1, 10, cpu=1.0, mem=1.0, theta=10.0, job_id=1)
        # narrow: 1 task × 50s × 1 core → volume 50·0.1 = 5
        narrow = make_single_task_job(cpu=1.0, mem=1.0, theta=50.0, job_id=2)
        run_simulation(cluster, SVFScheduler(), [wide, narrow], max_time=1e5)
        # SVF runs narrow first (smaller volume) even though it is longer.
        assert narrow.finish_time == pytest.approx(50.0)


class TestDRF:
    def test_equalizes_dominant_shares(self):
        cluster = homogeneous_cluster(1, Resources.of(10, 10))
        # CPU-heavy and MEM-heavy jobs with many tasks each.
        cpu_heavy = make_chain_job(1, 20, cpu=2.0, mem=0.5, theta=100.0, job_id=1)
        mem_heavy = make_chain_job(1, 20, cpu=0.5, mem=2.0, theta=100.0, job_id=2)

        from repro.sim.engine import SimulationEngine

        engine = SimulationEngine(
            cluster, DRFScheduler(), [cpu_heavy, mem_heavy], max_time=1e5
        )
        engine.run_until(0.0)  # both arrivals, then one schedule pass
        s1 = DRFScheduler.current_dominant_share(cpu_heavy, engine.view)
        s2 = DRFScheduler.current_dominant_share(mem_heavy, engine.view)
        # Progressive filling: dominant shares end up nearly equal.
        assert s1 == pytest.approx(s2, abs=0.2)
        assert s1 > 0.2

    def test_weighted_drf(self):
        cluster = homogeneous_cluster(1, Resources.of(10, 10))
        a = make_chain_job(1, 20, cpu=1.0, mem=1.0, theta=100.0, job_id=1)
        b = make_chain_job(1, 20, cpu=1.0, mem=1.0, theta=100.0, job_id=2)
        sched = DRFScheduler(weight_of=lambda j: 3.0 if j.job_id == 1 else 1.0)

        from repro.sim.engine import SimulationEngine

        engine = SimulationEngine(cluster, sched, [a, b], max_time=1e5)
        engine.run_until(0.0)  # both arrivals, then one schedule pass
        alloc_a = sum(t.num_live_copies for t in a.running_tasks())
        alloc_b = sum(t.num_live_copies for t in b.running_tasks())
        assert alloc_a > alloc_b  # 3:1 weights → roughly 7-8 vs 2-3 cores


class TestTetris:
    def test_alignment_prefers_fitting_job(self):
        """Fig. 2's shape: the perfectly-aligned big job goes first."""
        cluster = single_server_cluster(Resources.of(1.0, 1.0))
        big = Job(
            [Phase(0, 1, Resources.of(1.0, 1.0), Deterministic(36.0))],
            job_id=1,
            name="job1",
        )
        small_a = Job(
            [Phase(0, 1, Resources.of(0.5, 0.5), Deterministic(8.0))],
            job_id=2,
            name="job2",
        )
        small_b = Job(
            [Phase(0, 1, Resources.of(0.5, 0.5), Deterministic(8.0))],
            job_id=3,
            name="job3",
        )
        run_simulation(
            cluster, TetrisScheduler(), [big, small_a, small_b], max_time=1e5
        )
        # Tetris schedules Job 1 first (alignment 2.0 vs 1.0), then the
        # two small jobs together: completions 36, 44, 44 (total 124...)
        assert big.finish_time == pytest.approx(36.0)
        assert small_a.finish_time == pytest.approx(44.0)
        assert small_b.finish_time == pytest.approx(44.0)

    def test_epsilon_srpt_breaks_alignment_ties(self):
        cluster = single_core_cluster()
        long = make_single_task_job(theta=100.0, arrival_time=0.0, job_id=1)
        short = make_single_task_job(theta=1.0, arrival_time=0.0, job_id=2)
        run_simulation(
            cluster, TetrisScheduler(epsilon=0.5), [long, short], max_time=1e5
        )
        assert short.finish_time == pytest.approx(1.0)

    def test_rejects_negative_epsilon(self):
        with pytest.raises(ValueError):
            TetrisScheduler(epsilon=-0.1)


class TestCapacity:
    def test_has_late_speculation_by_default(self):
        from repro.schedulers.speculation import LATESpeculation

        assert isinstance(CapacityScheduler().speculation, LATESpeculation)

    def test_queue_weights_validated(self):
        with pytest.raises(ValueError):
            CapacityScheduler(queue_weights={"a": 0.0})

    def test_multi_queue_interleaves_users(self):
        """With equal queue weights, bob's queue gets a core even though
        alice submitted two jobs first (single-queue FIFO would not)."""
        cluster = homogeneous_cluster(1, Resources.of(2, 100))
        alice1 = make_single_task_job(theta=100.0, job_id=10)
        alice2 = make_single_task_job(theta=100.0, job_id=11)
        bob = make_single_task_job(theta=100.0, job_id=12)
        alice1.user = alice2.user = "alice"
        bob.user = "bob"
        sched = CapacityScheduler(queue_weights={"alice": 1.0, "bob": 1.0})
        result = run_simulation(cluster, sched, [alice1, alice2, bob], max_time=1e5)
        start = {r.job_id: r.first_start_time for r in result.records}
        assert start[bob.job_id] == pytest.approx(0.0)
        assert start[alice2.job_id] == pytest.approx(100.0)

    def test_single_queue_fifo_order(self):
        """Without queue weights Capacity degenerates to FIFO order."""
        cluster = homogeneous_cluster(1, Resources.of(2, 100))
        alice1 = make_single_task_job(theta=100.0, job_id=10)
        alice2 = make_single_task_job(theta=100.0, job_id=11)
        bob = make_single_task_job(theta=100.0, job_id=12)
        bob.user = "bob"
        result = run_simulation(
            cluster, CapacityScheduler(), [alice1, alice2, bob], max_time=1e5
        )
        start = {r.job_id: r.first_start_time for r in result.records}
        assert start[bob.job_id] == pytest.approx(100.0)


class TestCarbyne:
    def test_fair_pass_respects_fair_share_then_leftover_fills(self):
        cluster = homogeneous_cluster(1, Resources.of(10, 10))
        a = make_chain_job(1, 20, cpu=1.0, mem=1.0, theta=50.0, job_id=1)
        b = make_single_task_job(cpu=1.0, mem=1.0, theta=5.0, job_id=2)

        from repro.sim.engine import SimulationEngine

        engine = SimulationEngine(cluster, CarbyneScheduler(), [a, b], max_time=1e5)
        engine.run_until(0.0)  # both arrivals, then one schedule pass
        # b takes 1 core (all it needs); leftover pass lets a fill the rest.
        assert sum(t.num_live_copies for t in b.running_tasks()) == 1
        assert sum(t.num_live_copies for t in a.running_tasks()) == 9

    def test_reduces_flowtime_vs_plain_drf_for_small_jobs(self):
        def jobs():
            out = [make_chain_job(1, 30, cpu=1.0, mem=1.0, theta=20.0, job_id=1)]
            out += [
                make_single_task_job(theta=2.0, arrival_time=0.0, job_id=2 + i)
                for i in range(5)
            ]
            return out

        cluster = homogeneous_cluster(1, Resources.of(8, 100))
        carbyne = run_simulation(cluster, CarbyneScheduler(), jobs(), max_time=1e5)
        assert carbyne.num_jobs == 6


class TestGraphene:
    def test_matches_tetris_on_sequential_dags(self):
        """The paper's claim: Graphene ≈ Tetris for chain jobs."""

        def make_jobs():
            return [
                make_chain_job(2, 4, theta=10.0, arrival_time=5.0 * i, job_id=50 + i)
                for i in range(6)
            ]

        cluster = homogeneous_cluster(2, Resources.of(4, 8))
        t = run_simulation(cluster, TetrisScheduler(), make_jobs(), max_time=1e5)
        g = run_simulation(cluster, GrapheneScheduler(), make_jobs(), max_time=1e5)
        assert t.total_flowtime == pytest.approx(g.total_flowtime, rel=1e-6)

    def test_downstream_criticality(self):
        # Diamond with a long branch: phase 1 (long) more critical than 2.
        from repro.workload.phase import Phase as P

        phases = [
            P(0, 1, Resources.of(1, 1), Deterministic(1.0)),
            P(1, 1, Resources.of(1, 1), Deterministic(30.0), parents=(0,)),
            P(2, 1, Resources.of(1, 1), Deterministic(2.0), parents=(0,)),
            P(3, 1, Resources.of(1, 1), Deterministic(1.0), parents=(1, 2)),
        ]
        job = Job(phases)
        g = GrapheneScheduler()
        assert g.downstream_criticality(job, phases[1]) > g.downstream_criticality(
            job, phases[2]
        )
