"""Integration-grade unit tests for the discrete-event engine.

These pin down the semantics every figure depends on: capacity
enforcement (Eq. 5), DAG gating (Eq. 7), job completion (Eq. 8),
first-copy-wins cloning, slotted vs event-driven scheduling, and the
deadlock/starvation guards.
"""

import gc
import math
import weakref

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.heterogeneity import (
    homogeneous_cluster,
    single_server_cluster,
    trace_sim_cluster,
)
from repro.core.online import DollyMPScheduler
from repro.faults import FAULT_PROFILES
from repro.observability import Observability
from repro.resources import Resources
from repro.schedulers.base import Scheduler
from repro.schedulers.fifo import FIFOScheduler
from repro.sim.checkpoint import checkpoint_bytes, restore_bytes
from repro.sim.engine import SimulationEngine
from repro.sim.events import EventKind
from repro.workload.distributions import Deterministic
from repro.workload.google_trace import GoogleTraceGenerator, jobs_from_specs
from repro.workload.job import Job
from repro.workload.phase import Phase
from repro.workload.task import Task, TaskCopy, TaskState
from tests.conftest import (
    make_chain_job,
    make_diamond_job,
    make_single_task_job,
    snapshot_copies,
)


def run(cluster, jobs, scheduler=None, **kw):
    engine = SimulationEngine(
        cluster, scheduler or FIFOScheduler(), jobs, max_time=kw.pop("max_time", 1e6), **kw
    )
    return engine, engine.run()


class TestBasicExecution:
    def test_single_deterministic_job(self, small_cluster):
        job = make_single_task_job(theta=10.0)
        _, result = run(small_cluster, [job])
        assert job.finish_time == pytest.approx(10.0)
        assert result.num_jobs == 1
        assert result.records[0].flowtime == pytest.approx(10.0)

    def test_arrival_time_respected(self, small_cluster):
        job = make_single_task_job(theta=10.0, arrival_time=5.0)
        _, result = run(small_cluster, [job])
        assert result.records[0].first_start_time == pytest.approx(5.0)
        assert job.finish_time == pytest.approx(15.0)

    def test_slowdown_scales_duration(self):
        cluster = homogeneous_cluster(1, Resources.of(4, 8), slowdown=2.0)
        job = make_single_task_job(theta=10.0)
        run(cluster, [job])
        assert job.finish_time == pytest.approx(20.0)

    def test_parallel_tasks_overlap(self, small_cluster):
        # 4 servers × 8 cores: 8 one-core tasks all fit at once.
        job = make_chain_job(1, 8, theta=10.0)
        run(small_cluster, [job])
        assert job.finish_time == pytest.approx(10.0)

    def test_chain_phases_serialize(self, small_cluster):
        job = make_chain_job(3, 2, theta=10.0)
        run(small_cluster, [job])
        assert job.finish_time == pytest.approx(30.0)

    def test_diamond_dag_timing(self, small_cluster):
        job = make_diamond_job(theta=5.0)
        run(small_cluster, [job])
        # 0 (5s) → 1 & 2 in parallel (5s) → 3 (5s)
        assert job.finish_time == pytest.approx(15.0)

    def test_jobs_sorted_by_arrival(self, small_cluster):
        late = make_single_task_job(theta=1.0, arrival_time=50.0, job_id=2)
        early = make_single_task_job(theta=1.0, arrival_time=0.0, job_id=1)
        _, result = run(small_cluster, [late, early])
        assert result.num_jobs == 2


class TestCapacityEnforcement:
    def test_tasks_queue_when_full(self):
        cluster = homogeneous_cluster(1, Resources.of(1, 2))
        # Two 1-core tasks on a 1-core server must serialize.
        job = make_chain_job(1, 2, cpu=1.0, mem=1.0, theta=10.0)
        run(cluster, [job])
        assert job.finish_time == pytest.approx(20.0)

    def test_infeasible_task_rejected_upfront(self):
        cluster = homogeneous_cluster(2, Resources.of(4, 4))
        job = make_single_task_job(cpu=5.0, mem=1.0)
        with pytest.raises(ValueError, match="exceeds every server"):
            SimulationEngine(cluster, FIFOScheduler(), [job])

    def test_demand_fitting_no_single_server_rejected_upfront(self):
        """(20, 40) fits the per-dimension maxima (24 CPU on one server,
        48 GB on the other) but no real server: admitting it would
        starve the job and blame the scheduler."""
        cluster = Cluster.build([(Resources.of(24, 16), 1.0), (Resources.of(8, 48), 1.0)])
        job = make_single_task_job(cpu=20.0, mem=40.0, job_id=7)
        with pytest.raises(ValueError, match="job 7 phase 0: demand .* exceeds every server"):
            SimulationEngine(cluster, DollyMPScheduler(max_clones=2), [job])

    def test_memory_constrains_too(self):
        cluster = homogeneous_cluster(1, Resources.of(8, 4))
        job = make_chain_job(1, 2, cpu=1.0, mem=4.0, theta=10.0)
        run(cluster, [job])
        assert job.finish_time == pytest.approx(20.0)  # memory-serialized

    def test_launch_over_capacity_raises(self):
        cluster = single_server_cluster(Resources.of(1, 1))
        job = make_chain_job(1, 2, cpu=1.0, mem=1.0, theta=5.0)

        class Greedy(Scheduler):
            name = "greedy"

            def schedule(self, view):
                for task in view.active_jobs[0].ready_tasks():
                    view.launch(task, view.cluster[0])

        engine = SimulationEngine(cluster, Greedy(), [job])
        with pytest.raises(RuntimeError, match="cannot fit"):
            engine.run()


class TestDAGGating:
    def test_launching_gated_task_raises(self):
        cluster = homogeneous_cluster(1, Resources.of(8, 8))
        job = make_chain_job(2, 1, theta=5.0)

        class Jumper(Scheduler):
            name = "jumper"

            def schedule(self, view):
                if not view.active_jobs:
                    return
                phase2 = view.active_jobs[0].phases[1]
                if phase2.task(0).state is TaskState.PENDING:
                    view.launch(phase2.task(0), view.cluster[0])

        engine = SimulationEngine(cluster, Jumper(), [job], max_time=100)
        with pytest.raises(RuntimeError, match="Eq. 7"):
            engine.run()


class TestCloning:
    def test_first_copy_wins_and_kills_rest(self):
        cluster = homogeneous_cluster(2, Resources.of(4, 4), slowdown=1.0)
        job = make_single_task_job(theta=10.0)

        class CloneOnce(Scheduler):
            name = "clone-once"

            def schedule(self, view):
                for j in view.active_jobs:
                    for t in j.ready_tasks():
                        view.launch(t, view.cluster[0])
                        view.launch(t, view.cluster[1], clone=True)

        task = job.phases[0].task(0)
        sched = CloneOnce()
        copies = snapshot_copies(sched)
        engine = SimulationEngine(cluster, sched, [job])
        result = engine.run()
        assert task.state is TaskState.FINISHED
        assert len(copies[task.uid]) == 2
        finished = [c for c in copies[task.uid] if c.finished]
        killed = [c for c in copies[task.uid] if c.killed]
        assert len(finished) == 1 and len(killed) == 1
        # Folded: the ledger keeps both copies' durations in launch order.
        assert task.copies == ()
        assert task.ledger.durations == tuple(c.duration for c in copies[task.uid])
        assert task.ledger.clones == 1
        assert task.ledger.winner_duration == finished[0].duration
        assert engine.clones_launched == 1
        assert result.records[0].num_clones == 1
        # All resources released at the end.
        assert engine.cluster.total_allocated().is_zero()

    def test_killed_copy_frees_resources_immediately(self):
        cluster = homogeneous_cluster(2, Resources.of(1, 1))
        job = make_single_task_job(cpu=1.0, mem=1.0, theta=10.0)

        class CloneOnce(Scheduler):
            name = "clone-once"

            def schedule(self, view):
                for j in view.active_jobs:
                    for t in j.ready_tasks():
                        view.launch(t, view.cluster[0])
                        view.launch(t, view.cluster[1], clone=True)

        engine = SimulationEngine(cluster, CloneOnce(), [job])
        engine.run()
        assert cluster[0].allocated.is_zero()
        assert cluster[1].allocated.is_zero()

    def test_killed_copy_usage_truncated(self):
        """A clone killed at t charges only its actual runtime (Fig. 8b)."""
        cluster = homogeneous_cluster(1, Resources.of(4, 4), slowdown=1.0)
        slow = homogeneous_cluster(1, Resources.of(4, 4))  # unused, clarity
        del slow
        job = make_single_task_job(theta=10.0, sigma=5.0)

        class CloneOnce(Scheduler):
            name = "clone-once"

            def schedule(self, view):
                for j in view.active_jobs:
                    for t in j.ready_tasks():
                        view.launch(t, view.cluster[0])
                        view.launch(t, view.cluster[0], clone=True)

        task = job.phases[0].task(0)
        sched = CloneOnce()
        copies = snapshot_copies(sched)
        engine = SimulationEngine(cluster, sched, [job], seed=5)
        result = engine.run()
        killed = [c for c in copies[task.uid] if c.killed]
        finished = [c for c in copies[task.uid] if c.finished]
        assert len(killed) == 1 and len(finished) == 1
        assert killed[0].duration <= finished[0].duration + 1e-9
        # The record charges the truncated duration, not the sampled one.
        charged = finished[0].duration + killed[0].duration
        assert result.records[0].cpu_seconds == pytest.approx(1.0 * charged)

    def test_max_copies_cap_enforced(self):
        cluster = homogeneous_cluster(4, Resources.of(4, 4))
        job = make_single_task_job(theta=10.0)

        class CloneStorm(Scheduler):
            name = "storm"

            def schedule(self, view):
                for j in view.active_jobs:
                    for t in j.ready_tasks():
                        for s in view.cluster:
                            view.launch(t, s)

        engine = SimulationEngine(cluster, CloneStorm(), [job], max_copies_per_task=2)
        with pytest.raises(RuntimeError, match="copy cap"):
            engine.run()


class TestSlottedMode:
    def test_scheduling_quantized_to_slots(self):
        cluster = homogeneous_cluster(1, Resources.of(8, 8))
        # Job arrives at t=3; with 5s slots it cannot start before t=5.
        job = make_single_task_job(theta=10.0, arrival_time=3.0)
        _, result = run(cluster, [job], schedule_interval=5.0)
        assert result.records[0].first_start_time == pytest.approx(5.0)
        assert job.finish_time == pytest.approx(15.0)

    def test_slot_jump_over_idle_gap(self):
        cluster = homogeneous_cluster(1, Resources.of(8, 8))
        jobs = [
            make_single_task_job(theta=2.0, arrival_time=0.0, job_id=1),
            make_single_task_job(theta=2.0, arrival_time=1000.0, job_id=2),
        ]
        engine, _ = run(cluster, jobs, schedule_interval=5.0)
        # Far fewer ticks than 1000/5 if the idle gap is jumped.
        assert engine.schedule_passes < 50

    def test_event_mode_schedules_immediately(self):
        cluster = homogeneous_cluster(1, Resources.of(8, 8))
        job = make_single_task_job(theta=10.0, arrival_time=3.0)
        _, result = run(cluster, [job], schedule_interval=0.0)
        assert result.records[0].first_start_time == pytest.approx(3.0)


class TestGuards:
    def test_max_time_exceeded(self):
        cluster = homogeneous_cluster(1, Resources.of(8, 8))
        job = make_single_task_job(theta=100.0)
        with pytest.raises(RuntimeError, match="max_time"):
            run(cluster, [job], max_time=10.0)

    def test_starvation_detected(self):
        cluster = homogeneous_cluster(1, Resources.of(8, 8))
        job = make_single_task_job(theta=5.0)

        class DoNothing(Scheduler):
            name = "lazy"

            def schedule(self, view):
                pass

        engine = SimulationEngine(cluster, DoNothing(), [job], max_time=100)
        with pytest.raises(RuntimeError, match="starved"):
            engine.run()

    def test_empty_workload_runs_clean(self, small_cluster):
        # A service session may start idle: an empty job list must yield
        # a clean zero-event result, not a crash (the old slotted path
        # read jobs[0] unconditionally).
        for interval in (0.0, 5.0):
            engine = SimulationEngine(
                small_cluster, FIFOScheduler(), [], schedule_interval=interval
            )
            result = engine.run()
            assert result.num_jobs == 0
            assert result.events_processed == 0
            assert result.simulated_time == 0.0
            assert result.makespan == 0.0
            assert result.mean_flowtime == 0.0
            assert result.mean_running_time == 0.0
            assert result.summary()["jobs"] == 0.0


class TestAccounting:
    def test_utilization_integral(self):
        cluster = homogeneous_cluster(1, Resources.of(2, 2))
        # One 1-core/1-GB task for 10s on a 2-core/2-GB server,
        # sim ends at t=10 → average utilization 50%.
        job = make_single_task_job(cpu=1.0, mem=1.0, theta=10.0)
        engine, result = run(cluster, [job])
        assert result.avg_utilization.cpu == pytest.approx(0.5)
        assert result.avg_utilization.mem == pytest.approx(0.5)

    def test_copies_counted(self, small_cluster):
        job = make_chain_job(1, 5, theta=2.0)
        engine, _ = run(small_cluster, [job])
        assert engine.copies_launched == 5
        assert engine.clones_launched == 0

    def test_schedule_overhead_recorded(self, small_cluster):
        job = make_single_task_job(theta=1.0)
        engine, result = run(small_cluster, [job])
        count, total, longest = result.schedule_pass_seconds
        assert count == engine.schedule_passes >= 1
        assert 0 <= longest <= total

    def test_determinism_same_seed(self):
        def go():
            cluster = homogeneous_cluster(2, Resources.of(4, 4))
            jobs = [
                make_chain_job(2, 3, theta=10.0, sigma=5.0, job_id=k, arrival_time=k)
                for k in range(3)
            ]
            _, result = run(cluster, jobs, seed=7)
            return [r.finish_time for r in result.records]

        assert go() == go()

    def test_different_seed_different_outcome(self):
        def go(seed):
            cluster = homogeneous_cluster(2, Resources.of(4, 4))
            jobs = [make_chain_job(1, 4, theta=10.0, sigma=6.0, job_id=0)]
            _, result = run(cluster, jobs, seed=seed)
            return result.records[0].finish_time

        assert go(1) != go(2)


class TestFinishedWork:
    """A finished task folds its copies into its ledger and a finished job
    leaves the engine as its record (DESIGN.md §5.8)."""

    @staticmethod
    def _alive() -> dict:
        objs = gc.get_objects()
        return {
            cls.__name__: sum(1 for o in objs if type(o) is cls)
            for cls in (Job, Phase, Task, TaskCopy)
        }

    def test_finished_work_freed_by_reference_counting(self):
        """With the cyclic collector off, nothing of a finished run's
        jobs survives ``run()``: no engine or source list keeps a job,
        and breaking the job ↔ phase ↔ task ↔ copy cycles lets reference
        counting free each job as it finishes."""
        gc.collect()
        before = self._alive()
        gc.disable()
        try:
            specs = GoogleTraceGenerator(seed=0).generate(300, mean_interarrival=2.0)
            engine = SimulationEngine(
                trace_sim_cluster(300, seed=0),
                DollyMPScheduler(max_clones=2),
                jobs_from_specs(specs),
                seed=0,
                schedule_interval=5.0,
                max_time=1e9,
            )
            result = engine.run()
            after = self._alive()
        finally:
            gc.enable()
        assert result.num_jobs == 300
        assert result.copies_launched > result.num_jobs
        assert after == before
        assert engine.arrivals.exhausted and not list(engine.arrivals.remaining())
        assert not engine.active_jobs
        assert len(engine.records) == 300

    def test_records_kept_in_finish_order(self, small_cluster):
        late = make_single_task_job(theta=1.0, job_id=1)
        early = make_single_task_job(theta=5.0, job_id=2)
        engine, result = run(small_cluster, [early, late])
        assert [r.job_id for r in engine.records] == [1, 2]
        assert [r.job_id for r in result.records] == [1, 2]
        assert late.released and early.released

    def test_start_queues_jobs_and_forgets_them(self, small_cluster):
        """``start()`` takes only the first job from the source, which
        forgets it: its arrival event is then the only name for it."""
        job = make_single_task_job(theta=1.0, job_id=3)
        later = make_single_task_job(theta=1.0, arrival_time=5.0, job_id=4)
        engine = SimulationEngine(small_cluster, FIFOScheduler(), [later, job])
        assert list(engine.arrivals.remaining()) == [job, later]
        engine.start()
        assert len(engine.events) == 1
        event = engine.events.peek()
        assert (event.kind, event.payload) == (EventKind.JOB_ARRIVAL, job)
        assert list(engine.arrivals.remaining()) == [later]


def _trace_engine(**kw):
    specs = GoogleTraceGenerator(seed=0).generate(12, mean_interarrival=2.0)
    return SimulationEngine(
        trace_sim_cluster(60, seed=0),
        DollyMPScheduler(max_clones=2),
        jobs_from_specs(specs),
        seed=0,
        schedule_interval=5.0,
        max_time=1e9,
        **kw,
    )


def _finished(**kw):
    engine = _trace_engine(**kw)
    engine.run()
    return engine


def _finished_chaos():
    engine = _finished(fault_profile=FAULT_PROFILES["chaos"], churn_seed=1)
    assert engine.faults_injected > 0
    return engine


def _mid_run_checkpoint() -> bytes:
    engine = _trace_engine(
        observability=Observability(),
        fault_profile=FAULT_PROFILES["chaos"],
        churn_seed=1,
        sanitize=True,
    )
    engine.run_until(15.0)
    assert engine.active_jobs and engine.faults_injected > 0
    return checkpoint_bytes(engine)[0]


def _restored_mid_run():
    return restore_bytes(_mid_run_checkpoint())


class TestOwnership:
    """Nothing the engine owns points back at it (DESIGN.md §5.8): views
    are built per call, and the tracer, fault injector and sanitizer
    take the engine's clock or the engine itself as an argument.  So
    with the cyclic collector off, dropping an engine's last name frees
    it and its mirror at once, and a finished run's work with them."""

    @pytest.mark.parametrize(
        "make, finished",
        [
            (_finished, True),
            (lambda: _finished(observability=Observability()), True),
            (_finished_chaos, True),
            (lambda: _finished(sanitize=True), True),
            (_restored_mid_run, False),
        ],
        ids=["plain", "observability", "chaos", "sanitize", "restored-mid-run"],
    )
    def test_dropped_engine_freed_by_reference_counting(self, make, finished):
        gc.collect()
        before = TestFinishedWork._alive()
        gc.disable()
        try:
            engine = make()
            refs = (weakref.ref(engine), weakref.ref(engine.cluster.mirror.alloc_cpu))
            del engine
            dead = [ref() is None for ref in refs]
            after = TestFinishedWork._alive()
        finally:
            gc.enable()
        assert dead == [True, True]
        if finished:
            assert after == before

    def test_dropped_restore_freed_by_a_young_collection(self):
        """A restored session's active jobs are ``Job`` ↔ ``Phase`` ↔
        ``Task`` ↔ ``TaskCopy`` cycles.  ``restore_bytes`` revives them
        with the collector paused, so they start in the youngest
        generation, and a session dropped at once is freed by the next
        young collection.  The caller's collector setting survives."""
        payload = _mid_run_checkpoint()
        gc.collect()
        before = TestFinishedWork._alive()
        restore_bytes(payload)
        gc.collect(0)
        assert TestFinishedWork._alive() == before
        assert gc.isenabled()
        gc.disable()
        try:
            restore_bytes(payload)
            assert not gc.isenabled()
        finally:
            gc.enable()
