"""Tests for the straggler-server learning extension (future work of the
paper, implemented in repro.core.server_learning)."""

import math

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.core.server_learning import LearningDollyMPScheduler, StragglerServerTracker
from repro.core.online import DollyMPScheduler
from repro.resources import Resources
from repro.sim.runner import run_simulation
from repro.workload.distributions import ParetoType1
from repro.workload.job import Job
from repro.workload.phase import Phase
from repro.workload.task import TaskCopy
from tests.conftest import all_tasks, make_chain_job


class TestTracker:
    def test_validation(self):
        with pytest.raises(ValueError):
            StragglerServerTracker(alpha=0.0)
        with pytest.raises(ValueError):
            StragglerServerTracker(min_samples=0)
        with pytest.raises(ValueError):
            StragglerServerTracker().observe(0, -1.0, 1.0)

    def test_defaults_to_nominal_until_confident(self):
        t = StragglerServerTracker(min_samples=5)
        for _ in range(4):
            t.observe(0, 30.0, 10.0)  # clearly slow, but few samples
        assert t.estimated_slowdown(0) == 1.0
        t.observe(0, 30.0, 10.0)
        assert t.estimated_slowdown(0) > 1.0

    def test_converges_to_constant_slowdown(self):
        t = StragglerServerTracker(alpha=0.2, min_samples=1)
        for _ in range(200):
            t.observe(3, 20.0, 10.0)  # steady 2× slowdown
        assert t.estimated_slowdown(3) == pytest.approx(2.0, rel=0.01)

    def test_tracks_drift(self):
        t = StragglerServerTracker(alpha=0.3, min_samples=1)
        for _ in range(100):
            t.observe(0, 10.0, 10.0)
        assert t.estimated_slowdown(0) == pytest.approx(1.0, rel=0.05)
        for _ in range(100):
            t.observe(0, 40.0, 10.0)  # background load arrives
        assert t.estimated_slowdown(0) == pytest.approx(4.0, rel=0.05)

    def test_geometric_averaging_resists_heavy_tails(self):
        """One enormous straggler draw should not wreck the estimate."""
        t = StragglerServerTracker(alpha=0.1, min_samples=1)
        for _ in range(50):
            t.observe(0, 10.0, 10.0)
        t.observe(0, 10_000.0, 10.0)  # a 1000× outlier
        assert t.estimated_slowdown(0) < 2.5

    def test_risky_servers(self):
        t = StragglerServerTracker(alpha=1.0, min_samples=1)
        t.observe(0, 10.0, 10.0)
        t.observe(1, 30.0, 10.0)
        t.observe(2, 9.0, 10.0)
        assert t.risky_servers(threshold=1.5) == [1]

    def test_observe_task_duration_signal_from_winner_only(self):
        phase = Phase(0, 1, Resources.of(1, 1), ParetoType1.from_moments(10, 5))
        Job([phase])
        task = phase.task(0)
        winner = TaskCopy(task, 0, 0.0, 12.0, is_clone=False)
        loser = TaskCopy(task, 1, 0.0, 100.0, is_clone=True)
        task.add_copy(winner)
        task.add_copy(loser)
        winner.finished = True
        loser.killed = True
        loser.duration = 12.0  # truncated at kill
        t = StragglerServerTracker(min_samples=1)
        t.observe_task(task)
        assert t.samples(0) == 1
        assert t.samples(1) == 0  # censored duration ignored
        # ... but both copies feed the win-rate signal.
        assert t.contested(0) == 1 and t.contested(1) == 1
        # Once folded the copies (and their servers) are gone: observing
        # the task then is a caller bug, not an empty observation.
        task.complete(12.0)
        task.fold()
        with pytest.raises(RuntimeError, match="already folded"):
            t.observe_task(task)

    def test_win_rate_deficit_flags_censored_slow_server(self):
        """A server that always loses its races is flagged even though
        its durations are never (uncensored-)observed — the selection-
        bias case that pure duration tracking misses."""
        t = StragglerServerTracker(min_samples=5)
        phase = Phase(0, 40, Resources.of(1, 1), ParetoType1.from_moments(10, 5))
        Job([phase])
        for i, task in enumerate(all_tasks(phase)):
            winner = TaskCopy(task, 1, 0.0, 10.0, is_clone=False)
            loser = TaskCopy(task, 0, 0.0, 40.0, is_clone=True)  # always loses
            task.add_copy(winner)
            task.add_copy(loser)
            winner.finished = True
            loser.killed = True
            loser.duration = 10.0
            t.observe_task(task)
        assert t.win_rate_factor(0) > 2.0      # expected 20 wins, saw 0
        assert t.estimated_slowdown(0) > 1.5   # flagged
        assert t.estimated_slowdown(1) <= 1.5  # the fast server is fine
        assert t.risky_servers(1.5) == [0]

    def test_balanced_races_keep_factor_near_one(self):
        t = StragglerServerTracker(min_samples=5)
        phase = Phase(0, 40, Resources.of(1, 1), ParetoType1.from_moments(10, 5))
        Job([phase])
        for i, task in enumerate(all_tasks(phase)):
            a = TaskCopy(task, 0, 0.0, 10.0, is_clone=False)
            b = TaskCopy(task, 1, 0.0, 10.0, is_clone=True)
            task.add_copy(a)
            task.add_copy(b)
            winner, loser = (a, b) if i % 2 == 0 else (b, a)
            winner.finished = True
            loser.killed = True
            t.observe_task(task)
        assert t.win_rate_factor(0) < 1.2
        assert t.win_rate_factor(1) < 1.2


class TestLearningScheduler:
    def test_name_and_validation(self):
        s = LearningDollyMPScheduler(max_clones=1)
        assert s.name == "LearningDollyMP^1"
        with pytest.raises(ValueError):
            LearningDollyMPScheduler(bias=-1.0)

    def test_weight_prefers_fast_servers(self):
        s = LearningDollyMPScheduler(bias=1.0)
        s.tracker = StragglerServerTracker(alpha=1.0, min_samples=1)
        s.tracker.observe(0, 40.0, 10.0)  # 4× slow
        s.tracker.observe(1, 10.0, 10.0)  # nominal
        slow, fast = Cluster.build([(Resources.of(8, 8), 1.0)] * 2)
        assert s.server_weight(fast) > s.server_weight(slow)

    def test_avoids_learned_slow_server(self):
        """On a cluster with one pathologically slow node, the learning
        scheduler shifts work away and beats plain DollyMP⁰."""

        def make_cluster():
            return Cluster.build(
                [
                    (Resources.of(4, 8), 8.0),  # the bad node
                    (Resources.of(4, 8), 1.0),
                    (Resources.of(4, 8), 1.0),
                ]
            )

        def make_jobs():
            return [
                make_chain_job(
                    1, 6, theta=10.0, sigma=3.0, arrival_time=30.0 * k, job_id=k
                )
                for k in range(25)
            ]

        plain = run_simulation(
            make_cluster(),
            DollyMPScheduler(max_clones=0),
            make_jobs(),
            seed=3,
            max_time=1e6,
        )
        learned = run_simulation(
            make_cluster(),
            LearningDollyMPScheduler(max_clones=0, bias=2.0),
            make_jobs(),
            seed=3,
            max_time=1e6,
        )
        assert learned.mean_running_time < plain.mean_running_time

    def test_bias_zero_matches_plain_dollymp(self):
        def make_cluster():
            return Cluster.build([(Resources.of(8, 16), 1.0)] * 2)

        def make_jobs():
            return [make_chain_job(2, 4, theta=5.0, sigma=2.0, job_id=k) for k in range(5)]

        a = run_simulation(
            make_cluster(), DollyMPScheduler(max_clones=2), make_jobs(), seed=9,
            max_time=1e6,
        )
        b = run_simulation(
            make_cluster(),
            LearningDollyMPScheduler(max_clones=2, bias=0.0),
            make_jobs(),
            seed=9,
            max_time=1e6,
        )
        assert a.total_flowtime == pytest.approx(b.total_flowtime)
