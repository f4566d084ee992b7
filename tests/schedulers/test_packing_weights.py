"""Tests for the server-weight hook in the placement loop."""

from repro.cluster.cluster import Cluster
from repro.resources import Resources
from repro.schedulers.base import Scheduler
from repro.schedulers.packing import fill_tasks_best_fit, pending_by_phase
from repro.sim.engine import SimulationEngine
from repro.workload.distributions import Deterministic
from repro.workload.job import Job
from repro.workload.phase import Phase


class _Null(Scheduler):
    name = "null"

    def schedule(self, view):
        pass


def make_view(cluster, jobs):
    engine = SimulationEngine(cluster, _Null(), jobs)
    for j in jobs:
        engine.active_jobs[j.job_id] = j
    return engine.view


def identical_two_server_cluster():
    return Cluster.build([(Resources.of(8, 8), 1.0)] * 2)


class TestServerWeight:
    def test_weight_overrides_alignment_tie(self):
        cluster = identical_two_server_cluster()
        phase = Phase(0, 1, Resources.of(1, 1), Deterministic(5.0))
        job = Job([phase])
        view = make_view(cluster, [job])
        fill_tasks_best_fit(
            view,
            pending_by_phase(job),
            server_weight=lambda s: 0.1 if s.server_id == 0 else 1.0,
        )
        assert phase.task(0).copies[0].server_id == 1

    def test_none_weight_keeps_default_behaviour(self):
        cluster = identical_two_server_cluster()
        phase = Phase(0, 2, Resources.of(4, 4), Deterministic(5.0))
        job = Job([phase])
        view = make_view(cluster, [job])
        launched = fill_tasks_best_fit(view, pending_by_phase(job), server_weight=None)
        assert launched == 2

    def test_zero_weight_still_places_when_only_option(self):
        """A down-weighted server is dispreferred, not forbidden."""
        cluster = Cluster.build([(Resources.of(8, 8), 1.0)])
        phase = Phase(0, 1, Resources.of(1, 1), Deterministic(5.0))
        job = Job([phase])
        view = make_view(cluster, [job])
        launched = fill_tasks_best_fit(
            view, pending_by_phase(job), server_weight=lambda s: 0.5
        )
        assert launched == 1
