"""Engine tests for phase start delays (the shuffle/data-transfer model)."""

import pytest

from repro.cluster.heterogeneity import homogeneous_cluster
from repro.core.online import DollyMPScheduler
from repro.resources import Resources
from repro.schedulers.fifo import FIFOScheduler
from repro.schedulers.tetris import TetrisScheduler
from repro.sim.engine import SimulationEngine
from repro.workload.distributions import Deterministic
from repro.workload.job import Job
from repro.workload.mapreduce import mapreduce_job
from repro.workload.phase import Phase
from tests.conftest import all_tasks


def delayed_chain(delay: float, theta: float = 10.0) -> Job:
    phases = [
        Phase(0, 1, Resources.of(1, 1), Deterministic(theta)),
        Phase(
            1, 1, Resources.of(1, 1), Deterministic(theta),
            parents=(0,), start_delay=delay,
        ),
    ]
    return Job(phases)


class TestPhaseReadyTime:
    def test_root_phase_ready_at_arrival(self):
        job = delayed_chain(5.0)
        assert job.phase_ready_time(job.phases[0]) == job.arrival_time

    def test_child_none_until_parent_done(self):
        job = delayed_chain(5.0)
        assert job.phase_ready_time(job.phases[1]) is None

    def test_time_gating(self):
        job = delayed_chain(5.0)
        for t in all_tasks(job.phases[0]):
            t.complete(10.0)
        assert job.phase_ready_time(job.phases[1]) == 15.0
        assert not job.phase_ready(job.phases[1], 12.0)
        assert job.phase_ready(job.phases[1], 15.0)
        # Without a clock the gate is dependency-only (legacy semantics).
        assert job.phase_ready(job.phases[1])

    def test_ready_phases_respects_clock(self):
        job = delayed_chain(5.0)
        for t in all_tasks(job.phases[0]):
            t.complete(10.0)
        assert [p.index for p in job.ready_phases(12.0)] == []
        assert [p.index for p in job.ready_phases(15.0)] == [1]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Phase(0, 1, Resources.of(1, 1), Deterministic(1.0), start_delay=-1.0)


@pytest.mark.parametrize(
    "make_sched",
    [FIFOScheduler, TetrisScheduler, lambda: DollyMPScheduler(max_clones=1)],
)
class TestEngineHonorsDelay:
    def test_event_driven(self, make_sched):
        cluster = homogeneous_cluster(1, Resources.of(8, 8))
        job = delayed_chain(delay=7.0, theta=10.0)
        # One task per phase; held here, their ledgers outlive the job's
        # released graph.
        (first,), (second,) = (all_tasks(p) for p in job.phases)
        engine = SimulationEngine(cluster, make_sched(), [job], max_time=1e4)
        engine.run()
        # Phase 0: [0, 10); shuffle until 17; phase 1: [17, 27).
        assert first.finish_time == pytest.approx(10.0)
        assert second.start_time == pytest.approx(17.0)
        assert job.finish_time == pytest.approx(27.0)

    def test_slotted(self, make_sched):
        cluster = homogeneous_cluster(1, Resources.of(8, 8))
        job = delayed_chain(delay=7.0, theta=10.0)
        second = job.phases[1].task(0)
        engine = SimulationEngine(
            cluster, make_sched(), [job], schedule_interval=5.0, max_time=1e4
        )
        engine.run()
        # Ready at 17, first slot after that is 20.
        assert second.start_time == pytest.approx(20.0)


class TestMapReduceShuffle:
    def test_builder_wires_delay(self):
        job = mapreduce_job(
            num_map=2, num_reduce=1, map_theta=5.0, reduce_theta=5.0,
            shuffle_delay=3.5,
        )
        assert job.phases[1].start_delay == 3.5
        assert job.phases[0].start_delay == 0.0

    def test_zero_delay_matches_legacy_timing(self):
        cluster = homogeneous_cluster(1, Resources.of(8, 8))
        job = delayed_chain(delay=0.0, theta=10.0)
        SimulationEngine(cluster, FIFOScheduler(), [job], max_time=1e4).run()
        assert job.finish_time == pytest.approx(20.0)
