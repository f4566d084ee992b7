"""Transient slowdown windows: scaling, exact restore, no stacking
(DESIGN.md §5.5)."""

import pytest

from repro.cluster.heterogeneity import homogeneous_cluster
from repro.faults import FaultProfile
from repro.resources import Resources
from repro.schedulers.fifo import FIFOScheduler
from repro.sim.engine import SimulationEngine
from tests.conftest import make_single_task_job


def _engine_with_brownout(slowdown=1.3):
    cluster = homogeneous_cluster(2, Resources.of(4, 8), slowdown=slowdown)
    jobs = [make_single_task_job(theta=15.0, job_id=0)]
    return SimulationEngine(
        cluster,
        FIFOScheduler(),
        jobs,
        seed=2,
        fault_profile=FaultProfile(slowdown_rate=1.0 / 900.0, slowdown_factor=3.0),
    )


class TestWindowMechanics:
    def test_slow_start_scales_factor(self):
        engine = _engine_with_brownout(slowdown=1.3)
        server = engine.cluster[0]
        engine.faults.on_slow_start(engine, server)
        assert server.slowdown == pytest.approx(1.3 * 3.0)

    def test_slow_end_restores_exactly(self):
        """The pre-window slowdown comes back bit-for-bit — the window
        is a brownout entry beside the class value, not a factor divided
        back out (no float drift)."""
        engine = _engine_with_brownout(slowdown=1.3)
        server = engine.cluster[0]
        before = server.slowdown
        engine.faults.on_slow_start(engine, server)
        engine.faults.on_slow_end(engine, server)
        assert server.slowdown == before

    def test_nested_windows_do_not_stack(self):
        engine = _engine_with_brownout(slowdown=1.3)
        server = engine.cluster[0]
        engine.faults.on_slow_start(engine, server)
        engine.faults.on_slow_start(engine, server)  # overlapping window
        assert server.slowdown == pytest.approx(1.3 * 3.0)  # not ×9
        engine.faults.on_slow_end(engine, server)
        assert server.slowdown == 1.3

    def test_slow_end_without_start_is_noop(self):
        engine = _engine_with_brownout(slowdown=1.3)
        server = engine.cluster[0]
        engine.faults.on_slow_end(engine, server)
        assert server.slowdown == 1.3


class TestBrownoutEndToEnd:
    def test_brownout_stretches_durations(self):
        """With windows open essentially always, copies launched inside
        one take slowdown_factor× longer than the nominal run."""

        def run_with(rate):
            cluster = homogeneous_cluster(2, Resources.of(4, 8), slowdown=1.0)
            # Arrives at t=1: the first windows (arriving at rate ~1e6/s)
            # are already open when the copy launches.
            jobs = [make_single_task_job(theta=10.0, arrival_time=1.0, job_id=0)]
            profile = (
                FaultProfile(
                    slowdown_rate=rate,
                    slowdown_factor=2.0,
                    slowdown_duration=1e6,
                )
                if rate
                else None
            )
            engine = SimulationEngine(
                cluster, FIFOScheduler(), jobs, seed=4, fault_profile=profile
            )
            return engine.run()

        nominal = run_with(None)
        assert nominal.records[0].flowtime == pytest.approx(10.0)
        # Window arrival mean ~1e-6 s: open before the launch with
        # overwhelming probability, lasting ~1e6 s.
        slowed = run_with(1e6)
        assert slowed.records[0].flowtime == pytest.approx(20.0)
        assert slowed.faults_injected >= 1

    def test_brownout_run_deterministic_and_sanitized(self):
        def run_once():
            cluster = homogeneous_cluster(4, Resources.of(4, 8), slowdown=1.2)
            jobs = [
                make_single_task_job(theta=15.0, arrival_time=5.0 * i, job_id=i)
                for i in range(5)
            ]
            engine = SimulationEngine(
                cluster,
                FIFOScheduler(),
                jobs,
                seed=9,
                sanitize=True,
                fault_profile=FaultProfile(
                    slowdown_rate=1.0 / 30.0, slowdown_factor=2.0, slowdown_duration=20.0
                ),
            )
            return engine.run()

        a, b = run_once(), run_once()
        assert len(a.records) == 5
        assert a.records == b.records
