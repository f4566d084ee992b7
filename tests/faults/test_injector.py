"""The injector's clock guard: a fault setting whose drawn intervals do
not advance simulated time fails at the first such draw, naming the
setting, where the run used to process the same instant forever."""

from __future__ import annotations

import pytest

from repro.cluster.heterogeneity import homogeneous_cluster
from repro.faults import FaultProfile
from repro.faults.injector import FaultInjector
from repro.resources import Resources
from repro.schedulers.fifo import FIFOScheduler
from repro.sim.engine import SimulationEngine
from tests.conftest import make_chain_job

#: Instants a run may take before the guard must have fired; a run the
#: guard misses would step this many times and fail instead of hanging.
STEP_BUDGET = 5_000


def _engine(profile: FaultProfile) -> SimulationEngine:
    jobs = [make_chain_job(2, 3, theta=12.0, sigma=3.0, arrival_time=40.0 * i, job_id=i)
            for i in range(2)]
    return SimulationEngine(
        homogeneous_cluster(4, Resources.of(8, 16)),
        FIFOScheduler(),
        jobs,
        seed=3,
        fault_profile=profile,
    )


@pytest.mark.parametrize(
    "setting, profile",
    [
        ("copy_fail_rate", FaultProfile(copy_fail_rate=1e300)),
        ("mtbf", FaultProfile(mtbf=1e-300)),
        ("mttr", FaultProfile(mtbf=50.0, mttr=1e-300)),
        ("slowdown_rate", FaultProfile(slowdown_rate=1e300)),
        ("slowdown_duration", FaultProfile(slowdown_rate=0.05, slowdown_duration=1e-300)),
    ],
)
def test_setting_whose_draws_stop_the_clock_is_named(setting, profile):
    engine = _engine(profile)
    with pytest.raises(ValueError, match=f"^{setting}=") as exc:
        engine.start()
        for _ in range(STEP_BUDGET):
            if not engine.step():
                break
    assert "does not advance the clock" in str(exc.value)


def test_draw_absorbed_late_in_a_run_is_named():
    """At t = 1e20 s a repair time of about a minute is below the
    clock's ulp, so the recovery would land on the crash's instant."""
    engine = _engine(FaultProfile(mtbf=50.0))
    engine.now = 1e20
    with pytest.raises(ValueError, match="^mttr=60.0: a drawn interval of .* at t=1e\\+20"):
        engine.faults.schedule_recovery(engine, 0)


def test_guard_draws_nothing_of_its_own():
    """Each interval is one draw from the churn stream, as before the
    guard: a run's fault realization is unchanged."""
    profile = FaultProfile(mtbf=50.0, copy_fail_rate=0.01, slowdown_rate=0.02)
    injector = FaultInjector(profile, churn_seed=5)
    twin = FaultInjector(profile, churn_seed=5)
    engine = _engine(profile)
    injector.prime(engine)
    draws = [twin._after(0.0, profile.mtbf, "mtbf") for _ in range(2 * len(engine.cluster))]
    assert injector.rng.bit_generator.state == twin.rng.bit_generator.state
    assert len(draws) == len(engine.events) > 0
