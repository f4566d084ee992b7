"""The runtime sanitizer must catch every class of injected corruption.

Each test launches a real copy through the engine, then corrupts state
the way a buggy scheduler or bookkeeping refactor would, and asserts the
sanitizer names the right violation class (and entity).  Direct writes
to the mirror's state arrays are the *point* of these tests — the file
is on RL001's ignore list in ``[tool.repro-lint]``.
"""

from __future__ import annotations

import pytest

from repro.cluster.heterogeneity import homogeneous_cluster
from repro.core.online import DollyMPScheduler
from repro.devtools.sanitizer import (
    InvariantKind,
    SanitizerError,
    SimulationSanitizer,
)
from repro.resources import Resources
from repro.schedulers.fifo import FIFOScheduler
from repro.sim.checkpoint import checkpoint_bytes, restore_bytes
from repro.sim.engine import SimulationEngine
from repro.sim.runner import run_simulation
from repro.workload.task import TaskState
from tests.conftest import make_chain_job, make_single_task_job


def engine_with_running_copy(*, scheduler=None, sanitize=False):
    """An engine mid-simulation with exactly one live copy placed."""
    cluster = homogeneous_cluster(2, Resources.of(8, 16))
    job = make_single_task_job(theta=50.0)
    engine = SimulationEngine(
        cluster, scheduler or FIFOScheduler(), [job], sanitize=sanitize
    )
    engine._process_arrival(job)
    task = job.phases[0].task(0)
    copy = engine.view.launch(task, cluster[0])
    return engine, task, copy


def kinds(violations):
    return {v.kind for v in violations}


class TestCleanState:
    def test_no_violations_right_after_launch(self):
        engine, _, _ = engine_with_running_copy()
        sanitizer = SimulationSanitizer(engine)
        assert sanitizer.check(engine) == []

    def test_after_event_passes_on_clean_state(self):
        engine, _, _ = engine_with_running_copy()
        SimulationSanitizer(engine).after_event(engine, "LAUNCH @ t=0")


class TestCapacityConservation:
    def test_phantom_allocation_detected(self):
        engine, _, copy = engine_with_running_copy()
        mirror = engine.cluster.mirror
        # A lost release: allocation grows without a resident copy.
        mirror.alloc_cpu[0] += 1.0
        mirror.alloc_mem[0] += 2.0
        mirror.update(0)  # keep availability coherent on purpose
        violations = SimulationSanitizer(engine).check(engine, "corrupt")
        assert InvariantKind.CAPACITY_CONSERVATION in kinds(violations)
        v = next(
            v for v in violations if v.kind is InvariantKind.CAPACITY_CONSERVATION
        )
        assert v.server_id == 0

    def test_double_release_detected(self):
        engine, task, copy = engine_with_running_copy()
        # Buggy cleanup path: the server releases the copy while the
        # engine still counts it live and expects its finish event.
        engine.cluster[0].release(copy)
        violations = SimulationSanitizer(engine).check(engine, "double release")
        assert InvariantKind.CAPACITY_CONSERVATION in kinds(violations)
        v = next(
            v for v in violations if v.kind is InvariantKind.CAPACITY_CONSERVATION
        )
        assert v.task_uid == task.uid
        assert "released" in v.message

    def test_idle_server_allocation_residue_detected(self):
        engine, _, _ = engine_with_running_copy()
        mirror = engine.cluster.mirror
        # Server 1 hosts nothing: any allocation, however tiny, is a
        # release that missed the idle snap to exactly zero.
        mirror.alloc_cpu[1] = 1e-12
        mirror.update(1)
        violations = SimulationSanitizer(engine).check(engine, "residue")
        v = next(
            v for v in violations if v.kind is InvariantKind.CAPACITY_CONSERVATION
        )
        assert v.server_id == 1
        assert "idle" in v.message

    def test_dead_copy_still_resident_detected(self):
        engine, task, copy = engine_with_running_copy()
        # Mark the copy dead without releasing its reservation.
        copy.killed = True
        violations = SimulationSanitizer(engine).check(engine, "leak")
        assert InvariantKind.CAPACITY_CONSERVATION in kinds(violations)

    def test_early_release_detected_when_a_new_copy_shares_the_server(self):
        """A restored copy and a copy launched after the restore on the
        same server: copies carry no id, so the check tells them apart
        by identity.  Releasing the restored copy early must be
        reported, naming it by its task and launch index, and the new
        copy must stay clean."""
        engine, _, _ = engine_with_running_copy()
        restored = restore_bytes(checkpoint_bytes(engine)[0])
        (old,) = restored.cluster.mirror.resident[0]
        job = make_single_task_job(theta=50.0, job_id=1)
        restored._process_arrival(job)
        new = restored.view.launch(job.phases[0].task(0), restored.cluster[0])
        assert restored.cluster[0].running_copies == (old, new)
        restored.cluster[0].release(old)  # still live
        violations = SimulationSanitizer(restored).check(restored, "early release")
        early = [v for v in violations if "released early" in v.message]
        assert [v.task_uid for v in early] == [old.task.uid]
        assert f"live copy {old.task.uid}#0 " in early[0].message


class TestMirrorCoherence:
    def test_mutated_mirror_array_detected(self):
        engine, _, _ = engine_with_running_copy()
        engine.cluster.mirror.avail_cpu[1] += 2.0
        violations = SimulationSanitizer(engine).check(engine, "mirror poke")
        assert kinds(violations) == {InvariantKind.MIRROR_COHERENCE}
        v = violations[0]
        assert v.server_id == 1
        assert "avail_cpu" in v.message

    def test_allocation_write_without_update_detected(self):
        engine, _, _ = engine_with_running_copy()
        # Availability not re-derived after an allocation change.
        engine.cluster.mirror.alloc_mem[0] += 1.0
        violations = SimulationSanitizer(engine).check(engine, "stale")
        v = next(v for v in violations if v.kind is InvariantKind.MIRROR_COHERENCE)
        assert v.server_id == 0
        assert "avail_mem" in v.message

    def test_loose_block_bound_detected(self):
        engine, _, _ = engine_with_running_copy()
        engine.cluster.mirror._ub_cpu[0] = 0.0  # below every member
        violations = SimulationSanitizer(engine).check(engine, "bound")
        assert kinds(violations) == {InvariantKind.MIRROR_COHERENCE}
        assert "block 0" in violations[0].message


class TestNegativeAvailability:
    def test_negative_available_detected(self):
        engine, _, _ = engine_with_running_copy()
        mirror = engine.cluster.mirror
        # Conservation-preserving corruption of server 1's arrays: only
        # the sign check fires on the server itself (plus staleness).
        mirror.avail_cpu[1] = -1.0
        mirror.avail_mem[1] += 1.0
        mirror.alloc_cpu[1] = mirror.capacity(1).cpu + 1.0
        mirror.alloc_mem[1] = -1.0
        violations = SimulationSanitizer(engine).check(engine, "negative")
        assert InvariantKind.NEGATIVE_AVAILABILITY in kinds(violations)
        v = next(
            v for v in violations if v.kind is InvariantKind.NEGATIVE_AVAILABILITY
        )
        assert v.server_id == 1


class TestCloneBound:
    def test_exceeding_clone_cap_detected(self):
        engine, task, _ = engine_with_running_copy(
            scheduler=DollyMPScheduler(max_clones=2)
        )
        # DollyMP² allows 3 live copies; launch 3 more clones = 4 live.
        for _ in range(3):
            engine.view.launch(task, engine.cluster[1], clone=True)
        violations = SimulationSanitizer(engine).check(engine, "over-cloned")
        assert InvariantKind.CLONE_BOUND in kinds(violations)
        v = next(v for v in violations if v.kind is InvariantKind.CLONE_BOUND)
        assert v.task_uid == task.uid
        assert "4 live copies" in v.message

    def test_cap_within_bound_is_clean(self):
        engine, task, _ = engine_with_running_copy(
            scheduler=DollyMPScheduler(max_clones=2)
        )
        for _ in range(2):
            engine.view.launch(task, engine.cluster[1], clone=True)
        assert SimulationSanitizer(engine).check(engine) == []

    def test_corrupted_live_counter_detected(self):
        engine, task, _ = engine_with_running_copy()
        task._live_count += 1
        violations = SimulationSanitizer(engine).check(engine, "counter")
        assert InvariantKind.CLONE_BOUND in kinds(violations)

    def test_cap_inferred_from_policy(self):
        engine, _, _ = engine_with_running_copy(
            scheduler=DollyMPScheduler(max_clones=1)
        )
        assert SimulationSanitizer(engine).max_copies == 2


class TestTimeMonotonicity:
    def test_backwards_time_detected(self):
        engine, _, _ = engine_with_running_copy()
        sanitizer = SimulationSanitizer(engine)
        engine.now = 10.0
        assert sanitizer.check(engine, "t=10") == []
        engine.now = 5.0
        violations = sanitizer.check(engine, "t=5")
        assert kinds(violations) == {InvariantKind.TIME_MONOTONICITY}


class TestEngineIntegration:
    def test_after_event_raises_structured_error(self):
        engine, _, _ = engine_with_running_copy()
        engine.cluster.mirror.alloc_mem[0] = 99.0
        sanitizer = SimulationSanitizer(engine)
        with pytest.raises(SanitizerError) as excinfo:
            sanitizer.after_event(engine, "COPY_FINISH @ t=42")
        err = excinfo.value
        assert err.violations
        assert "mirror-coherence" in str(err)
        assert "COPY_FINISH @ t=42" in str(err)

    def test_engine_raises_mid_run_on_corruption(self):
        """A scheduler that corrupts the mirror is caught on the very
        next event, with the event named in the report."""

        class CorruptingScheduler(FIFOScheduler):
            def schedule(self, view):
                super().schedule(view)
                view.cluster.mirror.avail_cpu[0] = 1234.5

        cluster = homogeneous_cluster(2, Resources.of(8, 16))
        job = make_single_task_job(theta=10.0)
        engine = SimulationEngine(
            cluster, CorruptingScheduler(), [job], sanitize=True
        )
        with pytest.raises(SanitizerError) as excinfo:
            engine.run()
        assert any(
            v.kind is InvariantKind.MIRROR_COHERENCE for v in excinfo.value.violations
        )

    def test_sanitize_env_toggle(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        cluster = homogeneous_cluster(2, Resources.of(8, 16))
        engine = SimulationEngine(
            cluster, FIFOScheduler(), [make_single_task_job(theta=5.0)]
        )
        assert engine.sanitizer is not None
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        engine = SimulationEngine(
            cluster := homogeneous_cluster(2, Resources.of(8, 16)),
            FIFOScheduler(),
            [make_single_task_job(theta=5.0)],
        )
        assert engine.sanitizer is None

    def test_dollymp_end_to_end_clean_under_sanitizer(self, monkeypatch):
        """The paper's scheduler passes every invariant on a stochastic
        multi-phase workload with cloning enabled (REPRO_SANITIZE=1)."""
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        cluster = homogeneous_cluster(4, Resources.of(8, 16))
        jobs = [
            make_chain_job(
                2, 6, theta=20.0, sigma=10.0, arrival_time=15.0 * i, job_id=i
            )
            for i in range(4)
        ]
        result = run_simulation(
            cluster, DollyMPScheduler(max_clones=2), jobs, seed=11
        )
        assert result.num_jobs == 4
        for job in jobs:
            for phase in job.phases:
                for task in phase.built_tasks():
                    assert task.state is TaskState.FINISHED


class TestFailedServerInvariant:
    def test_down_server_with_resident_copy_detected(self):
        engine, _, _ = engine_with_running_copy()
        # Flip the server down without the Fail applier's cleanup: the
        # resident copy, its allocation and the availability all linger.
        engine.cluster.mirror.up[0] = False
        violations = SimulationSanitizer(engine).check(engine, "bad mark_down")
        assert InvariantKind.FAILED_SERVER in kinds(violations)
        v = next(v for v in violations if v.kind is InvariantKind.FAILED_SERVER)
        assert v.server_id == 0
        assert "resident" in v.message

    def test_down_server_leaking_availability_detected(self):
        engine, _, _ = engine_with_running_copy()
        from repro.sim.actions import Fail

        engine.apply(Fail(engine.cluster[1]))  # clean crash of the idle server
        assert SimulationSanitizer(engine).check(engine) == []
        # Corrupt: a down server advertising capacity again.
        engine.cluster.mirror.avail_cpu[1] = 1.0
        violations = SimulationSanitizer(engine).check(engine, "leak")
        assert InvariantKind.FAILED_SERVER in kinds(violations)

    def test_clean_crash_passes(self):
        engine, task, _ = engine_with_running_copy()
        from repro.sim.actions import Fail

        engine.apply(Fail(engine.cluster[0]))
        assert task.state is TaskState.PENDING
        assert SimulationSanitizer(engine).check(engine) == []


class TestRequeueCoherenceInvariant:
    def test_pending_task_with_live_copy_detected(self):
        engine, task, copy = engine_with_running_copy()
        # Buggy requeue: state flips to PENDING while the copy lives on.
        task.state = TaskState.PENDING
        task.phase._pending_count += 1
        violations = SimulationSanitizer(engine).check(engine, "bad requeue")
        assert InvariantKind.REQUEUE_COHERENCE in kinds(violations)
        v = next(
            v for v in violations if v.kind is InvariantKind.REQUEUE_COHERENCE
        )
        assert v.task_uid == task.uid

    def test_stale_phase_pending_count_detected(self):
        engine, task, _ = engine_with_running_copy()
        # Requeue that forgets to bump the phase's cached counter.
        task.phase._pending_count += 1
        violations = SimulationSanitizer(engine).check(engine, "stale counter")
        assert InvariantKind.REQUEUE_COHERENCE in kinds(violations)


class TestCloneBudgetInvariant:
    def test_leaked_occupancy_without_live_clones_detected(self):
        engine, _, _ = engine_with_running_copy()
        # The headline δ-budget drift: occupancy left over after every
        # clone exited must be flagged even when it is tiny.
        engine.clone_occupancy = Resources.of(1e-9, 0.0)
        violations = SimulationSanitizer(engine).check(engine, "budget leak")
        assert InvariantKind.CLONE_BUDGET in kinds(violations)

    def test_negative_occupancy_detected(self):
        engine, _, _ = engine_with_running_copy()
        engine.clone_occupancy = Resources.of(-0.5, 0.0)
        violations = SimulationSanitizer(engine).check(engine, "double return")
        assert InvariantKind.CLONE_BUDGET in kinds(violations)

    def test_occupancy_mismatch_with_live_clone_detected(self):
        engine, task, _ = engine_with_running_copy()
        engine.view.launch(task, engine.cluster[1], clone=True)
        assert SimulationSanitizer(engine).check(engine) == []
        # A fault-kill path that forgets the return leaves the occupancy
        # above the rescan of live clone demands.
        engine.clone_occupancy = engine.clone_occupancy + task.demand
        violations = SimulationSanitizer(engine).check(engine, "missed return")
        assert InvariantKind.CLONE_BUDGET in kinds(violations)
