"""Unit tests for the action protocol (DESIGN.md §5.3).

Pins the choke-point semantics every replay depends on: structured
``InvalidAction`` errors (kill-after-finish, kill-after-kill, all launch
validations), atomicity of rejected actions (no RNG draw, no state
change, no journal entry), decision journaling metadata, the bounded
trace, and the JSONL export format.
"""

import json
from dataclasses import asdict

import pytest

from repro.cluster.heterogeneity import homogeneous_cluster
from repro.resources import Resources
from repro.schedulers.base import Scheduler
from repro.sim.actions import (
    DEFAULT_TRACE_MAXLEN,
    TRACE_SCHEMA,
    Decision,
    DecisionTrace,
    InvalidAction,
    Kill,
    Launch,
    TraceLimitExceeded,
)
from repro.sim.engine import SimulationEngine
from repro.sim.runner import run_recorded
from tests.conftest import after_finish_hooks, make_chain_job, make_single_task_job


class NullScheduler(Scheduler):
    """Never launches anything — lets tests drive apply() by hand."""

    name = "null"

    def schedule(self, view) -> None:
        pass


def make_engine(jobs, **kw):
    cluster = kw.pop("cluster", None) or homogeneous_cluster(2, Resources.of(4, 8))
    return SimulationEngine(cluster, NullScheduler(), jobs, **kw)


def activate(engine, job):
    """Register an arrival without running the event loop."""
    engine.active_jobs[job.job_id] = job


# ======================================================================
# Kill semantics
# ======================================================================
class TestKillSemantics:
    def _finished_copy(self, record_trace=False):
        job = make_single_task_job(theta=10.0, job_id=0)
        engine = make_engine([job], record_trace=record_trace)
        activate(engine, job)
        task = job.phases[0].task(0)
        copy = engine.apply(Launch(task, engine.cluster[0]))
        engine.now = copy.finish_time
        engine._process_copy_finish(copy)
        return engine, task, copy

    def test_kill_finished_copy_raises_structured(self):
        engine, task, copy = self._finished_copy()
        with pytest.raises(InvalidAction) as excinfo:
            engine.apply(Kill(copy))
        err = excinfo.value
        assert isinstance(err, RuntimeError)  # back-compat contract
        assert err.kind == "kill"
        assert err.task_uid == task.uid
        # The finished task folded its copy list, so the copy's index
        # is gone with it (the finish hook below still sees it).
        assert task.copies == ()
        assert err.copy_index is None
        assert err.server_id == copy.server_id
        assert err.time == engine.now
        # The message names the copy and the server.
        assert "already-finished" in str(err)
        assert f"{task.uid}#? on server {copy.server_id}" in str(err)

    def test_kill_finished_copy_in_finish_hook_names_its_index(self):
        """Inside ``on_task_finish`` the copies are not folded yet, so a
        rejected kill of the winner still reports its index."""
        job = make_single_task_job(theta=10.0, job_id=0)
        errors = []

        def kill_winner(task):
            with pytest.raises(InvalidAction) as excinfo:
                engine.apply(Kill(task.copies[0]))
            errors.append(excinfo.value)

        engine = make_engine([job])
        after_finish_hooks(engine.scheduler, task=kill_winner)
        activate(engine, job)
        copy = engine.apply(Launch(job.phases[0].task(0), engine.cluster[0]))
        engine.now = copy.finish_time
        engine._process_copy_finish(copy)
        (err,) = errors
        assert err.copy_index == 0
        assert f"{copy.task.uid}#0 on server {copy.server_id}" in str(err)
        assert "already-finished" in str(err)

    def test_kill_killed_copy_raises_structured(self):
        job = make_single_task_job(theta=10.0, job_id=0)
        engine = make_engine([job])
        activate(engine, job)
        task = job.phases[0].task(0)
        engine.apply(Launch(task, engine.cluster[0]))
        clone = engine.apply(Launch(task, engine.cluster[1], clone=True))
        engine.apply(Kill(clone))  # first kill: fine
        with pytest.raises(InvalidAction) as excinfo:
            engine.apply(Kill(clone))
        err = excinfo.value
        assert err.copy_index == 1
        assert err.server_id == clone.server_id
        assert "already-killed" in str(err)

    def test_rejected_kill_leaves_state_untouched(self):
        engine, task, copy = self._finished_copy(record_trace=True)
        trace_len = len(engine.trace)
        occupancy = engine.clone_occupancy
        available = engine.cluster[copy.server_id].available
        with pytest.raises(InvalidAction):
            engine.apply(Kill(copy))
        assert len(engine.trace) == trace_len
        assert engine.clone_occupancy == occupancy
        assert engine.cluster[copy.server_id].available == available


# ======================================================================
# Launch validation
# ======================================================================
class TestLaunchValidation:
    def test_inactive_job_rejected(self):
        job = make_single_task_job(theta=10.0, job_id=7)
        engine = make_engine([job])  # never activated
        task = job.phases[0].task(0)
        with pytest.raises(InvalidAction, match="not active") as excinfo:
            engine.apply(Launch(task, engine.cluster[0]))
        assert excinfo.value.kind == "launch"
        assert excinfo.value.task_uid == task.uid
        assert excinfo.value.server_id == 0

    def test_gated_phase_rejected(self):
        job = make_chain_job(2, 1, theta=10.0, job_id=0)
        engine = make_engine([job])
        activate(engine, job)
        blocked = job.phases[1].task(0)
        with pytest.raises(InvalidAction, match="Eq. 7"):
            engine.apply(Launch(blocked, engine.cluster[0]))

    def test_copy_cap_rejected(self):
        job = make_single_task_job(theta=10.0, job_id=0)
        engine = make_engine([job], max_copies_per_task=1)
        activate(engine, job)
        task = job.phases[0].task(0)
        engine.apply(Launch(task, engine.cluster[0]))
        with pytest.raises(InvalidAction, match="copy cap"):
            engine.apply(Launch(task, engine.cluster[1], clone=True))

    def test_overfull_server_rejected_atomically(self):
        """A rejected launch must not draw from the duration RNG, touch
        occupancy, or land in the journal — bit-identical engine state."""
        job = make_single_task_job(cpu=3.0, mem=3.0, theta=10.0, job_id=0)
        engine = make_engine([job], record_trace=True)
        activate(engine, job)
        task = job.phases[0].task(0)
        server = engine.cluster[0]
        engine.apply(Launch(task, server))  # 3 of 4 cores used
        rng_state = engine.duration_rng.bit_generator.state
        copies = engine.copies_launched
        trace_len = len(engine.trace)
        available = server.available
        with pytest.raises(InvalidAction, match="cannot fit") as excinfo:
            engine.apply(Launch(task, server, clone=True))
        assert excinfo.value.server_id == server.server_id
        assert engine.duration_rng.bit_generator.state == rng_state
        assert engine.copies_launched == copies
        assert len(engine.trace) == trace_len
        assert server.available == available
        assert len(task.copies) == 1

    def test_non_action_rejected(self):
        job = make_single_task_job(theta=10.0)
        engine = make_engine([job])
        with pytest.raises(TypeError, match="not an action"):
            engine.apply(object())


# ======================================================================
# Decision journaling
# ======================================================================
class TestDecisionJournal:
    def test_manual_launch_and_kill_are_journaled(self):
        job = make_single_task_job(theta=10.0, job_id=3)
        engine = make_engine([job], record_trace=True)
        activate(engine, job)
        task = job.phases[0].task(0)
        engine.apply(Launch(task, engine.cluster[0]))
        clone = engine.apply(Launch(task, engine.cluster[1], clone=True))
        engine.apply(Kill(clone))
        kinds = [d.kind for d in engine.trace]
        assert kinds == ["launch", "launch", "kill"]
        launch0, launch1, kill = engine.trace.decisions
        assert launch0.task_uid == task.uid
        assert not launch0.clone and launch1.clone
        assert kill.copy_index == 1
        assert kill.server_id == 1
        assert [d.seq for d in engine.trace] == [0, 1, 2]
        assert all(d.policy == "null" for d in engine.trace)

    def test_recorded_run_metadata(self, small_cluster):
        from repro.schedulers.fifo import FIFOScheduler

        jobs = [
            make_single_task_job(theta=10.0, arrival_time=5.0 * i, job_id=i)
            for i in range(4)
        ]
        result, trace = run_recorded(small_cluster, FIFOScheduler(), jobs, seed=3)
        assert len(trace) == 4
        assert [d.seq for d in trace] == list(range(4))
        assert all(d.policy == result.scheduler_name for d in trace)
        assert all(
            d.cause in {"job_arrival", "task_finish", "job_finish", "schedule"}
            for d in trace
        )
        points = [d.point for d in trace]
        assert points == sorted(points)  # entry points open in order
        times = [d.time for d in trace]
        assert times == sorted(times)
        assert trace.meta["policy"] == result.scheduler_name
        assert trace.meta["seed"] == 3
        assert trace.meta["num_decisions"] == 4

    def test_no_trace_by_default(self, small_cluster):
        from repro.schedulers.fifo import FIFOScheduler

        job = make_single_task_job(theta=10.0)
        engine = SimulationEngine(small_cluster, FIFOScheduler(), [job])
        assert engine.trace is None
        engine.run()  # recording off: no journaling overhead, no errors


# ======================================================================
# The bounded trace and its JSONL format
# ======================================================================
def _decision(seq, **over):
    base = dict(
        seq=seq,
        time=1.5 * seq,
        point=seq + 1,
        cause="schedule",
        policy="fifo",
        kind="launch",
        job_id=0,
        phase_index=0,
        task_index=seq,
        server_id=2,
    )
    base.update(over)
    return Decision(**base)


class TestDecisionTrace:
    def test_bound_is_a_guard_rail_not_a_ring(self):
        trace = DecisionTrace(maxlen=2)
        trace.append(_decision(0))
        trace.append(_decision(1))
        with pytest.raises(TraceLimitExceeded) as excinfo:
            trace.append(_decision(2))
        assert excinfo.value.maxlen == 2
        assert len(trace) == 2  # nothing was dropped

    def test_engine_surfaces_trace_limit(self):
        job = make_single_task_job(theta=10.0, job_id=0)
        engine = make_engine([job], record_trace=True, trace_maxlen=1)
        activate(engine, job)
        task = job.phases[0].task(0)
        engine.apply(Launch(task, engine.cluster[0]))
        with pytest.raises(TraceLimitExceeded):
            engine.apply(Launch(task, engine.cluster[1], clone=True))

    def test_invalid_maxlen(self):
        with pytest.raises(ValueError):
            DecisionTrace(maxlen=0)

    def test_jsonl_roundtrip(self, tmp_path):
        trace = DecisionTrace(maxlen=100, meta={"policy": "fifo", "seed": 9})
        trace.append(_decision(0))
        trace.append(_decision(1, kind="kill", copy_index=1, clone=True))
        path = tmp_path / "trace.jsonl"
        trace.dump_jsonl(path)
        loaded = DecisionTrace.load_jsonl(path)
        assert loaded.decisions == trace.decisions
        assert loaded.meta == trace.meta
        assert loaded.maxlen == 100

    def test_jsonl_header_is_self_describing(self, tmp_path):
        trace = DecisionTrace(meta={"seed": 1})
        trace.append(_decision(0))
        path = tmp_path / "trace.jsonl"
        trace.dump_jsonl(path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["schema"] == TRACE_SCHEMA
        assert header["maxlen"] == DEFAULT_TRACE_MAXLEN
        assert header["meta"] == {"seed": 1}

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "other/v9"}\n')
        with pytest.raises(ValueError, match="unknown trace schema"):
            DecisionTrace.load_jsonl(path)

    def test_load_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty trace file"):
            DecisionTrace.load_jsonl(path)

    def test_decision_task_uid(self):
        d = _decision(4, job_id=2, phase_index=1)
        assert d.task_uid == (2, 1, 4)

    @pytest.mark.parametrize(
        "over",
        [
            {},  # launch, copy_index None
            {"clone": True, "time": 0.1 + 0.2},
            {"kind": "kill", "copy_index": 0},
            {"kind": "kill", "copy_index": 3, "clone": True},
            {"kind": "fail", "policy": "fault-injector", "job_id": -1, "task_index": -1},
        ],
    )
    def test_to_json_bytes_match_asdict_encoding(self, over):
        d = _decision(7, **over)
        expect = json.dumps(asdict(d), separators=(",", ":"), sort_keys=True)
        assert d.to_json() == expect
        assert Decision.from_json(d.to_json()) == d
