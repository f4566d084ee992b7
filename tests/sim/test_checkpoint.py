"""Checkpoint/restore determinism (DESIGN.md §5.8).

The contract under test: checkpoint at t → restore → continue is
bit-identical to the uninterrupted run — result snapshot, decision
trace, replay journal, and metrics snapshot — including with fault
injection and observability enabled.
"""

import io
import json
import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.heterogeneity import homogeneous_cluster, trace_sim_cluster
from repro.cluster.cluster import Cluster
from repro.core.online import DollyMPScheduler
from repro.faults import FAULT_PROFILES
from repro.observability import Observability
from repro.resources import Resources
from repro.schedulers.fifo import FIFOScheduler
from repro.sim.checkpoint import (
    CHECKPOINT_FORMAT,
    checkpoint_bytes,
    checkpoint_info,
    load_checkpoint,
    restore_bytes,
    save_checkpoint,
)
from repro.sim.engine import SimulationEngine
from repro.sim.events import EventKind
from repro.workload.arrivals import JsonlSource
from repro.workload.distributions import Deterministic
from repro.workload.google_trace import (
    GoogleTraceGenerator,
    jobs_from_specs,
    spec_to_dict,
)
from repro.workload.job import Job
from repro.workload.phase import Phase
from repro.workload.task import Task, TaskCopy
from tests import reference
from tests.conftest import make_single_task_job


def trace_specs(n=15, seed=13, gap=12.0):
    specs = GoogleTraceGenerator(seed=seed).generate(n, mean_interarrival=gap)
    return [replace(s, job_id=i) for i, s in enumerate(specs)]


def mk_engine(**kw):
    kw.setdefault("seed", 21)
    jobs = kw.pop("jobs", None)
    if jobs is None:
        jobs = jobs_from_specs(trace_specs())
    return SimulationEngine(
        homogeneous_cluster(16, Resources.of(16, 32)),
        DollyMPScheduler(max_clones=2),
        jobs,
        **kw,
    )


class TestRoundTrip:
    def test_restore_continue_bit_identical(self):
        r1 = mk_engine().run()
        e2 = mk_engine()
        e2.start()
        e2.run_until(60.0)
        payload, info = checkpoint_bytes(e2)
        assert info.sim_time == e2.now
        e3 = restore_bytes(payload)
        e3.drain()
        r3 = e3.finalize()
        assert r1.deterministic() == r3.deterministic()

    def test_restore_with_faults_observability_trace(self):
        kw = dict(
            fault_profile=FAULT_PROFILES["chaos"],
            schedule_interval=5.0,
            record_trace=True,
        )
        e1 = mk_engine(observability=Observability(), **kw)
        r1 = e1.run()
        e2 = mk_engine(observability=Observability(), **kw)
        e2.start()
        e2.run_until(60.0)
        e3 = restore_bytes(checkpoint_bytes(e2)[0])
        e3.drain()
        r3 = e3.finalize()
        assert r1.deterministic() == r3.deterministic()
        # decision journal: the replay input must be bit-identical
        assert list(e1.trace) == list(e3.trace)
        # metrics snapshot: identical exposition
        assert (
            e1.observability.registry.to_json()
            == e3.observability.registry.to_json()
        )
        assert (
            e1.observability.registry.to_prometheus()
            == e3.observability.registry.to_prometheus()
        )

    def test_double_checkpoint_same_state(self):
        # Checkpointing is read-only: a second checkpoint of the same
        # engine continues identically to the first.
        e = mk_engine()
        e.start()
        e.run_until(40.0)
        p1, _ = checkpoint_bytes(e)
        a = restore_bytes(p1)
        a.drain()
        ra = a.finalize()
        b = restore_bytes(checkpoint_bytes(e)[0])
        b.drain()
        rb = b.finalize()
        assert ra.deterministic() == rb.deterministic()
        # and the original still finishes to the same result
        e.drain()
        assert e.finalize().deterministic() == ra.deterministic()

    def test_checkpoint_restore_at_multiple_cuts(self):
        reference = mk_engine().run().deterministic()
        for cut in (0.0, 30.0, 90.0, 150.0):
            e = mk_engine()
            e.start()
            e.run_until(cut)
            revived = restore_bytes(checkpoint_bytes(e)[0])
            revived.drain()
            assert revived.finalize().deterministic() == reference, f"cut={cut}"


class TestJsonlRestore:
    def test_detach_and_reattach_stream(self):
        specs = trace_specs()
        lines = [json.dumps(spec_to_dict(s)) for s in specs]
        r1 = mk_engine(jobs=jobs_from_specs(specs)).run()

        e2 = mk_engine(jobs=JsonlSource(iter(lines)))
        e2.start()
        e2.run_until(60.0)
        payload, info = checkpoint_bytes(e2)
        assert info.arrivals_consumed > 0

        e3 = restore_bytes(payload)
        with pytest.raises(RuntimeError, match="detached"):
            # pulling before re-attach fails loudly (drain would pull
            # on the next arrival processing)
            e3.arrivals.take()
        e3.arrivals.attach(iter(lines), skip_consumed=True)
        e3.drain()
        assert e3.finalize().deterministic() == r1.deterministic()

    def test_attach_rejects_short_stream(self):
        specs = trace_specs(n=5)
        lines = [json.dumps(spec_to_dict(s)) for s in specs]
        e = mk_engine(jobs=JsonlSource(iter(lines)))
        e.run()
        revived = restore_bytes(checkpoint_bytes(e)[0])
        with pytest.raises(ValueError, match="fast-forwarding"):
            revived.arrivals.attach(iter(lines[:2]), skip_consumed=True)


class TestFiles:
    def test_file_round_trip_and_info(self, tmp_path, small_cluster):
        job = make_single_task_job(theta=20.0, job_id=1)
        engine = SimulationEngine(small_cluster, FIFOScheduler(), [job])
        engine.start()
        engine.run_until(0.0)
        path = tmp_path / "session.ckpt"
        info = save_checkpoint(engine, path)
        assert info.format == CHECKPOINT_FORMAT
        assert info.jobs_active == 1
        assert checkpoint_info(path).to_dict() == info.to_dict()
        revived = load_checkpoint(path)
        revived.drain()
        assert revived.finalize().num_jobs == 1

    def test_corrupted_file_rejected(self, tmp_path, small_cluster):
        job = make_single_task_job(theta=1.0, job_id=1)
        engine = SimulationEngine(small_cluster, FIFOScheduler(), [job])
        engine.start()
        path = tmp_path / "session.ckpt"
        save_checkpoint(engine, path)
        raw = bytearray(path.read_bytes())
        # flip a byte inside the pickled state
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="truncated or corrupted"):
            load_checkpoint(path)

    def test_damage_at_every_offset_rejected(self, tmp_path, small_cluster):
        job = make_single_task_job(theta=1.0, job_id=1)
        engine = SimulationEngine(small_cluster, FIFOScheduler(), [job])
        engine.start()
        payload, _ = checkpoint_bytes(engine)
        path = tmp_path / "torn.ckpt"
        # A cut at any offset, or bytes appended, fails both readers;
        # the summary reader never looks at the state, so only the
        # header's length check catches a cut inside it.
        damaged = [payload[:cut] for cut in range(len(payload))]
        damaged += [payload + b"\x00", payload + payload[-3:]]
        for bad in damaged:
            with pytest.raises(ValueError, match="truncated or corrupted"):
                restore_bytes(bad)
            path.write_bytes(bad)
            with pytest.raises(ValueError, match="truncated or corrupted"):
                checkpoint_info(path)
        for at in range(len(payload)):
            flipped = bytearray(payload)
            flipped[at] ^= 0xFF
            try:
                revived = restore_bytes(bytes(flipped))
            except ValueError:
                continue
            # only summary fields outside the digested state were hit
            assert revived.now == engine.now, f"flip at {at}"

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "not_a_ckpt.bin"
        import pickle

        path.write_bytes(pickle.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="not a repro-checkpoint"):
            load_checkpoint(path)


class TestJsonlEveryCutIdentity:
    """PR 10 bugfix pin: ``attach(skip_consumed=True)`` after restore
    must preserve replay identity at *every* cut of the stream —
    including cuts after end-of-stream, where the historical attach
    cleared the terminal exhaustion flag, kept ``workload_active()``
    true forever, and let the chaos fault-renewal chain run the drain
    away to ``max_time``."""

    def test_attach_keeps_exhausted_source_ended(self):
        import pickle

        specs = trace_specs(n=3)
        lines = [json.dumps(spec_to_dict(s)) for s in specs]
        src = JsonlSource(iter(lines))
        while src.take() is not None:
            pass
        assert src.exhausted
        revived = pickle.loads(pickle.dumps(src))
        assert revived.exhausted
        revived.attach(iter(lines), skip_consumed=True)
        assert revived.exhausted  # attach re-binds bytes, never un-ends
        assert revived.take() is None
        assert revived.consumed == len(lines)

    def test_restore_identity_at_every_line_index(self):
        specs = trace_specs(n=20, seed=5, gap=8.0)
        lines = [json.dumps(spec_to_dict(s)) for s in specs]

        def mk(jobs):
            return mk_engine(
                jobs=jobs,
                fault_profile=FAULT_PROFILES["chaos"],
                churn_seed=3,
            )

        ref = mk(JsonlSource(iter(lines))).run().deterministic()
        for cut in range(len(lines) + 1):
            engine = mk(JsonlSource(iter(lines)))
            engine.start()
            while engine.arrivals.consumed < cut and engine.events:
                engine.step()
            revived = restore_bytes(checkpoint_bytes(engine)[0])
            # a runaway leg (the historical bug) dies here instead of
            # hanging: the uninterrupted run ends well before this bound
            revived.max_time = ref.simulated_time + 10_000.0
            revived.arrivals.attach(iter(lines), skip_consumed=True)
            revived.drain()
            assert revived.finalize().deterministic() == ref, f"cut at line {cut}"


class TestSpansAcrossRestore:
    """The span trace is part of the checkpointed state: a session cut
    at any arrival count, restored, re-attached and drained exports the
    same spans (wall time excluded) as the uninterrupted session."""

    def test_span_export_identical_after_restore(self, tmp_path):
        specs = trace_specs(n=12, seed=5, gap=8.0)
        lines = [json.dumps(spec_to_dict(s)) for s in specs]

        def mk():
            return mk_engine(
                jobs=JsonlSource(iter(lines)),
                observability=Observability(),
                fault_profile=FAULT_PROFILES["chaos"],
                churn_seed=3,
            )

        def spans_of(engine, name):
            engine.finalize()
            path = tmp_path / name
            engine.observability.dump_spans(path)
            return path.read_bytes()

        one_shot = mk()
        one_shot.start()
        one_shot.drain()
        reference = spans_of(one_shot, "reference.jsonl")
        assert reference.count(b"\n") > 100
        for cut in (1, 4, 9, len(lines)):
            engine = mk()
            engine.start()
            while engine.arrivals.consumed < cut and engine.events:
                engine.step()
            revived = restore_bytes(checkpoint_bytes(engine)[0])
            revived.arrivals.attach(iter(lines), skip_consumed=True)
            revived.drain()
            assert spans_of(revived, f"cut{cut}.jsonl") == reference, f"cut at {cut}"


class TestLegacyCheckpoint:
    """v1 checkpoints pickled every server as a ``Server`` object; v2
    pickled the mirror's arrays with a set of resident copies per server
    and events wrapped in heap tuples; v3 pickles resident lists in
    launch order and bare ``Event`` tuples.  v1–v3 nest the state pickle
    as bytes inside one envelope pickle; v4 writes a header and then the
    state, with each phase's fitted h(r) in a ``speedup`` slot that v5
    renamed ``_speedup``; v5 kept every finished job and its copies,
    which v6 holds only as a record and task ledgers; v6 pickled the
    engine's view, the tracer's clock slot, the injector's engine slot
    and the mirror's columns whole; v7 kept closed spans as a list of
    ``Span`` objects and pickled a ``{slot: value}`` dict per job, phase,
    task and copy; v8 held per-server capacity and slowdown columns,
    the injector's saved slowdowns and a uid per copy; v9 held a
    ``Task`` for every task of every phase; v10 held the engine's
    ``jobs`` list and queued every listed arrival at start; v11 held
    every job's phase graph, built before its arrival.  Older files are
    rejected by their format name, like a foreign file — nothing
    revives them."""

    @pytest.mark.parametrize(
        "old", ["v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8", "v9", "v10", "v11"]
    )
    def test_old_format_rejected_by_name(self, tmp_path, old):
        assert CHECKPOINT_FORMAT == "repro-checkpoint-v12"
        obs = Observability()
        if old == "v7":
            # v7's span store: every closed span a ``Span`` in a list.
            obs.tracer = reference.SpanTracer()
        engine = mk_engine(fault_profile=FAULT_PROFILES["chaos"], observability=obs)
        engine.start()
        engine.run_until(60.0)
        assert len(obs.tracer) > 0
        payload = checkpoint_bytes(engine)[0]
        stream = io.BytesIO(payload)
        header = pickle.load(stream)
        state = payload[stream.tell():]
        name = f"repro-checkpoint-{old}"
        info = {**header["info"], "format": name}
        if old in ("v4", "v5", "v6", "v7", "v8", "v9", "v10", "v11"):
            # Header then state, the layout v12 kept.
            blob = pickle.dumps(
                {"format": name, "info": info, "state_bytes": len(state)}, protocol=5
            ) + state
        else:
            # The envelope layout every earlier format used.
            blob = pickle.dumps({"format": name, "info": info, "state": state}, protocol=4)
        path = tmp_path / f"{old}.ckpt"
        path.write_bytes(blob)
        for read in (load_checkpoint, checkpoint_info):
            with pytest.raises(ValueError, match=f"format='{name}'"):
                read(path)

    def test_restored_resident_lists_keep_launch_order(self):
        """A mid-run cut while servers host several copies: every
        restored resident list holds its server's copies in the order
        the decision journal launched them."""
        engine = mk_engine(record_trace=True)
        engine.start()
        engine.run_until(60.0)
        revived = restore_bytes(checkpoint_bytes(engine)[0])
        resident = revived.cluster.mirror.resident
        assert max(map(len, resident.values())) >= 2
        # The k-th launch of a task in the journal is its k-th copy.
        launches: dict[tuple, list[int]] = {}
        for d in revived.trace:
            if d.kind == "launch":
                launches.setdefault(d.task_uid, []).append(d.seq)
        for sid, copies in resident.items():
            assert isinstance(copies, list)
            assert all(c.server_id == sid for c in copies)
            order = [launches[c.task.uid][c.task.copies.index(c)] for c in copies]
            assert order == sorted(order), f"server {sid}: {order}"

    def test_index_is_not_pickled(self):
        e = mk_engine()
        e.start()
        e.run_until(30.0)
        _, slots = e.cluster.mirror.__getstate__()
        assert not {"_block", "_ub_cpu", "_ub_mem"} & set(slots)


class TestSlotState:
    """Jobs, phases, tasks and copies pickle as one tuple of their slot
    values, in ``__slots__`` order, not as a ``{slot: value}`` dict per
    object."""

    @pytest.mark.parametrize("cls", [Job, Phase, Task, TaskCopy], ids=lambda c: c.__name__)
    def test_state_tuple_covers_every_slot_in_order(self, cls):
        slots = cls.__slots__
        values = [object() for _ in slots]
        if cls is Job:
            # A built job; one known by its spec holds no phases, below.
            values[slots.index("_spec")] = None
        obj = cls.__new__(cls)
        for name, value in zip(slots, values):
            setattr(obj, name, value)
        state = obj.__getstate__()
        assert type(state) is tuple and len(state) == len(slots)
        assert all(got is want for got, want in zip(state, values))
        revived = cls.__new__(cls)
        revived.__setstate__(state)
        assert all(getattr(revived, name) is want for name, want in zip(slots, values))


    def test_unbuilt_job_state_holds_its_spec_and_no_phases(self):
        (spec,) = trace_specs(n=1)
        (job,) = jobs_from_specs([spec])
        state = job.__getstate__()
        assert len(state) == len(Job.__slots__)
        assert state[Job.__slots__.index("phases")] is None
        assert state[Job.__slots__.index("_spec")] is spec
        revived = Job.__new__(Job)
        revived.__setstate__(state)
        assert not revived.built and not job.built
        assert revived.num_tasks == spec.num_tasks()
        assert [p.name for p in revived.phases] == [p.name for p in job.phases]
        assert revived.built and job.built


class TestUnbuiltTasks:
    """A phase builds a task when it first launches (DESIGN.md §5.6), so
    a cut holds unbuilt slots — every task of a job yet to arrive and
    the pending tail of a started phase — and v10 pickles each as None."""

    @staticmethod
    def _unbuilt(engine) -> int:
        return sum(
            p.num_tasks - len(p.built_tasks())
            for j in engine.active_jobs.values()
            for p in j.phases
        )

    def test_cut_with_unbuilt_tasks_round_trips(self):
        ref = mk_engine(record_trace=True)
        ref.run()
        engine = mk_engine(record_trace=True)
        engine.start()
        engine.run_until(60.0)
        # Started phases with pending tasks not yet built, and jobs not
        # yet arrived.
        started = [
            p
            for j in engine.active_jobs.values()
            for p in j.phases
            if p.built_tasks() and len(p.built_tasks()) < p.num_tasks
        ]
        assert started and self._unbuilt(engine) > 0
        revived = restore_bytes(checkpoint_bytes(engine)[0])
        assert self._unbuilt(revived) == self._unbuilt(engine)
        for job_id, job in engine.active_jobs.items():
            twin = revived.active_jobs[job_id]
            for p, q in zip(job.phases, twin.phases):
                assert p.pending_indices() == q.pending_indices()
                assert [t.uid for t in p.built_tasks()] == [t.uid for t in q.built_tasks()]
        revived.drain()
        assert revived.finalize().deterministic() == ref.finalize().deterministic()
        assert [d.to_json() for d in revived.trace] == [d.to_json() for d in ref.trace]

    def test_unbuilt_slot_pickles_as_none(self):
        phase = Phase(0, 3, Resources.of(1, 1), Deterministic(1.0))
        Job([phase], job_id=0)
        built = phase.task(1)
        state = pickle.loads(pickle.dumps(phase, protocol=5)).__getstate__()
        slots = next(v for v in state if isinstance(v, list))
        assert [None if t is None else t.index for t in slots] == [None, 1, None]
        assert built.phase is phase


class TestUnbuiltJobs:
    """A job is built when it arrives (DESIGN.md §5.6), so a list-fed
    cut taken before some arrivals holds their jobs as specs, in the
    queued arrival and in the ``StaticSource``, and v12 pickles them so."""

    @staticmethod
    def _waiting(engine) -> list:
        return [*engine.events.payloads(EventKind.JOB_ARRIVAL), *engine.arrivals.remaining()]

    def test_list_fed_cut_restores_jobs_unbuilt_and_finishes_identical(self):
        ref = mk_engine(record_trace=True, fault_profile=FAULT_PROFILES["chaos"])
        ref.run()
        engine = mk_engine(record_trace=True, fault_profile=FAULT_PROFILES["chaos"])
        engine.start()
        engine.run_until(60.0)
        waiting = self._waiting(engine)
        assert engine.active_jobs and len(waiting) >= 5
        assert not any(j.built for j in waiting)
        payload, info = checkpoint_bytes(engine)
        assert info.format == "repro-checkpoint-v12"
        revived = restore_bytes(payload)
        restored = self._waiting(revived)
        assert [j.job_id for j in restored] == [j.job_id for j in waiting]
        assert not any(j.built for j in restored)
        assert all(j.built for j in revived.active_jobs.values())
        revived.drain()
        assert revived.finalize().deterministic() == ref.finalize().deterministic()
        assert [d.to_json() for d in revived.trace] == [d.to_json() for d in ref.trace]

    def test_unbuilt_jobs_pickle_smaller_than_built(self):
        jobs = jobs_from_specs(trace_specs())
        lazy = len(pickle.dumps(jobs, protocol=5))
        for job in jobs:
            job.build()
        assert lazy < len(pickle.dumps(jobs, protocol=5))


class TestMirrorEncoding:
    """Since v9 the mirror holds capacity and slowdown once per server
    class, and checkpoints pickle that form as it is: the class tables,
    the per-server class index and the brownout entries.  The allocation
    columns pickle as their entries other than +0.0, an all-up mask as
    its length and a round-robin rack map as its recipe.  Every column
    must revive bit for bit, and no per-server float column holds a
    capacity or a slowdown."""

    COLUMNS = ("class_of", "class_cpu", "class_mem", "class_slowdown", "alloc_cpu",
               "alloc_mem", "up", "avail_cpu", "avail_mem")

    def test_chaos_cut_round_trips_bit_for_bit(self):
        cluster = trace_sim_cluster(300, seed=3)
        engine = SimulationEngine(
            cluster,
            DollyMPScheduler(max_clones=2),
            jobs_from_specs(trace_specs()),
            seed=21,
            fault_profile=FAULT_PROFILES["chaos"],
        )
        engine.run_until(100.0)
        mirror = cluster.mirror
        assert not mirror.up.all()  # down servers
        assert mirror.brownout  # open brownout windows
        assert mirror.resident  # allocations from running copies
        # A -0.0 and a float residue on idle servers: neither is +0.0,
        # so both must be stored, and stored exactly.  No mirror
        # operation leaves either on an idle server, so plant them.
        idle = [i for i in range(len(mirror)) if mirror.up[i] and i not in mirror.resident]
        mirror.alloc_cpu[idle[0]] = -0.0  # repro-lint: ignore[RL001]
        mirror.alloc_mem[idle[1]] = 0.1 + 0.2 - 0.3  # repro-lint: ignore[RL001]
        for i in idle[:2]:
            mirror.update(i)
        assert cluster.topology.__getstate__() == (300, 7)  # the recipe

        revived = restore_bytes(checkpoint_bytes(engine)[0]).cluster
        for name in self.COLUMNS:
            a, b = getattr(mirror, name), getattr(revived.mirror, name)
            assert (b.dtype, b.tobytes()) == (a.dtype, a.tobytes()), name
            assert b.flags.writeable, name
        assert {i: s.hex() for i, s in revived.mirror.brownout.items()} == {
            i: s.hex() for i, s in mirror.brownout.items()
        }
        assert np.signbit(revived.mirror.alloc_cpu[idle[0]])
        rack_of = revived.topology._rack_of
        expected = cluster.topology._rack_of
        assert (rack_of.dtype, rack_of.tobytes()) == (np.int32, expected.tobytes())

    def test_distinct_values_told_apart_by_bits(self):
        """Capacities one ulp apart are two classes, and each server's
        capacity gathers back bit for bit, before and after a restore
        (a valid capacity is positive and finite, so no two distinct
        bit patterns compare equal)."""
        one = np.nextafter(1.0, 2.0)
        cpu = np.array([1.0, one, 1.0, one, 2.0] * 4)
        cluster = Cluster(cpu, 2.0 * cpu)
        assert len(cluster.mirror.class_cpu) == 3
        assert cluster.mirror.class_of.dtype == np.uint8
        for mirror in (cluster.mirror, pickle.loads(pickle.dumps(cluster.mirror))):
            cap_cpu, cap_mem = mirror.capacity_columns()
            assert cap_cpu.tobytes() == cpu.tobytes()
            assert cap_mem.tobytes() == (2.0 * cpu).tobytes()

    def test_slowdown_set_after_a_save_reaches_the_next(self):
        """A brownout entry opened or closed between two saves reaches
        the second, on a live and on a restored mirror alike, and a
        closed one leaves the class's nominal slowdown."""
        engine = mk_engine()
        engine.run_until(30.0)
        checkpoint_bytes(engine)
        engine.cluster.mirror.set_slowdown(3, 2.5)
        revived = restore_bytes(checkpoint_bytes(engine)[0]).cluster.mirror
        assert revived.brownout == {3: 2.5}
        assert revived.slowdown_of(3) == 2.5
        revived.set_slowdown(4, 3.5)
        revived.clear_slowdown(3)
        again = restore_bytes(checkpoint_bytes(engine)[0]).cluster.mirror
        assert again.brownout == {3: 2.5}
        engine.cluster.mirror.set_slowdown(4, 3.5)
        engine.cluster.mirror.clear_slowdown(3)
        again = restore_bytes(checkpoint_bytes(engine)[0]).cluster.mirror
        assert again.brownout == {4: 3.5}
        assert again.slowdown_of(3) == 1.0 and again.slowdown_of(4) == 3.5

    def test_state_holds_compact_columns(self):
        engine = mk_engine()
        engine.run_until(30.0)
        mirror = engine.cluster.mirror
        _, slots = mirror.__getstate__()
        assert not {"cap_cpu", "cap_mem", "slowdown"} & set(slots)
        # The class index is the one per-server column pickled whole.
        per_server = {
            name
            for name, value in slots.items()
            if isinstance(value, np.ndarray) and len(value) == len(mirror)
        }
        assert per_server == {"class_of"}
        assert slots["class_of"].dtype == np.uint8
        for name in ("class_cpu", "class_mem", "class_slowdown"):
            assert len(slots[name]) == 1, name
        assert slots["brownout"] == {}
        n, index, values = slots["alloc_cpu"]
        assert n == len(mirror) and len(index) == len(mirror.resident)
        assert slots["up"] == len(mirror)
