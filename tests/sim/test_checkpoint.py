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
from repro.cluster.mirror import _pack_distinct
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
from repro.workload.arrivals import JsonlSource
from repro.workload.google_trace import (
    GoogleTraceGenerator,
    jobs_from_specs,
    spec_to_dict,
)
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
    and the mirror's columns whole.  Older files are rejected by their
    format name, like a foreign file — nothing revives them."""

    @pytest.mark.parametrize("old", ["v1", "v2", "v3", "v4", "v5", "v6"])
    def test_old_format_rejected_by_name(self, tmp_path, old):
        assert CHECKPOINT_FORMAT == "repro-checkpoint-v7"
        engine = mk_engine(fault_profile=FAULT_PROFILES["chaos"])
        engine.start()
        engine.run_until(60.0)
        payload = checkpoint_bytes(engine)[0]
        stream = io.BytesIO(payload)
        header = pickle.load(stream)
        state = payload[stream.tell():]
        name = f"repro-checkpoint-{old}"
        info = {**header["info"], "format": name}
        if old in ("v4", "v5", "v6"):
            # Header then state, the layout v7 kept.
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


class TestMirrorEncoding:
    """v7 pickles the mirror's capacity and slowdown columns as distinct
    values plus an index, its allocation columns as their entries other
    than +0.0, an all-up mask as its length and a round-robin rack map
    as its recipe.  Every column must revive bit for bit."""

    COLUMNS = ("cap_cpu", "cap_mem", "slowdown", "alloc_cpu", "alloc_mem", "up",
               "avail_cpu", "avail_mem")

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
        assert engine.faults._saved_slowdown  # open brownout windows
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
        assert np.signbit(revived.mirror.alloc_cpu[idle[0]])
        rack_of = revived.topology._rack_of
        expected = cluster.topology._rack_of
        assert (rack_of.dtype, rack_of.tobytes()) == (np.int32, expected.tobytes())

    def test_distinct_values_told_apart_by_bits(self):
        column = np.array([0.0, -0.0, 1.0, np.nan] * 50)
        values, index = _pack_distinct(column)
        assert len(values) == 4 and index.dtype == np.uint8
        assert values[index].tobytes() == column.tobytes()

    def test_slowdown_set_after_a_save_reaches_the_next(self):
        """The packed columns are kept between saves; a brownout's
        set_slowdown must drop the stale slowdown column, on a live and
        on a restored mirror alike."""
        engine = mk_engine()
        engine.run_until(30.0)
        checkpoint_bytes(engine)
        engine.cluster.mirror.set_slowdown(3, 2.5)
        revived = restore_bytes(checkpoint_bytes(engine)[0])
        assert revived.cluster.mirror.slowdown[3] == 2.5
        revived.cluster.mirror.set_slowdown(4, 3.5)
        again = restore_bytes(checkpoint_bytes(revived)[0]).cluster.mirror
        assert again.slowdown.tobytes() == revived.cluster.mirror.slowdown.tobytes()
        assert again.slowdown[4] == 3.5

    def test_state_holds_compact_columns(self):
        engine = mk_engine()
        engine.run_until(30.0)
        mirror = engine.cluster.mirror
        _, slots = mirror.__getstate__()
        values, index = slots["cap_cpu"]
        assert len(values) == 1 and index.dtype == np.uint8
        n, index, values = slots["alloc_cpu"]
        assert n == len(mirror) and len(index) == len(mirror.resident)
        assert slots["up"] == len(mirror)
