"""`TraceIngestSource` — arrival-source semantics and checkpointing."""

from __future__ import annotations

import pickle
from pathlib import Path

import pytest

from repro.cluster.heterogeneity import homogeneous_cluster
from repro.core.online import DollyMPScheduler
from repro.faults import FAULT_PROFILES
from repro.resources import Resources
from repro.sim.checkpoint import checkpoint_bytes, restore_bytes
from repro.sim.engine import SimulationEngine
from repro.workload.google_trace import TraceJobSpec, PhaseSpec
from repro.workload.ingest import TraceIngestSource, normalize_stream, open_reader

CORPUS = Path(__file__).resolve().parents[2] / "fixtures" / "traces"
FIXTURE = CORPUS / "google2019-r200-s0.jsonl"


def spec(arrival: float, *, job_id=None, name="j") -> TraceJobSpec:
    return TraceJobSpec(
        name=name,
        arrival_time=arrival,
        phases=(PhaseSpec(num_tasks=1, cpu=1.0, mem=1.0, theta=10.0, sigma=0.0),),
        job_id=job_id,
    )


class TestTake:
    def test_stream_ordinal_ids(self):
        src = TraceIngestSource(iter([spec(0.0), spec(5.0)]))
        a, b = src.take(), src.take()
        assert (a.job_id, b.job_id) == (0, 1)
        assert b.arrival_time == 5.0
        assert src.take() is None
        assert src.exhausted
        assert src.consumed == 2

    def test_explicit_job_id_wins(self):
        src = TraceIngestSource(iter([spec(0.0, job_id=77)]))
        assert src.take().job_id == 77

    def test_out_of_order_arrivals_rejected(self):
        src = TraceIngestSource(iter([spec(10.0), spec(3.0)]))
        src.take()
        with pytest.raises(ValueError, match="out of order"):
            src.take()

    def test_from_file(self):
        src = TraceIngestSource.from_file(FIXTURE, "google2019", max_jobs=5)
        jobs = []
        while (job := src.take()) is not None:
            jobs.append(job)
        assert len(jobs) == 5
        assert [j.job_id for j in jobs] == [0, 1, 2, 3, 4]
        arrivals = [j.arrival_time for j in jobs]
        assert arrivals == sorted(arrivals)


class TestCheckpoint:
    def test_pickle_detaches_iterator(self):
        src = TraceIngestSource.from_file(FIXTURE, "google2019", max_jobs=6)
        first = [src.take(), src.take(), src.take()]
        revived = pickle.loads(pickle.dumps(src))
        assert revived.consumed == 3
        with pytest.raises(RuntimeError, match="detached"):
            revived.take()

    def test_attach_skip_consumed_resumes_bit_exact(self):
        uninterrupted = TraceIngestSource.from_file(FIXTURE, "google2019", max_jobs=6)
        reference = []
        while (job := uninterrupted.take()) is not None:
            reference.append(job)

        src = TraceIngestSource.from_file(FIXTURE, "google2019", max_jobs=6)
        for _ in range(3):
            src.take()
        revived = pickle.loads(pickle.dumps(src))
        revived.attach(
            normalize_stream(open_reader(FIXTURE, "google2019"), max_jobs=6)
        )
        resumed = []
        while (job := revived.take()) is not None:
            resumed.append(job)
        assert [(j.job_id, j.arrival_time, j.name) for j in resumed] == [
            (j.job_id, j.arrival_time, j.name) for j in reference[3:]
        ]

    def test_attach_on_too_short_stream(self):
        src = TraceIngestSource(iter([spec(0.0), spec(1.0)]))
        src.take(), src.take()
        with pytest.raises(ValueError, match="fast-forwarding"):
            src.attach(iter([spec(0.0)]))

    def test_attach_keeps_exhausted_source_ended(self):
        specs = [spec(0.0), spec(5.0), spec(9.0)]
        src = TraceIngestSource(iter(specs))
        while src.take() is not None:
            pass
        assert src.exhausted
        revived = pickle.loads(pickle.dumps(src))
        assert revived.exhausted
        revived.attach(iter(specs), skip_consumed=True)
        assert revived.exhausted  # attach re-binds specs, never un-ends
        assert revived.take() is None
        assert revived.consumed == len(specs)


class TestEveryCutIdentity:
    """Checkpoint → restore → attach → drain is byte-identical to the
    uninterrupted run at every consumed count, and after end-of-stream,
    under chaos faults.  Before attach kept exhaustion terminal, the
    post-end-of-stream cut revived a live stream, the fault-renewal
    chain never wound down and the restored leg ran away."""

    JOBS = 12

    def stream(self):
        return normalize_stream(open_reader(FIXTURE, "google2019"), max_jobs=self.JOBS)

    def engine(self):
        return SimulationEngine(
            homogeneous_cluster(8, Resources.of(16, 32)),
            DollyMPScheduler(max_clones=2),
            TraceIngestSource(self.stream()),
            seed=5,
            schedule_interval=5.0,
            fault_profile=FAULT_PROFILES["chaos"],
            record_trace=True,
        )

    def test_restore_identity_at_every_consumed_count(self):
        uninterrupted = self.engine()
        ref = uninterrupted.run().deterministic()
        assert ref.num_jobs == self.JOBS and ref.faults_injected > 0
        # cut JOBS + 1 lands at the first instant after end-of-stream
        for cut in range(self.JOBS + 2):
            engine = self.engine()
            engine.start()
            while (
                not engine.arrivals.exhausted
                if cut > self.JOBS
                else engine.arrivals.consumed < cut
            ) and engine.step():
                pass
            revived = restore_bytes(checkpoint_bytes(engine)[0])
            # a runaway leg dies here instead of hanging the test
            revived.max_time = ref.simulated_time + 10_000.0
            revived.arrivals.attach(self.stream(), skip_consumed=True)
            revived.drain()
            assert revived.finalize().deterministic() == ref, f"cut {cut}"
            assert list(revived.trace) == list(uninterrupted.trace), f"cut {cut}"
