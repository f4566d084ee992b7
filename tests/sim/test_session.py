"""Session-API tests (DESIGN.md §5.8): step/run_until/drain/ingest,
arrival sources, and equivalence with the legacy one-shot run."""

import json
from dataclasses import replace

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.heterogeneity import homogeneous_cluster
from repro.faults import FAULT_PROFILES
from repro.resources import Resources
from repro.schedulers.fifo import FIFOScheduler
from repro.core.online import DollyMPScheduler
from repro.sim.engine import SimulationEngine
from repro.sim.session import SimulationSession
from repro.workload.arrivals import GeneratorSource, JsonlSource, StaticSource
from repro.workload.google_trace import (
    GoogleTraceGenerator,
    jobs_from_specs,
    spec_to_dict,
)
from tests.conftest import make_chain_job, make_single_task_job


def trace_specs(n=12, seed=3, gap=15.0):
    specs = GoogleTraceGenerator(seed=seed).generate(n, mean_interarrival=gap)
    return [replace(s, job_id=i) for i, s in enumerate(specs)]


def mk_cluster():
    return homogeneous_cluster(8, Resources.of(16, 32))


def mk_engine(jobs_or_source, **kw):
    kw.setdefault("seed", 7)
    return SimulationEngine(mk_cluster(), DollyMPScheduler(max_clones=2),
                            jobs_or_source, **kw)


class TestStepAPI:
    def test_step_processes_one_instant(self, small_cluster):
        a = make_single_task_job(theta=10.0, arrival_time=0.0, job_id=1)
        b = make_single_task_job(theta=10.0, arrival_time=5.0, job_id=2)
        engine = SimulationEngine(small_cluster, FIFOScheduler(), [a, b])
        assert engine.step()  # t=0 arrival
        assert engine.now == 0.0
        assert engine.step()  # t=5 arrival
        assert engine.now == 5.0
        assert engine.step()  # t=10 finish of a
        assert engine.now == 10.0
        assert engine.step()  # t=15 finish of b
        assert not engine.step()
        assert engine.finalize().num_jobs == 2

    def test_run_until_inclusive_and_exclusive(self, small_cluster):
        jobs = [
            make_single_task_job(theta=1.0, arrival_time=float(t), job_id=t)
            for t in range(5)
        ]
        engine = SimulationEngine(small_cluster, FIFOScheduler(), jobs)
        engine.run_until(2.0, inclusive=False)
        assert engine.now < 2.0
        engine.run_until(2.0)
        assert engine.now == 2.0
        engine.run_until(1e9)  # beyond horizon == drain
        result = engine.finalize()
        assert result.num_jobs == 5
        # clock stops at the last event, not the bound
        assert result.simulated_time == 5.0

    def test_drain_counts_instants(self, small_cluster):
        job = make_chain_job(2, 2, theta=3.0)
        engine = SimulationEngine(small_cluster, FIFOScheduler(), [job])
        n = engine.drain()
        assert n > 0
        assert engine.finalize().num_jobs == 1

    def test_run_is_start_drain_finalize(self, small_cluster):
        job = make_single_task_job(theta=4.0, job_id=1)
        one = SimulationEngine(small_cluster, FIFOScheduler(), [job]).run()
        job2 = make_single_task_job(theta=4.0, job_id=1)
        e = SimulationEngine(small_cluster, FIFOScheduler(), [job2])
        e.start()
        e.drain()
        two = e.finalize()
        assert one.deterministic() == two.deterministic()

    def test_start_idempotent(self, small_cluster):
        job = make_single_task_job(theta=4.0)
        e = SimulationEngine(small_cluster, FIFOScheduler(), [job])
        e.start()
        before = len(e.events)
        e.start()
        assert len(e.events) == before

    def test_max_time_guard_rides_run_until(self, small_cluster):
        job = make_single_task_job(theta=100.0)
        engine = SimulationEngine(
            small_cluster, FIFOScheduler(), [job], max_time=10.0
        )
        with pytest.raises(RuntimeError, match="max_time"):
            engine.run_until(1e9)

    def test_starvation_message_under_slotted(self):
        # Regression: the starvation error must still carry the
        # scheduler name when driven through run_until with slots.
        class DoNothing(FIFOScheduler):
            name = "lazy-slotted"

            def schedule(self, view):
                pass

        cluster = homogeneous_cluster(1, Resources.of(8, 8))
        job = make_single_task_job(theta=5.0)
        engine = SimulationEngine(
            cluster, DoNothing(), [job], max_time=100.0, schedule_interval=5.0
        )
        with pytest.raises(RuntimeError) as exc:
            engine.run_until(1e9)
        msg = str(exc.value)
        assert "lazy-slotted" in msg
        assert "max_time=100" in msg or "starved" in msg

    def test_finalize_rejects_unfinished(self, small_cluster):
        a = make_single_task_job(theta=10.0, arrival_time=0.0, job_id=1)
        engine = SimulationEngine(small_cluster, FIFOScheduler(), [a])
        engine.run_until(0.0)  # arrival processed, finish still pending
        with pytest.raises(RuntimeError, match="unfinished"):
            engine.finalize()

    def test_partial_result_between_instants(self, small_cluster):
        a = make_single_task_job(theta=1.0, arrival_time=0.0, job_id=1)
        b = make_single_task_job(theta=1.0, arrival_time=10.0, job_id=2)
        engine = SimulationEngine(small_cluster, FIFOScheduler(), [a, b])
        engine.run_until(5.0)
        partial = engine.partial_result()
        assert partial.num_jobs == 1
        engine.drain()
        assert engine.finalize().num_jobs == 2


class TestIngest:
    def test_ingest_into_live_session(self, small_cluster):
        a = make_single_task_job(theta=5.0, arrival_time=0.0, job_id=1)
        engine = SimulationEngine(small_cluster, FIFOScheduler(), [a])
        engine.run_until(0.0)
        late = make_single_task_job(theta=5.0, arrival_time=3.0, job_id=2)
        engine.ingest(late)
        engine.drain()
        result = engine.finalize()
        assert result.num_jobs == 2
        assert late.finish_time == pytest.approx(8.0)

    def test_ingest_rejects_past_arrival(self, small_cluster):
        a = make_single_task_job(theta=5.0, arrival_time=10.0, job_id=1)
        engine = SimulationEngine(small_cluster, FIFOScheduler(), [a])
        engine.run_until(10.0)
        stale = make_single_task_job(theta=1.0, arrival_time=4.0, job_id=2)
        with pytest.raises(ValueError, match="precedes"):
            engine.ingest(stale)

    @pytest.mark.parametrize(
        "scheduler",
        [FIFOScheduler, lambda: DollyMPScheduler(max_clones=2)],
        ids=["fifo", "dollymp2"],
    )
    def test_listed_duplicate_id_fails_the_build(self, scheduler):
        """A job list is admitted whole when the engine is built: a
        repeated id fails there, rather than losing a job to the run."""
        a = make_chain_job(2, 2, job_id=1)
        b = make_single_task_job(arrival_time=1.0, job_id=1)
        with pytest.raises(ValueError, match="job 1: duplicate job id"):
            SimulationEngine(
                homogeneous_cluster(4, Resources.of(8, 16)), scheduler(), [a, b]
            )

    def test_ingest_rejects_duplicate_id(self, small_cluster):
        a = make_single_task_job(theta=5.0, arrival_time=0.0, job_id=1)
        engine = SimulationEngine(small_cluster, FIFOScheduler(), [a])
        dup = make_single_task_job(theta=5.0, arrival_time=1.0, job_id=1)
        with pytest.raises(ValueError, match="duplicate"):
            engine.ingest(dup)

    def test_ingest_rejects_infeasible(self, small_cluster):
        engine = SimulationEngine(
            small_cluster, FIFOScheduler(),
            [make_single_task_job(theta=1.0, job_id=1)],
        )
        huge = make_single_task_job(cpu=10_000.0, theta=1.0, job_id=2)
        with pytest.raises(ValueError, match="exceeds every server"):
            engine.ingest(huge)

    def test_ingest_rejects_demand_fitting_no_single_server(self):
        cluster = Cluster.build([(Resources.of(24, 16), 1.0), (Resources.of(8, 48), 1.0)])
        engine = SimulationEngine(cluster, FIFOScheduler(), [])
        job = make_single_task_job(cpu=20.0, mem=40.0, job_id=3)
        with pytest.raises(ValueError, match="job 3 phase 0: demand .* exceeds every server"):
            engine.ingest(job)
        # The rejected job left nothing behind, not even its id.
        assert not engine.events and not engine.workload_active()
        engine.ingest(make_single_task_job(cpu=20.0, mem=10.0, job_id=3))
        assert engine.run().num_jobs == 1

    def test_ingest_restarts_idle_slotted_session(self, small_cluster):
        # Let the tick chain die on an empty queue, then ingest: the
        # session must revive and finish the late job.
        a = make_single_task_job(theta=2.0, arrival_time=0.0, job_id=1)
        engine = SimulationEngine(
            small_cluster, FIFOScheduler(), [a], schedule_interval=5.0
        )
        engine.drain()
        assert not engine.events
        late = make_single_task_job(theta=2.0, arrival_time=30.0, job_id=2)
        engine.ingest(late)
        engine.drain()
        result = engine.finalize()
        assert result.num_jobs == 2
        assert late.finish_time is not None


class TestArrivalSources:
    def test_static_source_equivalent_to_list(self):
        specs = trace_specs()
        r1 = mk_engine(jobs_from_specs(specs)).run()
        r2 = mk_engine(StaticSource(jobs_from_specs(specs))).run()
        assert r1.deterministic() == r2.deterministic()

    @pytest.mark.parametrize("slot", [0.0, 5.0])
    def test_generator_source_equivalent(self, slot):
        specs = trace_specs()
        r1 = mk_engine(jobs_from_specs(specs), schedule_interval=slot).run()
        r2 = mk_engine(
            GeneratorSource(iter(jobs_from_specs(specs))), schedule_interval=slot
        ).run()
        assert r1.deterministic() == r2.deterministic()

    @pytest.mark.parametrize("slot", [0.0, 5.0])
    def test_jsonl_source_equivalent(self, slot):
        specs = trace_specs()
        lines = [json.dumps(spec_to_dict(s)) for s in specs]
        r1 = mk_engine(jobs_from_specs(specs), schedule_interval=slot).run()
        r2 = mk_engine(JsonlSource(iter(lines)), schedule_interval=slot).run()
        assert r1.deterministic() == r2.deterministic()

    def test_streamed_equivalent_under_faults(self):
        specs = trace_specs()
        lines = [json.dumps(spec_to_dict(s)) for s in specs]
        kw = dict(fault_profile=FAULT_PROFILES["chaos"], schedule_interval=5.0,
                  record_trace=True)
        e1 = mk_engine(jobs_from_specs(specs), **kw)
        r1 = e1.run()
        e2 = mk_engine(JsonlSource(iter(lines)), **kw)
        r2 = e2.run()
        assert r1.deterministic() == r2.deterministic()
        assert list(e1.trace) == list(e2.trace)

    def test_generator_source_rejects_out_of_order(self, small_cluster):
        jobs = [
            make_single_task_job(theta=1.0, arrival_time=10.0, job_id=1),
            make_single_task_job(theta=1.0, arrival_time=5.0, job_id=2),
        ]
        src = GeneratorSource(iter(jobs))
        src.take()
        with pytest.raises(ValueError, match="out of order"):
            src.take()

    def test_jsonl_source_assigns_sequential_ids(self):
        specs = [replace(s, job_id=None) for s in trace_specs(n=3)]
        lines = [json.dumps(spec_to_dict(s)) for s in specs]
        src = JsonlSource(iter(lines))
        ids = []
        while (job := src.take()) is not None:
            ids.append(job.job_id)
        assert ids == [0, 1, 2]
        assert src.exhausted
        assert src.consumed == 3

    def test_jsonl_source_skips_blank_lines(self):
        specs = trace_specs(n=2)
        lines = [json.dumps(spec_to_dict(specs[0])), "", "  ",
                 json.dumps(spec_to_dict(specs[1]))]
        src = JsonlSource(iter(lines))
        assert src.take().job_id == 0
        assert src.take().job_id == 1
        assert src.take() is None


class TestSessionDriver:
    def test_session_run_matches_one_shot(self, tmp_path):
        specs = trace_specs()
        r1 = mk_engine(jobs_from_specs(specs)).run()
        session = SimulationSession(
            mk_engine(jobs_from_specs(specs)),
            checkpoint_path=tmp_path / "ckpt.bin",
            checkpoint_every=50.0,
        )
        r2 = session.run()
        assert r1.deterministic() == r2.deterministic()
        assert session.checkpoints_written > 0
        assert (tmp_path / "ckpt.bin").exists()

    def test_metrics_cadence(self):
        specs = trace_specs(n=6)
        calls = []
        session = SimulationSession(
            mk_engine(jobs_from_specs(specs)),
            on_metrics=lambda engine: calls.append(engine.now),
            metrics_every=25.0,
        )
        session.run()
        assert calls  # published at least the final snapshot
        # boundaries are non-decreasing and spaced >= cadence (bar the
        # forced final publication)
        assert all(b >= a for a, b in zip(calls, calls[1:]))


class TestBoundarySemantics:
    """Regression pins for the cadence/boundary bug sweep (PR 10): events
    stamped exactly at ``t`` must not leak through an exclusive
    ``run_until``, and the session cadence grid must neither double-fire
    nor skip when a cadence point coincides with an event time — even
    across a mid-run restore cut exactly at the boundary instant."""

    def test_run_until_exclusive_holds_events_stamped_at_bound(self, small_cluster):
        early = make_single_task_job(theta=20.0, arrival_time=0.0, job_id=1)
        at_bound = make_single_task_job(theta=20.0, arrival_time=5.0, job_id=2)
        engine = SimulationEngine(small_cluster, FIFOScheduler(), [early, at_bound])
        engine.run_until(5.0, inclusive=False)
        assert engine.now < 5.0
        assert 2 not in engine.active_jobs  # the t=5.0 arrival did not leak
        engine.run_until(5.0)
        assert engine.now == 5.0
        assert 2 in engine.active_jobs

    def test_first_cadence_boundary_strictly_after_clock(self, tmp_path):
        # 50 * 0.1 rounds to exactly 5.0, so the naive int(now//every)+1
        # grid landed *on* the clock instead of strictly after it.
        job = make_single_task_job(theta=1.0, arrival_time=5.0, job_id=1)
        engine = mk_engine([job])
        engine.run_until(5.0)
        assert engine.now == 5.0
        session = SimulationSession(
            engine, checkpoint_path=tmp_path / "c.bin", checkpoint_every=0.1
        )
        assert session._next_checkpoint > engine.now
        session2 = SimulationSession(engine, on_metrics=lambda e: None,
                                     metrics_every=0.1)
        assert session2._next_metrics > engine.now

    def test_cadence_grid_stable_across_restore_at_boundary_instant(self):
        from repro.sim.checkpoint import checkpoint_bytes, restore_bytes

        def jobs():
            return [
                make_single_task_job(theta=30.0, arrival_time=0.0, job_id=1),
                # the cut instant: event time == cadence point (50 * 0.1 == 5.0)
                make_single_task_job(theta=30.0, arrival_time=5.0, job_id=2),
                # an instant strictly inside (5.0, 5.1): a drifted or
                # non-strict grid fires here, the true grid must not
                make_single_task_job(theta=30.0, arrival_time=5.05, job_id=3),
                make_single_task_job(theta=30.0, arrival_time=9.5, job_id=4),
            ]

        uninterrupted = []
        SimulationSession(
            mk_engine(jobs()),
            on_metrics=lambda e: uninterrupted.append(e.now),
            metrics_every=0.1,
        ).run()

        engine = mk_engine(jobs())
        engine.run_until(5.0)
        assert engine.now == 5.0
        revived = restore_bytes(checkpoint_bytes(engine)[0])
        resumed = []
        SimulationSession(
            revived,
            on_metrics=lambda e: resumed.append(e.now),
            metrics_every=0.1,
        ).run()
        # the revived session re-derives the grid from the clock; every
        # publication after the cut must land on the same instants the
        # uninterrupted session used (bar the forced final publication,
        # present in both).
        assert resumed == [t for t in uninterrupted if t > 5.0]
