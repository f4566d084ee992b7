"""Property-based tests (hypothesis) for the block-bound placement index.

Three invariants must hold for *any* block size of the mirror's
placement index — one server per block, a few, a size that does not
divide the cluster, or one block for all — under chaos fault churn
(DESIGN.md §5.10):

* **Lifetime copy cap** — a task never accumulates more than
  ``max_copies_per_task`` scheduler-chosen copies; fault-killed copies
  are relaunch credits, not cap consumption.
* **Clone-budget bitwise-zero snap** — whenever no clone is live, the
  δ-budget occupancy is *exactly* ``Resources(0.0, 0.0)``, not merely
  small: repeated add/subtract rounding must never leak budget.
* **Capacity conservation** — per up server, ``allocated + available``
  reconstructs capacity with the engine's own rounding, allocation
  stays within capacity, an idle server's allocation snaps to bitwise
  zero, the SoA mirror holds the same floats as the servers, and no
  block's availability bound falls below one of its members.

On top of the invariants, every block size must land on the same result
as the single-block run — the index prunes work, never changes a
placement.

Chaos draws server failures, slowdowns and copy failures from Poisson
processes, so a short run can draw none: at seed 346 (scale 1.0, gap
5.0) the 6-job run ends at t ≈ 84 s without a fault.  The invariants
must hold for every drawn seed, that one included; that chaos fires is
asserted on pinned seeds known to inject faults.
"""

from __future__ import annotations

import math
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import mirror as mirror_module
from repro.cluster.heterogeneity import homogeneous_cluster
from repro.core.online import DollyMPScheduler
from repro.faults.profile import FAULT_PROFILES
from repro.resources import Resources
from repro.sim.engine import SimulationEngine
from repro.workload.mapreduce import pagerank_job, wordcount_job
from tests.conftest import all_tasks

NUM_SERVERS = 12
MAX_COPIES = 3

#: Block sizes: one server per block, an even split, a size that leaves
#: a short last block, and one block covering the whole cluster.
block_sizes = st.sampled_from([1, 2, 7, NUM_SERVERS, 4096])


def _make_jobs(scale: float, gap: float):
    """Deterministic workload with explicit job ids, so two engines
    built in one process see identical jobs (no global id counter)."""
    jobs = []
    for i in range(6):
        if i % 2 == 0:
            jobs.append(wordcount_job(scale, arrival_time=gap * i, job_id=i))
        else:
            jobs.append(pagerank_job(scale / 4.0, arrival_time=gap * i, job_id=i))
    return jobs


def _make_engine(seed: int, scale: float, gap: float, block: int):
    """The engine and every task of its workload, held here: a finished
    job releases its phase/task graph, so the engine cannot list them."""
    with mock.patch.object(mirror_module, "BLOCK_SIZE", block):
        cluster = homogeneous_cluster(NUM_SERVERS)
    jobs = _make_jobs(scale, gap)
    tasks = [task for job in jobs for phase in job.phases for task in all_tasks(phase)]
    engine = SimulationEngine(
        cluster,
        DollyMPScheduler(max_clones=2),
        jobs,
        seed=seed,
        schedule_interval=5.0,
        max_time=1e9,
        max_copies_per_task=MAX_COPIES,
        fault_profile=FAULT_PROFILES["chaos"],
        record_trace=True,
    )
    return engine, tasks


def _check_invariants(engine, tasks) -> None:
    # Lifetime copy cap: fault losses are credits, not consumption.  A
    # finished task counts the copies its ledger folded.
    launched_tasks = 0
    for task in tasks:
        launched = task.num_copies
        launched_tasks += launched > 0
        assert launched - task.fault_losses <= MAX_COPIES, (
            f"task {task.uid}: {launched} copies with "
            f"{task.fault_losses} fault losses exceeds cap {MAX_COPIES}"
        )
    assert launched_tasks > 0

    # Clone-budget bitwise-zero snap.
    assert engine.clone_occupancy.cpu >= 0.0
    assert engine.clone_occupancy.mem >= 0.0
    if engine._live_clone_count == 0:
        assert engine.clone_occupancy == Resources(0.0, 0.0), (
            f"no live clones but occupancy {engine.clone_occupancy!r} "
            "did not snap to bitwise zero"
        )

    # Capacity conservation + mirror exactness.
    mirror = engine.cluster.mirror
    for server in engine.cluster:
        i = server.server_id
        alloc, avail, cap = server.allocated, server.available, server.capacity
        running = server.running_copies
        if server.up:
            # available is derived as max(cap - alloc, 0) — reconstruct
            # with the same expression, demanding float equality.
            assert avail.cpu == max(cap.cpu - alloc.cpu, 0.0)
            assert avail.mem == max(cap.mem - alloc.mem, 0.0)
            assert 0.0 <= alloc.cpu <= cap.cpu + 1e-9
            assert 0.0 <= alloc.mem <= cap.mem + 1e-9
            if not running:
                assert alloc == Resources(0.0, 0.0), (
                    f"server {i}: idle but allocation {alloc!r} did not "
                    "snap to bitwise zero"
                )
            else:
                assert math.isclose(
                    alloc.cpu, sum(c.task.demand.cpu for c in running), rel_tol=1e-9
                )
                assert math.isclose(
                    alloc.mem, sum(c.task.demand.mem for c in running), rel_tol=1e-9
                )
        else:
            assert not running, f"server {i}: down but hosting copies"
        assert bool(mirror.up[i]) == server.up
        assert mirror.avail_cpu[i] == avail.cpu
        assert mirror.avail_mem[i] == avail.mem
    assert mirror.loose_bounds() == []


class TestBlockSizes:
    @given(
        block=block_sizes,
        seed=st.integers(min_value=0, max_value=2**16),
        scale=st.sampled_from([1.0, 2.0, 4.0]),
        gap=st.sampled_from([5.0, 20.0]),
    )
    @settings(max_examples=20, deadline=None)
    @example(block=1, seed=346, scale=1.0, gap=5.0)  # chaos draws no fault
    def test_chaos_invariants_and_single_block_identity(
        self, block, seed, scale, gap
    ):
        engine, tasks = _make_engine(seed, scale, gap, block)
        assert engine.cluster.mirror.num_blocks() == -(-NUM_SERVERS // block)

        # Step through the run, checking invariants at mid-flight
        # instants (after the run everything is idle and the capacity
        # law would be vacuous).
        for t in (10.0, 35.0, 80.0):
            engine.run_until(t)
            _check_invariants(engine, tasks)
        result = engine.run()
        _check_invariants(engine, tasks)
        assert engine._live_clone_count == 0
        assert len(result.records) == 6  # chaos must not strand jobs
        # Every task finished and folded its copies into its ledger.
        assert all(t.ledger is not None and t.copies == () for t in tasks)

        # The block size prunes scoring work; it must never change the
        # outcome.
        baseline, _ = _make_engine(seed, scale, gap, NUM_SERVERS)
        assert result.deterministic() == baseline.run().deterministic()
        assert list(engine.trace) == list(baseline.trace)

    @pytest.mark.parametrize("scale", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("gap", [5.0, 20.0])
    def test_chaos_fires_on_pinned_seeds(self, scale, gap):
        """Seed 0 injects faults in every workload cell (5 to 13 of them,
        losing 3 to 24 copies), so a chaos profile that stopped firing
        fails here."""
        engine, tasks = _make_engine(0, scale, gap, 7)
        result = engine.run()
        _check_invariants(engine, tasks)
        assert len(result.records) == 6
        assert result.faults_injected > 0
        assert result.copies_lost > 0
