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
"""

from __future__ import annotations

import math
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import mirror as mirror_module
from repro.cluster.heterogeneity import homogeneous_cluster
from repro.core.online import DollyMPScheduler
from repro.faults.profile import FAULT_PROFILES
from repro.resources import Resources
from repro.sim.engine import SimulationEngine
from repro.workload.mapreduce import pagerank_job, wordcount_job

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
    with mock.patch.object(mirror_module, "BLOCK_SIZE", block):
        cluster = homogeneous_cluster(NUM_SERVERS)
    return SimulationEngine(
        cluster,
        DollyMPScheduler(max_clones=2),
        _make_jobs(scale, gap),
        seed=seed,
        schedule_interval=5.0,
        max_time=1e9,
        max_copies_per_task=MAX_COPIES,
        fault_profile=FAULT_PROFILES["chaos"],
        record_trace=True,
    )


def _all_tasks(engine):
    for job in engine.jobs:
        for phase in job.phases:
            yield from phase.tasks


def _check_invariants(engine) -> None:
    # Lifetime copy cap: fault losses are credits, not consumption.
    for task in _all_tasks(engine):
        assert len(task.copies) - task.fault_losses <= MAX_COPIES, (
            f"task {task.uid}: {len(task.copies)} copies with "
            f"{task.fault_losses} fault losses exceeds cap {MAX_COPIES}"
        )

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
    def test_chaos_invariants_and_single_block_identity(
        self, block, seed, scale, gap
    ):
        engine = _make_engine(seed, scale, gap, block)
        assert engine.cluster.mirror.num_blocks() == -(-NUM_SERVERS // block)

        # Step through the run, checking invariants at mid-flight
        # instants (after the run everything is idle and the capacity
        # law would be vacuous).
        for t in (10.0, 35.0, 80.0):
            engine.run_until(t)
            _check_invariants(engine)
        result = engine.run()
        _check_invariants(engine)
        assert engine._live_clone_count == 0
        assert len(result.records) == 6  # chaos must not strand jobs
        assert result.faults_injected > 0  # ...and chaos must actually fire

        # The block size prunes scoring work; it must never change the
        # outcome.
        baseline = _make_engine(seed, scale, gap, NUM_SERVERS)
        assert result.deterministic() == baseline.run().deterministic()
        assert list(engine.trace) == list(baseline.trace)
