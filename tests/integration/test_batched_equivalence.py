"""Batched/lazy/cached engine paths vs the reference kernels.

Every kernel of a DollyMP pass — the mirror-backed task fill, the cached
clone fill, the batched doubling-category pass of Algorithm 1 and lazy
priority maintenance — has a plain reference in ``tests/reference.py``.
Each "hatch" below swaps one of them into production; each hatch, and
all of them together, must be a pure performance change: identical
copy-launch sequences and bit-identical metrics, in event-driven and
slotted modes, with and without fault injection (DESIGN.md §5.6).  The
best-fit scan, which DollyMP's fills do not call, is covered per
scheduler in ``test_vectorized_equivalence.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.heterogeneity import paper_cluster_30_nodes
from repro.core.online import DollyMPScheduler
from repro.devtools.identity import build_engine, paper_testbed_row
from repro.faults import FaultProfile
from repro.sim.replay import assert_replay_identical
from repro.sim.runner import run_simulation
from tests.integration.test_vectorized_equivalence import (
    SEED,
    launch_log,
    mixed_dag_jobs,
)
from tests.conftest import snapshot_copies
from tests.reference import KERNELS, EagerDollyMP

#: Hatch → (DollyMP class, reference kernels swapped in).
HATCHES = {
    "task-fill": (DollyMPScheduler, ("task-fill",)),
    "scalar-clone-fill": (DollyMPScheduler, ("clone-fill",)),
    "scalar-priorities": (DollyMPScheduler, ("priorities",)),
    "eager-priorities": (EagerDollyMP, ()),
    "all-hatches": (EagerDollyMP, KERNELS),
}

#: Aggressive-but-survivable churn: a failure somewhere every ~3
#: simulated minutes, quick repairs, a light per-copy failure hazard.
CHURN = FaultProfile(
    mtbf=180.0,
    mttr=25.0,
    copy_fail_rate=1.0 / 900.0,
    slowdown_rate=1.0 / 600.0,
)


def run_one(scheduler=DollyMPScheduler, *, schedule_interval=0.0, fault_profile=None):
    sched = scheduler(max_clones=2)
    copies = snapshot_copies(sched)
    result = run_simulation(
        paper_cluster_30_nodes(),
        sched,
        mixed_dag_jobs(),
        seed=SEED,
        schedule_interval=schedule_interval,
        max_time=1e7,
        fault_profile=fault_profile,
    )
    return result, launch_log(copies)


def run_hatched(reference_kernels, hatch, **kw):
    """(production, reference) runs with ``hatch`` swapped into the second."""
    production = run_one(**kw)
    scheduler, kernels = HATCHES[hatch]
    reference_kernels(*kernels)
    return production, run_one(scheduler, **kw)


def assert_equivalent(a, b):
    res_a, log_a = a
    res_b, log_b = b
    assert log_a == log_b
    assert np.array_equal(res_a.flowtimes(), res_b.flowtimes())
    assert res_a.total_flowtime == res_b.total_flowtime
    assert res_a.makespan == res_b.makespan
    assert res_a.copies_launched == res_b.copies_launched
    assert res_a.clones_launched == res_b.clones_launched
    assert res_a.avg_utilization == res_b.avg_utilization


@pytest.mark.parametrize("hatch", list(HATCHES))
def test_each_hatch_is_identity(reference_kernels, hatch):
    assert_equivalent(*run_hatched(reference_kernels, hatch))


def test_all_hatches_slotted(reference_kernels):
    assert_equivalent(*run_hatched(reference_kernels, "all-hatches", schedule_interval=5.0))


def test_all_hatches_under_faults(reference_kernels):
    """Fault churn exercises the batched drain's same-instant ordering
    (kills, requeues, server sweeps); the hatched run must still match."""
    base, hatched = run_hatched(
        reference_kernels,
        "all-hatches",
        schedule_interval=5.0,
        fault_profile=CHURN,
    )
    assert base[0].faults_injected > 0
    assert_equivalent(base, hatched)


def test_engine_smoke_run_matches_all_references(reference_kernels):
    """The identity gate's testbed × chaos engine (8 jobs, seed 7,
    event-driven, sanitizer on, journal recorded) matches the same run
    on every reference kernel at once."""
    row = paper_testbed_row()

    def run(scheduler):
        engine = build_engine(row, "chaos", row.jobs(), scheduler)
        return engine.run(), engine.trace

    result, trace = run(DollyMPScheduler)
    reference_kernels(*KERNELS)
    ref_result, ref_trace = run(EagerDollyMP)
    assert result.faults_injected > 0
    assert ref_trace.decisions == trace.decisions
    assert_replay_identical(result, ref_result)
