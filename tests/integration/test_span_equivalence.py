"""The span tracer's columns vs the list-of-``Span`` reference.

A served session keeps every span it records, so production keeps
closed spans as columns and builds ``Span`` views on demand (DESIGN.md
§5.4).  ``tests/reference.py`` keeps the tracer that holds each closed
span as an object.  On the identity matrix's testbed and google-synth
rows, with and without chaos, both tracers must export the same bytes,
dicts and spans, in the same order, and past a small ``maxlen`` drop
the same number of spans.
"""

from __future__ import annotations

import pytest

from repro.core.online import DollyMPScheduler
from repro.devtools.identity import MAX_TIME, google_synth_row, paper_testbed_row
from repro.faults import FAULT_PROFILES
from repro.observability import Observability
from repro.observability.spans import DEFAULT_SPAN_MAXLEN, SpanTracer
from repro.sim.engine import SimulationEngine
from tests import reference


def traced_run(row, column, tracer):
    obs = Observability()
    obs.tracer = tracer
    SimulationEngine(
        row.cluster(),
        DollyMPScheduler(max_clones=2),
        row.jobs(),
        seed=row.seed,
        schedule_interval=row.schedule_interval,
        max_time=MAX_TIME,
        sanitize=row.sanitize,
        fault_profile=FAULT_PROFILES[column],
        observability=obs,
    ).run()
    return tracer


@pytest.mark.parametrize("maxlen", [DEFAULT_SPAN_MAXLEN, 500], ids=["all", "maxlen-500"])
@pytest.mark.parametrize("column", ["none", "chaos"])
@pytest.mark.parametrize(
    "make_row", [paper_testbed_row, google_synth_row], ids=["testbed", "google-synth"]
)
def test_columns_match_list_reference(make_row, column, maxlen, tmp_path):
    row = make_row()
    got = traced_run(row, column, SpanTracer(maxlen=maxlen))
    want = traced_run(row, column, reference.SpanTracer(maxlen=maxlen))

    assert len(got) == len(want) == min(maxlen, len(want) + want.dropped)
    assert got.dropped == want.dropped
    assert (got.dropped > 0) == (maxlen == 500)
    assert got.to_dicts() == want.to_dicts()
    assert [s.to_dict() for s in got.spans] == [s.to_dict() for s in want.spans]
    for tracer, name in ((got, "columns.jsonl"), (want, "reference.jsonl")):
        tracer.dump_jsonl(tmp_path / name)
    assert (tmp_path / "columns.jsonl").read_bytes() == (tmp_path / "reference.jsonl").read_bytes()
