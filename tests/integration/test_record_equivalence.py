"""Job records from task ledgers vs the copy-walking reference.

A finished task folds its copies into a ledger and a finished job leaves
the engine as its record (DESIGN.md §5.8), so production builds each
record from ledgers.  ``tests/reference.py`` keeps the form that walks
the copies themselves.  On the identity matrix's testbed and
google-synth rows, with and without chaos (which requeues tasks and
kills copies by faults), every production record must equal the
reference record built from copies snapshotted as each task finished,
field by field and bit for bit.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.devtools.identity import build_engine, google_synth_row, paper_testbed_row
from tests import reference
from tests.conftest import after_finish_hooks


def bits(record) -> tuple:
    """Each field of a record, floats by their exact bit pattern."""
    return tuple(
        (f.name, v.hex() if isinstance(v, float) else v)
        for f in dataclasses.fields(record)
        for v in (getattr(record, f.name),)
    )


@pytest.mark.parametrize("column", ["none", "chaos"])
@pytest.mark.parametrize(
    "make_row", [paper_testbed_row, google_synth_row], ids=["testbed", "google-synth"]
)
def test_records_match_copy_walking_reference(make_row, column):
    row = make_row()
    engine = build_engine(row, column, row.jobs())
    copies: dict = {}
    expected = {}
    fault_hit = 0

    def on_task(task):
        nonlocal fault_hit
        copies[task.uid] = list(task.copies)
        fault_hit += task.fault_losses > 0

    def on_job(job):
        expected[job.job_id] = reference.record_for_job(job, copies)

    after_finish_hooks(engine.scheduler, task=on_task, job=on_job)
    result = engine.run()

    assert len(result.records) == len(expected) == len(row.specs)
    assert len(copies) == sum(r.num_tasks for r in result.records)
    for record in result.records:
        assert bits(record) == bits(expected[record.job_id])
    if column == "chaos":
        assert result.copies_lost > 0 and fault_hit > 0
        # On the testbed a surviving clone masks every loss; google-synth
        # requeues tasks whose last copy died.
        assert (result.tasks_requeued > 0) == (row.name == "google-synth")
