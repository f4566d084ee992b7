"""The identity matrix's cell function, on the rows cheap enough for tier 1.

Every trace row × fault column runs through :func:`run_cell` exactly as
``make identity`` runs it — one-shot, streamed, checkpoint-cut (including
the cut after end-of-stream) and replayed legs — and must come back
identical, its one-shot run matching the pinned digests.  A perturbed
leg or a moved pin must be reported by row, column and leg.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.devtools import identity
from repro.sim.actions import DecisionTrace
from repro.workload.ingest import source as ingest_source
from repro.workload.job import Job
from repro.workload.mapreduce import pagerank_job, wordcount_job


@pytest.fixture(scope="module")
def trace_rows(tmp_path_factory):
    fixtures = tmp_path_factory.mktemp("trace-fixtures")
    return {row.name: row for row in identity.trace_rows(fixtures)}


@pytest.mark.parametrize("column", identity.COLUMNS)
@pytest.mark.parametrize("schema", ["google2011", "google2019", "alibaba2018"])
def test_trace_cell_identical(trace_rows, schema, column):
    report = identity.run_cell(trace_rows[schema], column)
    assert report.startswith(f"{schema:<12} × {column:<5} identical")


def test_trace_rows_test_distinct_engine_runs(trace_rows):
    """Every trace row gives the engine its own run: no two rows share a
    decision journal, so each row tests more than its reader."""
    journals = set()
    for row in trace_rows.values():
        engine = identity.build_engine(row, "none", row.jobs())
        engine.run()
        journals.add(tuple(d.to_json() for d in engine.trace))
    assert len(journals) == len(trace_rows)


def _perturb_result(result, trace):
    return replace(result, simulated_time=result.simulated_time + 1.0), trace


def _perturb_journal(result, trace):
    return result, DecisionTrace(_decisions=list(trace)[:-1])


@pytest.mark.parametrize(
    "leg, perturb, detail",
    [
        pytest.param("streamed", _perturb_result, "served: simulated_time", id="result"),
        pytest.param(
            "checkpoint-cut", _perturb_journal, "uninterrupted: journal differs", id="journal"
        ),
    ],
)
def test_perturbed_leg_is_reported(trace_rows, monkeypatch, leg, perturb, detail):
    honest = dict(identity.LEGS)[leg]

    def perturbed(cell):
        for label, result, trace in honest(cell):
            yield (label, *perturb(result, trace))

    legs = tuple((name, perturbed if name == leg else run) for name, run in identity.LEGS)
    monkeypatch.setattr(identity, "LEGS", legs)
    with pytest.raises(identity.IdentityFailure) as exc:
        identity.run_cell(trace_rows["alibaba2018"], "none")
    failure = exc.value
    assert (failure.row, failure.column, failure.leg) == ("alibaba2018", "none", leg)
    assert failure.detail.startswith(detail)


def test_one_shot_digest_mismatch_is_reported(trace_rows, monkeypatch):
    """A one-shot run that no longer matches its pinned digests fails
    its cell, even though every other leg matches that run."""
    pins = dict(identity.ONE_SHOT_DIGESTS)
    result_pin, journal_pin = pins["alibaba2018", "chaos"]
    pins["alibaba2018", "chaos"] = (result_pin, "0" * 64)
    monkeypatch.setattr(identity, "ONE_SHOT_DIGESTS", pins)
    with pytest.raises(identity.IdentityFailure) as exc:
        identity.run_cell(trace_rows["alibaba2018"], "chaos")
    failure = exc.value
    assert (failure.row, failure.column, failure.leg) == ("alibaba2018", "chaos", "one-shot")
    assert failure.detail == f"journal digest {journal_pin} differs from the pinned {'0' * 64}"


def test_restored_span_divergence_is_reported(trace_rows, monkeypatch):
    """The checkpoint-cut leg records spans: a restored leg whose span
    export differs from the uninterrupted leg's fails the cell, even
    when its result and journal match."""

    restore = identity.restore_bytes

    def restore_with_extra_span(payload):
        engine = restore(payload)
        with engine.observability.tracer.span("extra", engine.now):
            pass
        return engine

    monkeypatch.setattr(identity, "restore_bytes", restore_with_extra_span)
    with pytest.raises(identity.IdentityFailure) as exc:
        identity.run_cell(trace_rows["alibaba2018"], "none")
    failure = exc.value
    assert failure.leg == "checkpoint-cut"
    assert failure.detail.endswith("span export differs from the uninterrupted leg's")


def test_cuts_without_unbuilt_tasks_are_reported(trace_rows, monkeypatch):
    """A checkpoint-cut leg none of whose cuts holds a task not yet
    built never restores an unbuilt slot, and the cell fails."""
    monkeypatch.setattr(identity, "_holds_unbuilt_task", lambda engine: False)
    with pytest.raises(identity.IdentityFailure) as exc:
        identity.run_cell(trace_rows["google2011"], "none")
    assert (exc.value.leg, exc.value.detail) == (
        "checkpoint-cut",
        "no cut holds a task not yet built",
    )


def test_cuts_without_unbuilt_jobs_are_reported(trace_rows, monkeypatch):
    """A source that builds each job as it is pulled leaves no cut
    holding a job known only by its spec, and the cell fails."""

    def built_on_pull(spec):
        job = Job.from_spec(spec)
        job.build()
        return job

    monkeypatch.setattr(ingest_source, "job_from_spec", built_on_pull)
    with pytest.raises(identity.IdentityFailure) as exc:
        identity.run_cell(trace_rows["google2011"], "none")
    assert (exc.value.leg, exc.value.detail) == (
        "checkpoint-cut",
        "no cut holds a job not yet built",
    )


def test_testbed_specs_materialize_the_builder_jobs():
    """The testbed row is ``wordcount_job(4.0)``/``pagerank_job(1.0)``
    written as specs: same tasks, demands, DAG and duration laws."""

    def shape(job):
        return (
            job.job_id,
            job.name,
            job.arrival_time,
            [
                (
                    p.num_tasks,
                    p.demand,
                    p.parents,
                    p.start_delay,
                    p.distribution.x_m,
                    p.distribution.alpha,
                )
                for p in job.phases
            ],
        )

    built = [
        wordcount_job(4.0, arrival_time=45.0 * i, job_id=i)
        if i % 2 == 0
        else pagerank_job(1.0, arrival_time=45.0 * i, job_id=i)
        for i in range(8)
    ]
    row = identity.paper_testbed_row()
    assert [shape(j) for j in row.jobs()] == [shape(j) for j in built]
