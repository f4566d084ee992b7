"""Unit tests for span tracing: nesting, misnesting, the bounded
buffer's count-and-drop overflow, the deterministic JSONL export, and
closed spans kept as columns."""

import gc
import json
import pickle
from dataclasses import fields

import pytest

from repro.observability.spans import SPAN_SCHEMA, Span, SpanTracer


def test_nesting_depth_and_parent_links():
    tracer = SpanTracer()
    outer = tracer.enter("event:copy_finish", 0.0)
    inner = tracer.enter("decision:task_finish", 1.0, point=3)
    assert tracer.open_depth == 2
    tracer.exit(inner, 2.0)
    tracer.exit(outer, 3.0)
    assert tracer.open_depth == 0

    dicts = tracer.to_dicts()
    assert [d["name"] for d in dicts] == ["event:copy_finish", "decision:task_finish"]
    o, i = dicts
    assert (o["depth"], o["parent"]) == (0, None)
    assert (i["depth"], i["parent"]) == (1, o["seq"])
    assert (i["t_enter"], i["t_exit"]) == (1.0, 2.0)
    assert (o["t_enter"], o["t_exit"]) == (0.0, 3.0)
    assert i["attrs"] == {"point": 3}


def test_misnested_exit_raises():
    tracer = SpanTracer()
    a = tracer.enter("a", 0.0)
    tracer.enter("b", 0.0)
    with pytest.raises(RuntimeError, match="misnested"):
        tracer.exit(a, 0.0)


def test_exit_without_open_span_raises():
    tracer = SpanTracer()
    s = tracer.enter("a", 0.0)
    tracer.exit(s, 0.0)
    with pytest.raises(RuntimeError):
        tracer.exit(s, 0.0)


def test_context_manager_closes_on_exception():
    tracer = SpanTracer()
    with pytest.raises(KeyError):
        with tracer.span("outer", 4.0):
            raise KeyError("boom")
    assert tracer.open_depth == 0
    assert len(tracer) == 1
    assert (tracer.spans[0].t_enter, tracer.spans[0].t_exit) == (4.0, 4.0)


def test_overflow_counts_and_drops_instead_of_raising():
    tracer = SpanTracer(maxlen=2)
    for i in range(5):
        with tracer.span(f"s{i}", float(i)):
            pass
    assert len(tracer.spans) == 2
    assert tracer.dropped == 3


def test_wall_time_excluded_by_default():
    tracer = SpanTracer()
    with tracer.span("x", 0.0):
        pass
    d = tracer.to_dicts()[0]
    assert "wall_ms" not in d
    dw = tracer.to_dicts(include_wall=True)[0]
    assert isinstance(dw["wall_ms"], float)


def test_jsonl_roundtrip_and_schema(tmp_path):
    tracer = SpanTracer(maxlen=3)
    for i in range(5):
        with tracer.span(f"s{i}", float(i), i=i):
            pass
    path = tmp_path / "spans.jsonl"
    tracer.dump_jsonl(path)
    header, spans = SpanTracer.load_jsonl(path)
    assert header == {"schema": SPAN_SCHEMA, "spans": 3, "dropped": 2}
    assert [s["name"] for s in spans] == ["s0", "s1", "s2"]

    # deterministic: same recording dumps byte-identically
    path2 = tmp_path / "spans2.jsonl"
    tracer.dump_jsonl(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_rejects_unknown_schema(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"schema": "nope/v9"}) + "\n")
    with pytest.raises(ValueError, match="unknown span schema"):
        SpanTracer.load_jsonl(path)


def test_pickled_span_round_trips_every_field():
    tracer = SpanTracer()
    outer = tracer.enter("outer", 0.0)
    inner = tracer.enter("inner", 2.5, job=7, kind="launch", ok=True, r=None)
    tracer.exit(inner, 4.0)
    tracer.exit(outer, 4.0)
    open_span = tracer.enter("open", 4.0, x=1.5)
    for span in (*tracer.spans, open_span):
        revived = pickle.loads(pickle.dumps(span, protocol=5))
        assert type(revived) is Span
        for f in fields(Span):
            assert getattr(revived, f.name) == getattr(span, f.name), f.name
    assert open_span._wall_start is not None
    assert not hasattr(open_span, "__dict__")


def test_closed_spans_are_columns_not_objects():
    """A closed span leaves no ``Span`` behind: it is a row of the
    tracer's columns, and ``spans`` builds fresh views from them."""
    gc.collect()
    before = sum(1 for o in gc.get_objects() if type(o) is Span)
    tracer = SpanTracer()
    for i in range(50):
        with tracer.span("outer", float(i)):
            with tracer.span("inner", float(i), job=i, kind="launch"):
                pass
    gc.collect()
    assert sum(1 for o in gc.get_objects() if type(o) is Span) == before
    views = tracer.spans
    assert len(views) == len(tracer) == 100
    assert views[0] is not tracer.spans[0]
    inner, outer = views[:2]
    assert (inner.name, inner.parent, inner.attrs) == ("inner", 0, {"job": 0, "kind": "launch"})
    assert (outer.name, outer.parent, outer.attrs) == ("outer", None, {})


def test_pickled_tracer_keeps_every_column():
    tracer = SpanTracer()
    root = tracer.enter("root", 0.0)
    with tracer.span("a", 1.0, job=7, ok=True):
        pass
    with tracer.span("b", 2.0):
        pass
    with tracer.span("a", 3.0, job=8, ok=False):
        pass
    with tracer.span("c", 4.5, r=None, x=1.5):
        pass
    revived = pickle.loads(pickle.dumps(tracer, protocol=5))
    assert revived.to_dicts(include_wall=True) == tracer.to_dicts(include_wall=True)
    assert [s.parent for s in revived.spans] == [root.seq] * 4
    assert revived.open_depth == 1
    with revived.span("d", 5.0):
        pass
    assert [d["seq"] for d in revived.to_dicts()] == [1, 2, 3, 4, 5]
