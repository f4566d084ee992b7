"""Unit tests for span tracing: nesting, misnesting, the bounded
buffer's count-and-drop overflow, and the deterministic JSONL export."""

import json
import pickle
from dataclasses import fields

import pytest

from repro.observability.spans import SPAN_SCHEMA, Span, SpanTracer


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def test_nesting_depth_and_parent_links():
    clock = FakeClock()
    tracer = SpanTracer(clock)
    outer = tracer.enter("event:copy_finish")
    clock.t = 1.0
    inner = tracer.enter("decision:task_finish", point=3)
    assert tracer.open_depth == 2
    clock.t = 2.0
    tracer.exit(inner)
    clock.t = 3.0
    tracer.exit(outer)
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
    a = tracer.enter("a")
    tracer.enter("b")
    with pytest.raises(RuntimeError, match="misnested"):
        tracer.exit(a)


def test_exit_without_open_span_raises():
    tracer = SpanTracer()
    s = tracer.enter("a")
    tracer.exit(s)
    with pytest.raises(RuntimeError):
        tracer.exit(s)


def test_context_manager_closes_on_exception():
    tracer = SpanTracer()
    with pytest.raises(KeyError):
        with tracer.span("outer"):
            raise KeyError("boom")
    assert tracer.open_depth == 0
    assert len(tracer) == 1


def test_overflow_counts_and_drops_instead_of_raising():
    tracer = SpanTracer(maxlen=2)
    for i in range(5):
        with tracer.span(f"s{i}"):
            pass
    assert len(tracer.spans) == 2
    assert tracer.dropped == 3


def test_wall_time_excluded_by_default():
    tracer = SpanTracer()
    with tracer.span("x"):
        pass
    d = tracer.to_dicts()[0]
    assert "wall_ms" not in d
    dw = tracer.to_dicts(include_wall=True)[0]
    assert isinstance(dw["wall_ms"], float)


def test_jsonl_roundtrip_and_schema(tmp_path):
    clock = FakeClock()
    tracer = SpanTracer(clock, maxlen=3)
    for i in range(5):
        clock.t = float(i)
        with tracer.span(f"s{i}", i=i):
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
    clock = FakeClock()
    tracer = SpanTracer(clock)
    with tracer.span("outer"):
        clock.t = 2.5
        with tracer.span("inner", job=7, kind="launch", ok=True, r=None):
            clock.t = 4.0
    open_span = tracer.enter("open", x=1.5)
    for span in (*tracer.spans, open_span):
        revived = pickle.loads(pickle.dumps(span, protocol=5))
        assert type(revived) is Span
        for f in fields(Span):
            assert getattr(revived, f.name) == getattr(span, f.name), f.name
    assert open_span._wall_start is not None
    assert not hasattr(open_span, "__dict__")
