"""Reader-level malformed-input coverage.

The contract under test: every structurally bad row raises
:class:`TraceFormatError` carrying the file path and the 1-based line
number of the offending row — nothing is silently dropped or coerced.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.ingest import (
    Alibaba2018Reader,
    Google2011Reader,
    Google2019Reader,
    TraceFormatError,
    normalize_stream,
    open_reader,
)
from repro.workload.ingest.readers import _parse_dag_name


def g2011_line(
    t_us: int, job: str, task: int, event: int, cpu: str = "0.5", mem: str = "0.25"
) -> str:
    cols = [""] * 13
    cols[0], cols[2], cols[3], cols[5] = str(t_us), job, str(task), str(event)
    cols[9], cols[10] = cpu, mem
    return ",".join(cols)


def write_g2011(tmp_path, lines, *, name="t.csv"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


def g2019_line(t_us, job, task, type_, request=None, **extra) -> str:
    obj = {"time": t_us, "collection_id": job, "instance_index": task,
           "type": type_, **extra}
    if request is not None:
        obj["resource_request"] = request
    return json.dumps(obj)


def write_g2019(tmp_path, lines):
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


def ali_line(name, inst, job, start, end, cpu="100", mem="1.0") -> str:
    return f"{name},{inst},{job},1,Terminated,{start},{end},{cpu},{mem}"


def write_ali(tmp_path, lines):
    path = tmp_path / "t.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestGoogle2011:
    def test_happy_path_units(self, tmp_path):
        path = write_g2011(tmp_path, [g2011_line(2_000_000, "j1", 0, 0)])
        (row,) = Google2011Reader(path).rows()
        assert row.time == pytest.approx(2.0)  # µs → s
        assert (row.job, row.task, row.event) == ("j1", 0, "submit")
        assert (row.cpu, row.mem) == (0.5, 0.25)
        assert row.line == 1

    def test_event_code_buckets(self, tmp_path):
        codes = {1: "schedule", 2: "dead", 3: "dead", 4: "finish",
                 5: "dead", 6: "dead", 7: "other", 8: "other"}
        path = write_g2011(
            tmp_path, [g2011_line(i, "j", i, c) for i, c in enumerate(codes)]
        )
        got = [r.event for r in Google2011Reader(path).rows()]
        assert got == list(codes.values())

    def test_unknown_event_type(self, tmp_path):
        path = write_g2011(
            tmp_path, [g2011_line(0, "j", 0, 0), g2011_line(1, "j", 1, 9)]
        )
        with pytest.raises(TraceFormatError, match="unknown event type 9") as exc:
            list(Google2011Reader(path).rows())
        assert exc.value.line == 2
        assert str(path) in str(exc.value)

    def test_wrong_column_count(self, tmp_path):
        path = write_g2011(tmp_path, ["1,2,3"])
        with pytest.raises(TraceFormatError, match="expected 13 columns, got 3") as exc:
            list(Google2011Reader(path).rows())
        assert exc.value.line == 1

    def test_missing_timestamp(self, tmp_path):
        bad = "," + g2011_line(0, "j", 0, 0).split(",", 1)[1]
        path = write_g2011(tmp_path, [bad])
        with pytest.raises(TraceFormatError, match="missing timestamp"):
            list(Google2011Reader(path).rows())

    def test_non_numeric_fields(self, tmp_path):
        path = write_g2011(tmp_path, [g2011_line(0, "j", 0, 0, cpu="lots")])
        with pytest.raises(TraceFormatError, match="non-numeric cpu request 'lots'"):
            list(Google2011Reader(path).rows())
        bad_task = g2011_line(0, "j", 0, 0).split(",")
        bad_task[3] = "x"
        path = write_g2011(tmp_path, [",".join(bad_task)], name="t2.csv")
        with pytest.raises(TraceFormatError, match="non-integer task index"):
            list(Google2011Reader(path).rows())

    def test_truncated_gzip(self, tmp_path):
        payload = "\n".join(
            g2011_line(i, f"j{i}", 0, 0) for i in range(5_000)
        ).encode()
        whole = gzip.compress(payload)
        path = tmp_path / "t.csv.gz"
        path.write_bytes(whole[: len(whole) // 2])
        with pytest.raises(TraceFormatError, match="truncated or corrupt stream"):
            list(Google2011Reader(path).rows())

    def test_undecodable_bytes(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(g2011_line(0, "j", 0, 0).encode() + b"\n\xff\xfe\n")
        with pytest.raises(TraceFormatError, match="undecodable bytes"):
            list(Google2011Reader(path).rows())

    def test_blank_lines_skipped(self, tmp_path):
        path = write_g2011(tmp_path, [g2011_line(0, "j", 0, 0), "", g2011_line(1, "j", 1, 0)])
        rows = list(Google2011Reader(path).rows())
        assert [r.line for r in rows] == [1, 3]


class TestGoogle2019:
    def test_happy_path(self, tmp_path):
        path = write_g2019(
            tmp_path,
            [g2019_line(3_000_000, 42, 7, "SCHEDULE",
                        request={"cpus": 0.1, "memory": 0.2})],
        )
        (row,) = Google2019Reader(path).rows()
        assert row.time == pytest.approx(3.0)
        assert (row.job, row.task, row.event) == ("42", 7, "schedule")
        assert (row.cpu, row.mem) == (0.1, 0.2)

    def test_integer_codes_map_to_enum(self, tmp_path):
        path = write_g2019(tmp_path, [g2019_line(0, 1, 0, 6)])  # 6 = FINISH
        (row,) = Google2019Reader(path).rows()
        assert row.event == "finish"

    @pytest.mark.parametrize("bad_type", [42, "WEIRD", True, None])
    def test_unknown_event_type(self, tmp_path, bad_type):
        path = write_g2019(tmp_path, [g2019_line(0, 1, 0, bad_type)])
        with pytest.raises(TraceFormatError, match="unknown event type") as exc:
            list(Google2019Reader(path).rows())
        assert exc.value.line == 1

    def test_invalid_json(self, tmp_path):
        path = write_g2019(tmp_path, ["{not json"])
        with pytest.raises(TraceFormatError, match="invalid JSON"):
            list(Google2019Reader(path).rows())

    def test_non_object_row(self, tmp_path):
        path = write_g2019(tmp_path, ["[1, 2]"])
        with pytest.raises(TraceFormatError, match="not a JSON object"):
            list(Google2019Reader(path).rows())

    def test_missing_required_field(self, tmp_path):
        path = write_g2019(tmp_path, ['{"time": 0, "type": "SUBMIT"}'])
        with pytest.raises(TraceFormatError, match="missing or malformed"):
            list(Google2019Reader(path).rows())

    def test_bad_resource_request(self, tmp_path):
        path = write_g2019(tmp_path, [g2019_line(0, 1, 0, "SUBMIT", request=[1])])
        with pytest.raises(TraceFormatError, match="resource_request is not an object"):
            list(Google2019Reader(path).rows())


class TestAlibaba2018:
    def test_happy_path(self, tmp_path):
        path = write_ali(tmp_path, [ali_line("R2_1", 10, "j_42", 100, 160)])
        (row,) = Alibaba2018Reader(path).rows()
        assert (row.job, row.kind, row.phase, row.parents) == ("j_42", "group", "2", (1,))
        assert (row.time, row.end, row.instances) == (100.0, 160.0, 10)

    def test_opaque_names_pass_through(self, tmp_path):
        path = write_ali(tmp_path, [ali_line("task_5531", 1, "j_1", 0, 10)])
        (row,) = Alibaba2018Reader(path).rows()
        assert (row.phase, row.parents) == ("task_5531", ())

    def test_wrong_column_count(self, tmp_path):
        path = write_ali(tmp_path, ["a,b,c"])
        with pytest.raises(TraceFormatError, match="expected 9 columns"):
            list(Alibaba2018Reader(path).rows())

    def test_bad_instance_num(self, tmp_path):
        path = write_ali(tmp_path, [ali_line("M1", 0, "j", 0, 10)])
        with pytest.raises(TraceFormatError, match="instance_num must be >= 1"):
            list(Alibaba2018Reader(path).rows())
        path = write_ali(tmp_path, [ali_line("M1", "many", "j", 0, 10)])
        with pytest.raises(TraceFormatError, match="non-integer instance_num"):
            list(Alibaba2018Reader(path).rows())

    def test_missing_start_time(self, tmp_path):
        path = write_ali(tmp_path, [ali_line("M1", 1, "j", "", 10)])
        with pytest.raises(TraceFormatError, match="missing start_time"):
            list(Alibaba2018Reader(path).rows())

    def test_end_before_start_becomes_unknown(self, tmp_path):
        path = write_ali(tmp_path, [ali_line("M1", 1, "j", 100, 50)])
        (row,) = Alibaba2018Reader(path).rows()
        assert row.end is None

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("M1", ("1", ())),
            ("R2_1", ("2", (1,))),
            ("J3_1_2", ("3", (1, 2))),
            ("task_1234", ("task_1234", ())),
            ("MergeTask", ("MergeTask", ())),
        ],
    )
    def test_parse_dag_name(self, name, expected):
        assert _parse_dag_name(name) == expected


class TestOpenReader:
    def test_registry(self, tmp_path):
        path = write_ali(tmp_path, [ali_line("M1", 1, "j", 0, 10)])
        reader = open_reader(path, "alibaba2018")
        assert reader.schema == "alibaba2018"
        assert len(list(reader.rows())) == 1

    def test_unknown_schema(self, tmp_path):
        with pytest.raises(ValueError, match="unknown trace schema 'facebook2009'"):
            open_reader(tmp_path / "x.csv", "facebook2009")


CORPUS = Path(__file__).resolve().parents[2] / "fixtures" / "traces"
FIXTURES = {
    "google2011": CORPUS / "google2011-r200-s0.csv.gz",
    "google2019": CORPUS / "google2019-r200-s0.jsonl",
    "alibaba2018": CORPUS / "alibaba2018-r200-s0.csv",
}


class TestUndecodableLine:
    """Undecodable bytes are reported at their own line, although the
    text decoder meets them a whole chunk before the reader yields it."""

    @pytest.mark.parametrize("line", [5, 120, 190])
    @pytest.mark.parametrize("schema", sorted(FIXTURES))
    def test_bad_byte_reports_its_line(self, tmp_path, schema, line):
        fixture = FIXTURES[schema]
        raw = fixture.read_bytes()
        lines = (gzip.decompress(raw) if fixture.suffix == ".gz" else raw).split(b"\n")
        lines[line - 1] = lines[line - 1][:3] + b"\xff" + lines[line - 1][3:]
        data = b"\n".join(lines)
        path = tmp_path / fixture.name
        path.write_bytes(gzip.compress(data) if fixture.suffix == ".gz" else data)
        with pytest.raises(TraceFormatError, match="undecodable bytes") as exc:
            list(open_reader(path, schema).rows())
        assert exc.value.line == line
        assert f"line {line}" in str(exc.value)

    def test_carriage_returns_end_lines(self, tmp_path):
        good = [g2011_line(i, "j", i, 0).encode() for i in range(3)]
        path = tmp_path / "t.csv"
        path.write_bytes(good[0] + b"\r" + good[1] + b"\r\n" + good[2] + b"\n")
        assert [r.line for r in Google2011Reader(path).rows()] == [1, 2, 3]
        path.write_bytes(good[0] + b"\r" + good[1] + b"\r\n\xff\n")
        with pytest.raises(TraceFormatError) as exc:
            list(Google2011Reader(path).rows())
        assert exc.value.line == 3


@st.composite
def mutated_fixture(draw):
    """A committed fixture with 1–3 bytes replaced, deleted or inserted."""
    schema = draw(st.sampled_from(sorted(FIXTURES)))
    data = bytearray(FIXTURES[schema].read_bytes())
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(data) - 1))
        edit = draw(st.sampled_from(["replace", "delete", "insert"]))
        if edit == "delete":
            del data[pos]
        elif edit == "replace":
            data[pos] = draw(st.integers(0, 255))
        else:
            data.insert(pos, draw(st.integers(0, 255)))
    return schema, bytes(data)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None)
@given(case=mutated_fixture())
def test_mutated_fixture_fails_loudly_or_parses(fuzz_dir, case):
    """Damaged trace bytes raise only TraceFormatError, located at a line
    unless the damage is to the gzip stream itself."""
    schema, data = case
    path = fuzz_dir / FIXTURES[schema].name
    path.write_bytes(data)
    try:
        list(normalize_stream(open_reader(path, schema)))
    except TraceFormatError as exc:
        assert exc.line is not None or path.suffix == ".gz", str(exc)
