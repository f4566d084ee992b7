"""Trace normalization vs its reference.

``normalize_stream`` holds canonical decimal closed keys as ints and
reads the earliest open arrival off the first open builder (DESIGN.md
§5.9).  ``tests/reference.py`` keeps the form that holds every closed
key as its str in an ``OrderedDict`` and takes ``min()`` over every
open builder on each release check.  Over the same reader, both must
emit the same specs, ``repr`` for ``repr``, and fail with the same
message at the same line.
"""

from __future__ import annotations

import re

import pytest

from repro.workload.ingest import (
    TraceFormatError,
    find_peak_window,
    materialize,
    normalize_stream,
    open_reader,
)
from repro.workload.ingest import normalize as ingest_normalize
from repro.workload.ingest import readers
from tests import reference
from tests.workload.ingest.test_readers import (
    FIXTURES,
    ali_line,
    g2011_line,
    write_ali,
    write_g2011,
)

S = 1_000_000  # one second in google2011 µs timestamps


def outcome(normalize, path, schema="google2011", **kwargs):
    """``repr`` of every emitted spec, then the error's message and line
    (or None when the stream ends cleanly)."""
    emitted = []
    try:
        for spec in normalize(open_reader(path, schema), **kwargs):
            emitted.append(repr(spec))
    except TraceFormatError as exc:
        return emitted, (str(exc), exc.line)
    return emitted, None


def assert_equivalent(path, schema="google2011", **kwargs):
    got = outcome(normalize_stream, path, schema, **kwargs)
    assert got == outcome(reference.normalize_stream, path, schema, **kwargs)
    return got


def names(specs):
    return [re.search(r"name='([^']*)'", spec).group(1) for spec in specs]


def one_task(t_s, job, task=0):
    """submit/schedule/finish rows of one task, one second apart."""
    return [g2011_line((t_s + k) * S, job, task, code) for k, code in enumerate((0, 1, 4))]


def closing_in_turn(keys, *, gap=10_000, start=0):
    """Each key's job runs one task, ``gap`` seconds after the last, so
    each job's first row sweeps the one before it closed."""
    return [
        line for i, key in enumerate(keys) for line in one_task(start + i * gap, key)
    ]


@pytest.fixture(scope="module")
def streams(tmp_path_factory):
    """~20K materialized rows per schema."""
    return materialize(tmp_path_factory.mktemp("streams"), rows=20_000, seed=3)


class TestCorpus:
    @pytest.mark.parametrize("schema", sorted(FIXTURES))
    def test_committed_corpus(self, schema):
        specs, error = assert_equivalent(FIXTURES[schema], schema)
        assert specs and error is None

    @pytest.mark.parametrize("schema", sorted(FIXTURES))
    def test_materialized_stream(self, streams, schema):
        specs, error = assert_equivalent(streams[schema], schema)
        assert len(specs) > 100 and error is None


class TestFilters:
    def test_window(self, streams):
        path = streams["google2011"]
        window = find_peak_window(open_reader(path, "google2011"), 3_600.0)
        specs, _ = assert_equivalent(path, window=window)
        assert 0 < len(specs) < len(assert_equivalent(path)[0])
        assert_equivalent(path, window=window, rebase=False)

    @pytest.mark.parametrize("schema", sorted(FIXTURES))
    def test_max_jobs(self, streams, schema):
        specs, _ = assert_equivalent(streams[schema], schema, max_jobs=37)
        assert len(specs) == 37

    def test_task_count_filters(self, streams):
        path = streams["google2011"]
        everything = assert_equivalent(path)[0]
        some = assert_equivalent(path, min_tasks=3, max_tasks=12)[0]
        assert 0 < len(some) < len(everything)


class TestClosedKeys:
    @pytest.mark.parametrize("back", [1, 2, 3, 4, 5])
    def test_duplicate_at_the_horizon(self, tmp_path, monkeypatch, back):
        """With three keys remembered, a job reappearing one to three
        closed jobs later is a duplicate, and four or more is new."""
        monkeypatch.setattr(ingest_normalize, "CLOSED_KEY_MEMORY", 3)
        keys = [str(6_250_000_000 + i) for i in range(8)]
        lines = closing_in_turn(keys)
        # The job ``back`` places before the last one, once the last
        # one has closed too.
        reappears = keys[len(keys) - 1 - back]
        lines += one_task(len(keys) * 10_000, "6250000099")
        lines += one_task(len(keys) * 10_000 + 10, reappears)
        specs, error = assert_equivalent(write_g2011(tmp_path, lines))
        if back < 3:
            assert error is not None and "duplicate job id" in error[0]
        else:
            assert error is None and len(specs) == len(keys) + 2

    def test_evicted_key_closes_again(self, tmp_path, monkeypatch):
        """A key forgotten and then reused is a new job; once it closes
        again it is remembered again, at the back of the queue.  (Each
        job closes on the next job's first row, after that row's
        duplicate check.)"""
        monkeypatch.setattr(ingest_normalize, "CLOSED_KEY_MEMORY", 3)
        keys = ["10", "11", "12", "13", "14", "10", "15", "16", "10"]
        specs, error = assert_equivalent(write_g2011(tmp_path, closing_in_turn(keys)))
        assert error == (error[0], 3 * 8 + 1) and "duplicate job id '10'" in error[0]
        assert len(specs) == 7

    KEYS = ["7", "07", "0", "00", "+7", " 7", "٧"]

    @pytest.mark.parametrize("second", KEYS)
    @pytest.mark.parametrize("first", KEYS)
    def test_key_spellings(self, tmp_path, first, second):
        """Each spelling is its own key: only the same spelling again is
        a duplicate, whatever ``int()`` would make of it."""
        lines = closing_in_turn([first, "6250000000", second])
        specs, error = assert_equivalent(write_g2011(tmp_path, lines))
        if first == second:
            assert error is not None and "duplicate job id" in error[0]
        else:
            assert error is None and len(specs) == 3


class TestRelease:
    def test_long_open_job_holds_back_release(self, tmp_path):
        """A job whose task runs for days stays open, and nothing that
        arrived after it is emitted before it closes."""
        lines = [g2011_line(0, "1", 0, 0), g2011_line(S, "1", 0, 1)]
        lines += closing_in_turn([str(k) for k in range(2, 12)], gap=5_000, start=10)
        lines += [g2011_line(60_000 * S, "1", 0, 4)]
        lines += one_task(70_000, "12")
        specs, error = assert_equivalent(write_g2011(tmp_path, lines))
        assert error is None
        assert names(specs) == [f"google2011-{k}" for k in range(1, 13)]

    def test_reorder_window(self, tmp_path):
        """Alibaba rows up to 900 s out of time order: builders still
        open in arrival order once the reorder heap has sorted them."""
        jobs = [
            [
                ali_line("M1", 1 + i % 4, f"j{i}", 250 * i, 250 * i + 30),
                ali_line("R2_1", 1, f"j{i}", 250 * i + 40, 250 * i + 70),
            ]
            for i in range(40)
        ]
        # Each pair of jobs is written later job first.
        lines = [line for k in range(0, 40, 2) for line in jobs[k + 1] + jobs[k]]
        specs, error = assert_equivalent(write_ali(tmp_path, lines), "alibaba2018")
        assert error is None
        assert names(specs) == [f"alibaba2018-j{i}" for i in range(40)]


def truncated_copy(path, tmp_path):
    data = path.read_bytes()
    cut = tmp_path / path.name
    cut.write_bytes(data[: len(data) // 2])
    return cut


def stream_error_line(message):
    return int(re.search(r"after line (\d+)", message).group(1))


class TestTruncated:
    def test_same_error_at_equal_chunk_size(self, streams, tmp_path):
        cut = truncated_copy(streams["google2011"], tmp_path)
        specs, error = assert_equivalent(cut)
        assert error is not None and "truncated or corrupt stream" in error[0]

    def test_smaller_chunks_fail_no_earlier(self, streams, tmp_path, monkeypatch):
        """The error names the last line read before the damage, so a
        smaller chunk names a line at or after the one a larger chunk
        named, and emits at least as many specs before it."""
        cut = truncated_copy(streams["google2011"], tmp_path)
        new_specs, new_error = outcome(normalize_stream, cut)
        monkeypatch.setattr(readers, "CHUNK_BYTES", 1024 * 1024)  # the old chunk
        old_specs, old_error = outcome(normalize_stream, cut)
        assert stream_error_line(new_error[0]) >= stream_error_line(old_error[0])
        assert new_specs[: len(old_specs)] == old_specs
