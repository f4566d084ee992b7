"""Normalization-level coverage: ordering, assembly, scaling, emission.

Cross-row malformedness (out-of-order timestamps, duplicate ids,
capacity violations) must surface as :class:`TraceFormatError` with the
offending line; well-formed streams must come out deterministic, with
dense stream-ordinal job ids and non-decreasing arrivals.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.workload.google_trace import spec_to_dict
from repro.workload.ingest import (
    TraceFormatError,
    find_peak_window,
    normalize_stream,
    open_reader,
)
from repro.workload.ingest import normalize as ingest_normalize

from tests.workload.ingest.test_readers import (
    ali_line,
    g2011_line,
    write_ali,
    write_g2011,
)

S = 1_000_000  # one second in google2011 µs timestamps


def specs_of(path, schema="google2011", **kwargs):
    return list(normalize_stream(open_reader(path, schema), **kwargs))


def triplet(t_s, job, task, cpu="0.5", mem="0.25"):
    """submit/schedule/finish rows for one task, one second apart."""
    return [
        g2011_line(t_s * S, job, task, 0, cpu, mem),
        g2011_line((t_s + 1) * S, job, task, 1, cpu, mem),
        g2011_line((t_s + 2) * S, job, task, 4, cpu, mem),
    ]


class TestErrors:
    def test_out_of_order_timestamp(self, tmp_path):
        path = write_g2011(
            tmp_path, [g2011_line(10 * S, "a", 0, 0), g2011_line(5 * S, "b", 0, 0)]
        )
        with pytest.raises(TraceFormatError, match="out-of-order timestamp") as exc:
            specs_of(path)
        assert exc.value.line == 2

    def test_reorder_window_tolerates_bounded_disorder(self, tmp_path):
        lines = [
            ali_line("M1", 1, "a", 100, 110),
            ali_line("M1", 1, "b", 50, 60),  # 50s behind, inside 900s window
        ]
        path = write_ali(tmp_path, lines)
        specs = specs_of(path, "alibaba2018")
        # Emission is arrival-ordered despite file order.
        assert [s.name for s in specs] == ["alibaba2018-b", "alibaba2018-a"]
        assert [s.job_id for s in specs] == [0, 1]

    def test_duplicate_task_submit(self, tmp_path):
        path = write_g2011(
            tmp_path, [g2011_line(0, "a", 0, 0), g2011_line(S, "a", 0, 0)]
        )
        with pytest.raises(TraceFormatError, match="duplicate submit for task 0") as exc:
            specs_of(path)
        assert exc.value.line == 2

    def test_duplicate_job_id_after_finalization(self, tmp_path):
        # Job "a" completes, goes silent past the linger horizon, is
        # finalized — then reappears.  That is a duplicate job id, not a
        # silent reopening.
        lines = triplet(0, "a", 0)
        lines += triplet(10_000, "b", 0)  # sweep trigger far past linger
        lines += [g2011_line(10_010 * S, "a", 1, 0)]
        path = write_g2011(tmp_path, lines)
        with pytest.raises(TraceFormatError, match="duplicate job id 'a'") as exc:
            specs_of(path)
        assert exc.value.line == 7

    def test_running_task_blocks_linger_close(self, tmp_path):
        # Job "a" schedules a task whose FINISH comes 10000s later —
        # far past the linger horizon.  A running task is activity, so
        # the job must stay open and the late FINISH must not error.
        lines = [
            g2011_line(0, "a", 0, 0),
            g2011_line(1 * S, "a", 0, 1),
        ]
        lines += triplet(8_000, "b", 0)
        lines += [g2011_line(10_000 * S, "a", 0, 4)]
        path = write_g2011(tmp_path, lines)
        specs = specs_of(path)
        assert sorted(s.name for s in specs) == ["google2011-a", "google2011-b"]
        a = next(s for s in specs if s.name == "google2011-a")
        assert a.phases[0].theta == pytest.approx(10_000 - 1)

    def test_capacity_exceeding_request(self, tmp_path):
        path = write_g2011(tmp_path, [g2011_line(0, "a", 0, 0, cpu="1.5")])
        with pytest.raises(
            TraceFormatError, match="exceeds machine capacity"
        ) as exc:
            specs_of(path)
        assert exc.value.line == 1

    def test_negative_request(self, tmp_path):
        path = write_g2011(tmp_path, [g2011_line(0, "a", 0, 0, mem="-0.1")])
        with pytest.raises(TraceFormatError, match="negative resource request"):
            specs_of(path)

    def test_duplicate_task_group(self, tmp_path):
        path = write_ali(
            tmp_path,
            [ali_line("M1", 2, "j", 0, 10), ali_line("M1", 3, "j", 5, 15)],
        )
        with pytest.raises(TraceFormatError, match="duplicate task group '1'") as exc:
            specs_of(path, "alibaba2018")
        assert exc.value.line == 2

    def test_cyclic_dag(self, tmp_path):
        path = write_ali(tmp_path, [ali_line("R1_1", 1, "j", 0, 10)])
        with pytest.raises(TraceFormatError, match="non-preceding parent"):
            specs_of(path, "alibaba2018")


class TestEmission:
    def test_dense_ids_and_ordered_arrivals(self, tmp_path):
        lines = []
        for i, job in enumerate("abcd"):
            lines += triplet(10 * i, job, 0)
        lines.sort(key=lambda l: float(l.split(",")[0]))
        specs = specs_of(write_g2011(tmp_path, lines))
        assert [s.job_id for s in specs] == [0, 1, 2, 3]
        arrivals = [s.arrival_time for s in specs]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] == 0.0  # rebased to the first row

    def test_two_passes_identical(self, tmp_path):
        lines = [l for i in range(6) for l in triplet(7 * i, f"j{i}", i % 3)]
        lines.sort(key=lambda l: float(l.split(",")[0]))
        path = write_g2011(tmp_path, lines)
        assert [spec_to_dict(s) for s in specs_of(path)] == [
            spec_to_dict(s) for s in specs_of(path)
        ]

    def test_theta_sigma_from_observed_durations(self, tmp_path):
        lines = [
            g2011_line(0, "a", 0, 0), g2011_line(0, "a", 1, 0),
            g2011_line(1 * S, "a", 0, 1), g2011_line(1 * S, "a", 1, 1),
            g2011_line(5 * S, "a", 0, 4),   # duration 4
            g2011_line(11 * S, "a", 1, 4),  # duration 10
        ]
        (spec,) = specs_of(write_g2011(tmp_path, lines))
        phase = spec.phases[0]
        assert phase.num_tasks == 2
        assert phase.theta == pytest.approx(7.0)
        assert phase.sigma == pytest.approx(3.0)

    def test_default_theta_without_durations(self, tmp_path):
        (spec,) = specs_of(
            write_g2011(tmp_path, [g2011_line(0, "a", 0, 0)]), default_theta=42.0
        )
        assert spec.phases[0].theta == 42.0
        assert spec.phases[0].sigma == 0.0

    def test_task_count_filters(self, tmp_path):
        lines = [g2011_line(0, "big", t, 0) for t in range(5)]
        lines += [g2011_line(0, "small", 0, 0)]
        path = write_g2011(tmp_path, lines)
        assert [s.name for s in specs_of(path, min_tasks=2)] == ["google2011-big"]
        assert [s.name for s in specs_of(path, max_tasks=2)] == ["google2011-small"]

    def test_max_jobs_stops_the_stream(self, tmp_path):
        lines = [l for i in range(10) for l in triplet(10 * i, f"j{i}", 0)]
        specs = specs_of(write_g2011(tmp_path, lines), max_jobs=3)
        assert [s.job_id for s in specs] == [0, 1, 2]

    def test_alibaba_dag_phases(self, tmp_path):
        lines = [
            ali_line("M1", 4, "j", 0, 30),
            ali_line("R2_1", 2, "j", 30, 90),
            ali_line("J3_1_2", 1, "j", 90, 100),
        ]
        (spec,) = specs_of(write_ali(tmp_path, lines), "alibaba2018")
        assert [p.num_tasks for p in spec.phases] == [4, 2, 1]
        assert [p.parents for p in spec.phases] == [(), (0,), (0, 1)]
        assert spec.phases[0].theta == pytest.approx(30.0)

    def test_absent_parent_dropped(self, tmp_path):
        # R2's parent M1 fell outside the excerpt: truncation, not error.
        (spec,) = specs_of(
            write_ali(tmp_path, [ali_line("R2_1", 2, "j", 0, 60)]), "alibaba2018"
        )
        assert spec.phases[0].parents == ()


class TestPeakWindow:
    def test_find_and_apply(self, tmp_path):
        lines = [l for l in triplet(0, "early", 0)]
        # A burst of 3 jobs around t=1000, then a straggler at t=5000.
        for i, job in enumerate(("b1", "b2", "b3")):
            lines += triplet(1_000 + i, job, 0)
        lines += triplet(5_000, "late", 0)
        lines.sort(key=lambda l: float(l.split(",")[0]))
        path = write_g2011(tmp_path, lines)

        start, end = find_peak_window(open_reader(path, "google2011"), 60.0)
        assert start <= 1_000 < end

        specs = specs_of(path, window=(start, end))
        assert sorted(s.name.removeprefix("google2011-") for s in specs) == [
            "b1", "b2", "b3",
        ]
        # Arrivals rebase to the window start.
        assert min(s.arrival_time for s in specs) == pytest.approx(1_000 - start)

    def test_earliest_tie_wins(self, tmp_path):
        lines = triplet(0, "a", 0) + triplet(10_000, "b", 0)
        lines.sort(key=lambda l: float(l.split(",")[0]))
        path = write_g2011(tmp_path, lines)
        start, _end = find_peak_window(open_reader(path, "google2011"), 60.0)
        assert start == 0.0


class TestWorkAndMemory:
    """Work per row and memory per closed key, pinned so the per-row
    scan and the per-key strs cannot come back."""

    @pytest.fixture
    def arrival_reads(self, monkeypatch):
        """Counts every read of a builder's ``arrival``."""
        reads = [0]
        slot = ingest_normalize._JobBuilder.arrival

        class Counting(ingest_normalize._JobBuilder):
            __slots__ = ()

            @property
            def arrival(self):
                reads[0] += 1
                return slot.__get__(self)

            @arrival.setter
            def arrival(self, value):
                slot.__set__(self, value)

        monkeypatch.setattr(ingest_normalize, "_JobBuilder", Counting)
        return reads

    @pytest.mark.parametrize("held", [20, 200])
    def test_release_check_reads_one_builder(self, tmp_path, arrival_reads, held):
        """``held`` jobs stay open with a running task while 600 short
        jobs close behind them, so every row after the first closure
        finds specs pending.  A release check that took ``min()`` over
        every open builder read 109 (20 held) and 183 (200 held)
        arrivals a row on these streams; reading the first builder
        takes fewer than one."""
        lines = []
        for h in range(held):
            lines += [g2011_line(h * S, str(h), 0, 0), g2011_line(h * S, str(h), 0, 1)]
        for i in range(600):
            lines += triplet(held + 10 * i, str(1_000_000 + i), 0)
        lines += [g2011_line((held + 6_010) * S, str(h), 0, 4) for h in range(held)]
        specs = specs_of(write_g2011(tmp_path, lines))
        assert len(specs) == held + 600
        assert arrival_reads[0] < 2 * len(lines)

    def test_closed_keys_stay_compact(self, tmp_path):
        """20,000 google2011 jobs of one submit row each, each closed as
        the next one opens: the pass's traced peak holds the
        closed keys (as ints), one 64 KiB read chunk and little else.
        Pythons 3.10-3.12 read 3.46-3.49 MB here, and 4.22-4.74 MB with
        the keys held as strs in an ``OrderedDict`` and 1 MiB chunks."""
        lines = [
            g2011_line(10 * i * S, str(6_250_000_000 + i), 0, 0) for i in range(20_000)
        ]
        path = write_g2011(tmp_path, lines)
        del lines
        tracemalloc.start()
        try:
            emitted = sum(1 for _ in normalize_stream(
                open_reader(path, "google2011"), linger=1.0
            ))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert emitted == 20_000
        assert peak < 4.0e6
