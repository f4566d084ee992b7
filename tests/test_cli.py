"""Tests for the command-line interface."""

import pytest

from repro.cli import (
    SCHEDULER_FACTORIES,
    main,
    make_app_jobs,
    make_cluster,
    make_scheduler,
)
from repro.sim.checkpoint import load_checkpoint


class TestFactories:
    def test_every_scheduler_name_constructs(self):
        for name in SCHEDULER_FACTORIES:
            sched = make_scheduler(name)
            assert hasattr(sched, "schedule")

    def test_unknown_scheduler_exits(self):
        with pytest.raises(SystemExit):
            make_scheduler("nonsense")

    def test_cluster_specs(self):
        assert len(make_cluster("paper", 0)) == 30
        assert len(make_cluster("trace:50", 0)) == 50
        c = make_cluster("uniform:4x8x16", 0)
        assert len(c) == 4 and c[0].capacity.cpu == 8

    def test_bad_cluster_exits(self):
        with pytest.raises(SystemExit):
            make_cluster("weird", 0)

    def test_app_jobs(self):
        jobs = make_app_jobs("mixed", 4, 10.0, 2.0)
        assert len(jobs) == 4
        assert jobs[1].arrival_time == 10.0
        with pytest.raises(SystemExit):
            make_app_jobs("tensorflow", 1, 1.0, 1.0)


class TestCommands:
    def test_run(self, capsys):
        rc = main(
            ["run", "--scheduler", "dollymp2", "--app", "wordcount",
             "--jobs", "3", "--gap", "100", "--input-gb", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "total_flowtime" in out

    def test_compare(self, capsys):
        rc = main(
            ["compare", "--schedulers", "fifo,srpt", "--app", "wordcount",
             "--jobs", "3", "--gap", "50", "--input-gb", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "fifo" in out and "srpt" in out

    def test_trace_and_replay(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        assert main(["trace", "--jobs", "10", "--out", str(trace)]) == 0
        assert trace.exists()
        rc = main(
            ["replay", str(trace), "--scheduler", "tetris",
             "--cluster", "trace:40", "--slot", "5"]
        )
        assert rc == 0
        assert "makespan" in capsys.readouterr().out

    def test_slotted_run(self, capsys):
        rc = main(
            ["run", "--scheduler", "capacity", "--app", "pagerank",
             "--jobs", "2", "--gap", "100", "--input-gb", "0.5", "--slot", "5"]
        )
        assert rc == 0

    def test_trace_without_out_exits(self):
        with pytest.raises(SystemExit, match="--out"):
            main(["trace", "--jobs", "5"])


class TestDecisionTraceCommands:
    def _record(self, path, *extra):
        return main(
            ["trace", "record", "--scheduler", "dollymp2", "--app", "mixed",
             "--jobs", "4", "--gap", "30", "--input-gb", "1",
             "--cluster", "uniform:4x8x16", "--out", str(path), *extra]
        )

    def test_record_then_replay_bit_identical(self, tmp_path, capsys):
        trace = tmp_path / "decisions.jsonl"
        assert self._record(trace) == 0
        out = capsys.readouterr().out
        assert "recorded" in out and str(trace) in out
        assert trace.exists()

        assert main(["trace", "replay", str(trace)]) == 0
        assert "bit-identical to the recorded run" in capsys.readouterr().out

    def test_replay_detects_tampering(self, tmp_path, capsys):
        trace = tmp_path / "decisions.jsonl"
        assert self._record(trace) == 0
        capsys.readouterr()
        # Corrupt the expected flow times in the header: the replayed
        # run no longer matches, so the oracle must report divergence.
        lines = trace.read_text().splitlines()
        import json

        header = json.loads(lines[0])
        header["meta"]["expected"]["flowtimes"][0][1] += 1.0
        lines[0] = json.dumps(header, sort_keys=True)
        trace.write_text("\n".join(lines) + "\n")

        assert main(["trace", "replay", str(trace)]) == 1
        captured = capsys.readouterr()
        assert "DIVERGED" in captured.err

    def test_replay_requires_provenance(self, tmp_path):
        from repro.sim.actions import DecisionTrace

        bare = tmp_path / "bare.jsonl"
        DecisionTrace(meta={"seed": 0}).dump_jsonl(bare)
        with pytest.raises(SystemExit, match="provenance"):
            main(["trace", "replay", str(bare)])


class TestFaultFlags:
    def test_run_with_fault_profile(self, capsys):
        rc = main(
            ["run", "--scheduler", "dollymp2", "--app", "wordcount",
             "--jobs", "3", "--gap", "40", "--seed", "3",
             "--fault-profile", "churn", "--mtbf", "150", "--mttr", "20"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "faults_injected" in out

    def test_run_without_faults_has_no_fault_keys(self, capsys):
        rc = main(
            ["run", "--scheduler", "dollymp2", "--app", "wordcount",
             "--jobs", "3", "--gap", "40", "--seed", "3"]
        )
        assert rc == 0
        assert "faults_injected" not in capsys.readouterr().out

    def test_unknown_profile_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--scheduler", "dollymp2", "--app", "wordcount",
                  "--jobs", "1", "--fault-profile", "meteor"])

    def test_record_then_replay_fault_run(self, tmp_path, capsys):
        path = tmp_path / "faulty.jsonl"
        rc = main(
            ["trace", "record", "--scheduler", "dollymp2", "--app", "mixed",
             "--jobs", "4", "--gap", "40", "--seed", "7",
             "--fault-profile", "churn", "--mtbf", "200",
             "--out", str(path)]
        )
        assert rc == 0
        rc = main(["trace", "replay", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bit-identical" in out


class TestServe:
    """``serve`` records spans only when ``--spans-out`` will export them."""

    @staticmethod
    def _serve(tmp_path, *extra):
        arrivals = tmp_path / "arrivals.jsonl"
        if not arrivals.exists():
            assert main(["trace", "--jsonl", "--jobs", "6", "--gap", "5",
                         "--out", str(arrivals)]) == 0
        return main(["serve", "--arrivals", str(arrivals), "--cluster", "trace:50",
                     "--checkpoint-path", str(tmp_path / "serve.ckpt"), *extra])

    def test_metrics_textfile_session_checkpoints_no_spans(self, tmp_path, capsys):
        prom = tmp_path / "metrics.prom"
        assert self._serve(tmp_path, "--metrics-textfile", str(prom)) == 0
        obs = load_checkpoint(tmp_path / "serve.ckpt").observability
        assert obs.registry is not None
        assert obs.tracer is None
        assert "repro_" in prom.read_text()

    def test_restore_asking_for_unrecorded_spans_fails_before_running(
        self, tmp_path, capsys
    ):
        ckpt, spans = tmp_path / "serve.ckpt", tmp_path / "spans.jsonl"
        assert self._serve(tmp_path, "--metrics-textfile", str(tmp_path / "m.prom")) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="--spans-out"):
            self._serve(tmp_path, "--restore", str(ckpt), "--spans-out", str(spans))
        assert "total_flowtime" not in capsys.readouterr().out
        assert not spans.exists()

    def test_restore_exports_spans_the_session_recorded(self, tmp_path, capsys):
        ckpt, spans = tmp_path / "serve.ckpt", tmp_path / "spans.jsonl"
        assert self._serve(tmp_path, "--spans-out", str(spans)) == 0
        assert load_checkpoint(ckpt).observability.tracer is not None
        spans.unlink()
        assert self._serve(tmp_path, "--restore", str(ckpt), "--spans-out", str(spans)) == 0
        assert spans.read_text().startswith('{"dropped": 0, "schema"')
