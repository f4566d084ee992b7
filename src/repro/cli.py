"""Command-line interface: run and compare schedulers without writing code.

Examples::

    python -m repro run --scheduler dollymp2 --app wordcount --jobs 20
    python -m repro compare --schedulers capacity,tetris,dollymp2 \\
        --app pagerank --jobs 40 --gap 5
    python -m repro trace --jobs 100 --out /tmp/trace.json
    python -m repro replay /tmp/trace.json --scheduler dollymp2 --servers 100

Observability (DESIGN.md §5.4)::

    python -m repro metrics --scheduler dollymp2 --jobs 20
    python -m repro metrics --format prom --out /tmp/metrics.prom
    python -m repro run --metrics-out /tmp/m.json --spans-out /tmp/s.jsonl
    python -m repro run --profile

Decision traces (the action protocol of DESIGN.md §5.3)::

    python -m repro trace record --scheduler dollymp2 --app mixed \\
        --jobs 20 --out /tmp/decisions.jsonl
    python -m repro trace replay /tmp/decisions.jsonl

``trace record`` journals every scheduler decision of a run to JSONL;
``trace replay`` re-executes the journal against a freshly rebuilt
cluster/workload and verifies the per-job flow times are bit-identical
to the recorded run (exit status 1 on divergence).

The CLI mirrors the public API; every knob maps to a documented
constructor argument.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from repro.analysis.report import comparison_table
from repro.cluster.heterogeneity import (
    homogeneous_cluster,
    paper_cluster_30_nodes,
    trace_sim_cluster,
)
from repro.core.online import DollyMPScheduler
from repro.core.server_learning import LearningDollyMPScheduler
from repro.faults import FAULT_PROFILES, named_profile
from repro.observability import Observability
from repro.resources import Resources
from repro.schedulers.carbyne import CarbyneScheduler
from repro.schedulers.drf import DRFScheduler
from repro.schedulers.fifo import CapacityScheduler, FIFOScheduler
from repro.schedulers.graphene import GrapheneScheduler
from repro.schedulers.srpt import SRPTScheduler
from repro.schedulers.svf import SVFScheduler
from repro.schedulers.tetris import TetrisScheduler
from repro.sim.actions import DecisionTrace
from repro.sim.engine import SimulationEngine
from repro.sim.replay import ReplayDivergence, replay_trace
from repro.sim.runner import run_recorded, run_simulation
from repro.workload.google_trace import (
    GoogleTraceGenerator,
    jobs_from_specs,
    load_trace,
    save_trace,
    spec_to_dict,
)
from repro.workload.mapreduce import pagerank_job, wordcount_job

__all__ = ["main", "SCHEDULER_FACTORIES"]

# Frozen: shared module state must stay immutable (repro-lint RL014).
SCHEDULER_FACTORIES: Mapping[str, Callable[[], object]] = MappingProxyType({
    "fifo": FIFOScheduler,
    "capacity": CapacityScheduler,
    "srpt": SRPTScheduler,
    "svf": SVFScheduler,
    "drf": DRFScheduler,
    "tetris": TetrisScheduler,
    "carbyne": CarbyneScheduler,
    "graphene": GrapheneScheduler,
    "dollymp0": lambda: DollyMPScheduler(max_clones=0),
    "dollymp1": lambda: DollyMPScheduler(max_clones=1),
    "dollymp2": lambda: DollyMPScheduler(max_clones=2),
    "dollymp3": lambda: DollyMPScheduler(max_clones=3),
    "learning-dollymp2": lambda: LearningDollyMPScheduler(max_clones=2),
})


def make_scheduler(name: str):
    try:
        return SCHEDULER_FACTORIES[name.lower()]()
    except KeyError:
        raise SystemExit(
            f"unknown scheduler {name!r}; choose from "
            f"{', '.join(sorted(SCHEDULER_FACTORIES))}"
        )


def make_cluster(spec: str, seed: int):
    if spec == "paper":
        return paper_cluster_30_nodes()
    if spec.startswith("trace:"):
        return trace_sim_cluster(int(spec.split(":", 1)[1]), seed=seed)
    if spec.startswith("uniform:"):
        n, cpu, mem = spec.split(":", 1)[1].split("x")
        return homogeneous_cluster(int(n), Resources.of(float(cpu), float(mem)))
    raise SystemExit(
        f"unknown cluster {spec!r}; use 'paper', 'trace:<n>', or 'uniform:<n>x<cpu>x<mem>'"
    )


def make_app_jobs(app: str, num_jobs: int, gap: float, input_gb: float):
    jobs = []
    for i in range(num_jobs):
        t = i * gap
        if app == "wordcount":
            jobs.append(wordcount_job(input_gb, arrival_time=t, job_id=i))
        elif app == "pagerank":
            jobs.append(pagerank_job(input_gb, arrival_time=t, job_id=i))
        elif app == "mixed":
            if i % 2 == 0:
                jobs.append(wordcount_job(input_gb, arrival_time=t, job_id=i))
            else:
                jobs.append(pagerank_job(input_gb / 4, arrival_time=t, job_id=i))
        else:
            raise SystemExit(f"unknown app {app!r}; use wordcount/pagerank/mixed")
    return jobs


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cluster", default="paper", help="paper | trace:<n> | uniform:<n>x<cpu>x<mem>")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--slot", type=float, default=0.0, help="scheduling interval seconds (0 = event driven)")


def _add_faults(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--fault-profile",
        choices=sorted(FAULT_PROFILES),
        default="none",
        help="deterministic fault injection preset (DESIGN.md §5.5)",
    )
    p.add_argument(
        "--mtbf", type=float,
        help="override the profile's mean time between server failures (s)",
    )
    p.add_argument(
        "--mttr", type=float,
        help="override the profile's mean repair time (s)",
    )
    p.add_argument(
        "--copy-fail-rate", type=float,
        help="override the profile's per-copy failure hazard (1/s)",
    )
    p.add_argument(
        "--churn-seed", type=int,
        help="explicit fault-RNG seed (default: derived from --seed)",
    )


def _fault_profile_for(args):
    """(profile_or_None, churn_seed) from the fault flags."""
    try:
        profile = named_profile(
            args.fault_profile,
            mtbf=args.mtbf,
            mttr=args.mttr,
            copy_fail_rate=args.copy_fail_rate,
        )
    except ValueError as exc:
        raise SystemExit(f"--fault-profile {args.fault_profile}: {exc}") from None
    if not profile.enabled:
        return None, None
    return profile, args.churn_seed


def _add_observability(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--metrics-out",
        help="write a metrics snapshot here (JSON; a *.prom path gets Prometheus text)",
    )
    p.add_argument("--spans-out", help="write the span trace here (JSONL)")
    p.add_argument(
        "--include-wall",
        action="store_true",
        help="include host wall-time fields in exports (non-deterministic)",
    )
    p.add_argument(
        "--profile",
        action="store_true",
        help="profile wall time per phase and print the report",
    )


def _observability_for(args) -> Observability | None:
    """A per-run bundle when any observability output was requested;
    it records spans only when ``--spans-out`` will export them."""
    if args.metrics_out or args.spans_out or args.profile:
        return Observability(spans=bool(args.spans_out), profile=args.profile or None)
    return None


def _finish_observability(obs: Observability | None, args) -> None:
    if obs is None:
        return
    if args.metrics_out:
        obs.dump_metrics(args.metrics_out, include_wall=args.include_wall)
        print(f"metrics -> {args.metrics_out}")
    if args.spans_out:
        obs.dump_spans(args.spans_out, include_wall=args.include_wall)
        print(f"spans -> {args.spans_out}")
    if args.profile and obs.profiler is not None:
        print(obs.profiler.format_report(), end="")


def cmd_run(args) -> int:
    jobs = make_app_jobs(args.app, args.jobs, args.gap, args.input_gb)
    obs = _observability_for(args)
    if obs is not None:
        obs.record_workload(jobs)
    fault_profile, churn_seed = _fault_profile_for(args)
    result = run_simulation(
        make_cluster(args.cluster, args.seed),
        make_scheduler(args.scheduler),
        jobs,
        seed=args.seed,
        schedule_interval=args.slot,
        observability=obs,
        fault_profile=fault_profile,
        churn_seed=churn_seed,
    )
    for key, value in result.summary().items():
        print(f"{key:>24s}: {value:.3f}")
    _finish_observability(obs, args)
    return 0


def cmd_metrics(args) -> int:
    """Run a simulation and print/export its metrics snapshot."""
    jobs = make_app_jobs(args.app, args.jobs, args.gap, args.input_gb)
    obs = Observability(spans=False, profile=args.profile or None)
    obs.record_workload(jobs)
    run_simulation(
        make_cluster(args.cluster, args.seed),
        make_scheduler(args.scheduler),
        jobs,
        seed=args.seed,
        schedule_interval=args.slot,
        observability=obs,
    )
    if args.format == "prom":
        text = obs.to_prometheus(include_wall=args.include_wall)
    else:
        text = obs.to_json(include_wall=args.include_wall) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"metrics -> {args.out}")
    else:
        sys.stdout.write(text)
    if args.profile and obs.profiler is not None:
        print(obs.profiler.format_report(), end="", file=sys.stderr)
    return 0


def cmd_compare(args) -> int:
    names = [n.strip() for n in args.schedulers.split(",") if n.strip()]
    results = {}
    snapshots: dict[str, dict] = {}
    fault_profile, churn_seed = _fault_profile_for(args)
    for name in names:
        obs = Observability(spans=False) if args.metrics_out else None
        results[name] = run_simulation(
            make_cluster(args.cluster, args.seed),
            make_scheduler(name),
            make_app_jobs(args.app, args.jobs, args.gap, args.input_gb),
            seed=args.seed,
            schedule_interval=args.slot,
            observability=obs,
            fault_profile=fault_profile,
            churn_seed=churn_seed,
        )
        if obs is not None:
            snapshots[name] = obs.snapshot(include_wall=args.include_wall)
    print(comparison_table(results))
    if args.metrics_out:
        Path(args.metrics_out).write_text(
            json.dumps(snapshots, sort_keys=True, separators=(",", ":")) + "\n"
        )
        print(f"metrics -> {args.metrics_out}")
    return 0


def cmd_trace(args) -> int:
    if args.out is None:
        raise SystemExit("trace: --out is required")
    gen = GoogleTraceGenerator(seed=args.seed)
    specs = gen.generate(args.jobs, mean_interarrival=args.gap)
    if args.jsonl:
        # One job-spec object per line, with explicit job ids so a
        # served session materializes identical jobs across restarts —
        # the input format of `python -m repro serve`.
        specs = [replace(s, job_id=i) for i, s in enumerate(specs)]
        lines = [json.dumps(spec_to_dict(s), sort_keys=True) for s in specs]
        text = "\n".join(lines) + ("\n" if lines else "")
        if args.out == "-":
            # Pipe-friendly: the stream goes to stdout, the status line
            # to stderr (`trace --jsonl --out - | repro serve`).
            sys.stdout.write(text)
        else:
            Path(args.out).write_text(text)
    elif args.out == "-":
        raise SystemExit("trace: --out - requires --jsonl")
    else:
        save_trace(specs, args.out)
    total = sum(s.num_tasks() for s in specs)
    print(
        f"wrote {len(specs)} jobs / {total} tasks to {args.out}",
        file=sys.stderr if args.out == "-" else sys.stdout,
    )
    return 0


def cmd_trace_record(args) -> int:
    jobs = make_app_jobs(args.app, args.jobs, args.gap, args.input_gb)
    obs = _observability_for(args)
    if obs is not None:
        obs.record_workload(jobs)
    fault_profile, churn_seed = _fault_profile_for(args)
    result, trace = run_recorded(
        make_cluster(args.cluster, args.seed),
        make_scheduler(args.scheduler),
        jobs,
        seed=args.seed,
        schedule_interval=args.slot,
        observability=obs,
        fault_profile=fault_profile,
        churn_seed=churn_seed,
    )
    # Self-describing provenance: enough to rebuild the exact workload
    # and cluster, plus the recorded outcome to verify a replay against.
    trace.meta["workload"] = {
        "scheduler": args.scheduler,
        "app": args.app,
        "jobs": args.jobs,
        "gap": args.gap,
        "input_gb": args.input_gb,
        "cluster": args.cluster,
    }
    trace.meta["expected"] = {
        "flowtimes": [[r.job_id, r.flowtime] for r in result.records],
        "clones_launched": result.clones_launched,
        "copies_launched": result.copies_launched,
    }
    trace.dump_jsonl(args.out)
    print(
        f"recorded {len(trace)} decisions ({result.copies_launched} copies, "
        f"{result.clones_launched} clones) from {args.scheduler} over "
        f"{len(result.records)} jobs -> {args.out}"
    )
    _finish_observability(obs, args)
    return 0


def cmd_trace_replay(args) -> int:
    trace = DecisionTrace.load_jsonl(args.trace)
    workload = trace.meta.get("workload")
    if workload is None:
        raise SystemExit(
            f"{args.trace}: no workload provenance in the trace header — "
            "was it recorded with `python -m repro trace record`?"
        )
    seed = int(trace.meta["seed"])
    jobs = make_app_jobs(
        workload["app"], int(workload["jobs"]), float(workload["gap"]),
        float(workload["input_gb"]),
    )
    obs = _observability_for(args)
    try:
        result = replay_trace(
            trace, make_cluster(workload["cluster"], seed), jobs, observability=obs
        )
    except ReplayDivergence as exc:
        print(f"replay DIVERGED: {exc}", file=sys.stderr)
        return 1
    expected = trace.meta.get("expected", {})
    got = [[r.job_id, r.flowtime] for r in result.records]
    # Bit-for-bit: JSON round-trips floats exactly (shortest-repr), so
    # equality here is the determinism oracle, not a tolerance check.
    failures = []
    if got != expected.get("flowtimes"):
        failures.append("per-job flow times")
    for key, have in (
        ("clones_launched", result.clones_launched),
        ("copies_launched", result.copies_launched),
    ):
        if expected.get(key) != have:
            failures.append(key)
    if failures:
        print(
            f"replay DIVERGED from the recorded run: {', '.join(failures)} differ",
            file=sys.stderr,
        )
        return 1
    print(
        f"replayed {len(trace)} decisions over {len(result.records)} jobs: "
        "bit-identical to the recorded run"
    )
    _finish_observability(obs, args)
    return 0


def cmd_replay(args) -> int:
    obs = _observability_for(args)
    # A trace that does not load, or that the engine rejects when it is
    # built (an infeasible demand, a repeated job id), ends in one line.
    try:
        jobs = jobs_from_specs(load_trace(args.trace))
        if obs is not None:
            obs.record_workload(jobs)
        engine = SimulationEngine(
            make_cluster(args.cluster, args.seed),
            make_scheduler(args.scheduler),
            jobs,
            seed=args.seed,
            schedule_interval=args.slot,
            observability=obs,
        )
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise SystemExit(f"replay {args.trace}: {exc}") from None
    result = engine.run()
    for key, value in result.summary().items():
        print(f"{key:>24s}: {value:.3f}")
    _finish_observability(obs, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DollyMP reproduction: cluster scheduling simulations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one scheduler on a synthetic app workload")
    p.add_argument("--scheduler", default="dollymp2")
    p.add_argument("--app", default="mixed")
    p.add_argument("--jobs", type=int, default=20)
    p.add_argument("--gap", type=float, default=20.0)
    p.add_argument("--input-gb", type=float, default=4.0)
    _add_common(p)
    _add_observability(p)
    _add_faults(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "metrics", help="run a simulation and emit its metrics snapshot"
    )
    p.add_argument("--scheduler", default="dollymp2")
    p.add_argument("--app", default="mixed")
    p.add_argument("--jobs", type=int, default=20)
    p.add_argument("--gap", type=float, default=20.0)
    p.add_argument("--input-gb", type=float, default=4.0)
    p.add_argument(
        "--format", choices=("json", "prom"), default="json",
        help="snapshot encoding: canonical JSON or Prometheus text",
    )
    p.add_argument("--out", help="write here instead of stdout")
    p.add_argument(
        "--include-wall",
        action="store_true",
        help="include host wall-time fields (non-deterministic)",
    )
    p.add_argument(
        "--profile",
        action="store_true",
        help="profile wall time per phase and print the report to stderr",
    )
    _add_common(p)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("compare", help="run several schedulers on the same workload")
    p.add_argument("--schedulers", default="capacity,tetris,dollymp2")
    p.add_argument("--app", default="mixed")
    p.add_argument("--jobs", type=int, default=20)
    p.add_argument("--gap", type=float, default=20.0)
    p.add_argument("--input-gb", type=float, default=4.0)
    p.add_argument(
        "--metrics-out",
        help="write per-scheduler metrics snapshots here as one JSON object",
    )
    p.add_argument(
        "--include-wall",
        action="store_true",
        help="include host wall-time fields (non-deterministic)",
    )
    _add_common(p)
    _add_faults(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "trace",
        help="workload-trace generation, or record/replay of decision traces",
    )
    p.add_argument("--jobs", type=int, default=100)
    p.add_argument("--gap", type=float, default=20.0)
    p.add_argument("--out")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--jsonl", action="store_true",
        help="write one job-spec per line (the `repro serve` input format)",
    )
    p.set_defaults(func=cmd_trace)
    tsub = p.add_subparsers(dest="trace_command")

    tp = tsub.add_parser(
        "record", help="run a simulation and journal every scheduler decision"
    )
    tp.add_argument("--scheduler", default="dollymp2")
    tp.add_argument("--app", default="mixed")
    tp.add_argument("--jobs", type=int, default=20)
    tp.add_argument("--gap", type=float, default=20.0)
    tp.add_argument("--input-gb", type=float, default=4.0)
    tp.add_argument("--out", required=True, help="decision-trace JSONL path")
    _add_common(tp)
    _add_observability(tp)
    _add_faults(tp)
    tp.set_defaults(func=cmd_trace_record)

    tp = tsub.add_parser(
        "replay",
        help="re-execute a recorded decision trace and verify bit-identity",
    )
    tp.add_argument("trace", help="decision-trace JSONL from `trace record`")
    _add_observability(tp)
    tp.set_defaults(func=cmd_trace_replay)

    p = sub.add_parser("replay", help="replay a trace file under a scheduler")
    p.add_argument("trace")
    p.add_argument("--scheduler", default="dollymp2")
    _add_common(p)
    _add_observability(p)
    p.set_defaults(func=cmd_replay)

    from repro.service import add_serve_parser

    add_serve_parser(
        sub,
        add_common=_add_common,
        add_observability=_add_observability,
        add_faults=_add_faults,
    )

    from repro.workload.ingest.cli import add_ingest_parser

    add_ingest_parser(sub)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
