"""The simulator's metric catalog, pre-bound for the engine hot path.

One place declares every metric family the instrumented layers emit, so
names, label sets and help strings cannot drift between emit sites.
:class:`SimInstruments` registers the families against one run's
registry and exposes **pre-bound children** (plain attribute handles)
so the engine's per-event cost is a single ``inc``/``observe`` call.

Sim-derived families (deterministic under a fixed seed):

======================================== ======== ==========================
``repro_sim_events_total{kind}``          counter  engine events processed
``repro_sim_decision_points_total{cause}``counter  scheduler entry points
``repro_sim_actions_total{kind}``         counter  applied Launch/Kill
``repro_sim_actions_rejected_total{kind}``counter  InvalidAction rejects
``repro_sim_copies_launched_total``       counter  all copies
``repro_sim_clones_launched_total``       counter  clone copies
``repro_sim_preempt_kills_total``         counter  first-copy-wins kills
``repro_sim_copy_duration_seconds``       histogram sampled copy durations
``repro_sim_job_flowtime_seconds``        histogram f_j − a_j per job
``repro_sim_active_jobs``                 gauge    arrived, unfinished jobs
``repro_sim_time_seconds``                gauge    sim clock at run end
``repro_placement_queries_total``         counter  best-fit placement queries
``repro_placement_launched_total{mode}``  counter  fill-loop launches
``repro_workload_jobs_total`` (+tasks/phases)      workload composition
======================================== ======== ==========================

Wall families (``wall=True``, excluded from deterministic snapshots):
``repro_wall_schedule_pass_seconds`` (histogram) and
``repro_wall_run_seconds`` (gauge).
"""

from __future__ import annotations

from repro.observability.registry import MetricsRegistry, log2_buckets

__all__ = ["SimInstruments", "FaultInstruments"]

#: Sub-second wall timings need finer low buckets than sim durations:
#: ~1 µs to ~1 s in doubling steps.
_WALL_BUCKETS = log2_buckets(-20, 4)

#: Per-task resource demands are O(1); flow times are O(10⁴) s — the
#: default layout covers both.
_DEMAND_BUCKETS = log2_buckets(-10, 10)


class SimInstruments:
    """Registers the catalog and pre-binds the hot-path children."""

    __slots__ = (
        "registry",
        "events",
        "decision_points",
        "actions",
        "launches",
        "kills",
        "rejected_launches",
        "rejected_kills",
        "copies",
        "clones",
        "preempt_kills",
        "copy_duration",
        "job_flowtime",
        "active_jobs",
        "sim_time",
        "placement_queries",
        "placement_launched",
        "wall_schedule_pass",
        "wall_run",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = r = registry
        #: Labelled family — the engine pre-binds one child per EventKind.
        self.events = r.counter(
            "repro_sim_events_total", "engine events processed", ("kind",)
        )
        self.decision_points = r.counter(
            "repro_sim_decision_points_total",
            "scheduler entry points opened",
            ("cause",),
        )
        self.actions = r.counter(
            "repro_sim_actions_total",
            "typed actions applied at the engine choke point",
            ("kind",),
        )
        self.launches = self.actions.labels(kind="launch")
        self.kills = self.actions.labels(kind="kill")
        rejected = r.counter(
            "repro_sim_actions_rejected_total",
            "typed actions rejected by validation (InvalidAction)",
            ("kind",),
        )
        self.rejected_launches = rejected.labels(kind="launch")
        self.rejected_kills = rejected.labels(kind="kill")
        self.copies = r.counter(
            "repro_sim_copies_launched_total", "task copies launched (all kinds)"
        )
        self.clones = r.counter(
            "repro_sim_clones_launched_total", "clone copies launched"
        )
        self.preempt_kills = r.counter(
            "repro_sim_preempt_kills_total",
            "sibling copies killed by first-copy-wins completion",
        )
        self.copy_duration = r.histogram(
            "repro_sim_copy_duration_seconds",
            "sampled copy durations (simulated seconds)",
        )
        self.job_flowtime = r.histogram(
            "repro_sim_job_flowtime_seconds",
            "per-job flowtime f_j - a_j (simulated seconds)",
        )
        self.active_jobs = r.gauge(
            "repro_sim_active_jobs", "arrived, unfinished jobs"
        )
        self.sim_time = r.gauge(
            "repro_sim_time_seconds", "simulated clock at the end of the run"
        )
        self.placement_queries = r.counter(
            "repro_placement_queries_total",
            "best-fit placement queries (cluster scans and clone-fill lookups)",
        )
        self.placement_launched = r.counter(
            "repro_placement_launched_total",
            "copies launched by the shared fill loops",
            ("mode",),
        )
        # -- host-time families (segregated; never in the deterministic
        #    snapshot) ---------------------------------------------------
        self.wall_schedule_pass = r.histogram(
            "repro_wall_schedule_pass_seconds",
            "wall-clock time per schedule pass",
            buckets=_WALL_BUCKETS,
            wall=True,
        )
        self.wall_run = r.gauge(
            "repro_wall_run_seconds", "wall-clock time of the whole run", wall=True
        )

    # ------------------------------------------------------------------
    def record_workload(self, jobs) -> None:
        """Account a workload: job/phase/task counts and per-task demand
        distributions (all sim-derived, hence deterministic), read
        without building a job not built yet.  Cold path — families are
        created idempotently on first use."""
        reg = self.registry
        jobs_c = reg.counter("repro_workload_jobs_total", "jobs in the built workload")
        phases_c = reg.counter(
            "repro_workload_phases_total", "phases in the built workload"
        )
        tasks_c = reg.counter(
            "repro_workload_tasks_total", "tasks in the built workload"
        )
        cpu = reg.histogram(
            "repro_workload_task_demand_cpu",
            "per-task CPU demand (cores)",
            buckets=_DEMAND_BUCKETS,
        )
        mem = reg.histogram(
            "repro_workload_task_demand_mem",
            "per-task memory demand (GB)",
            buckets=_DEMAND_BUCKETS,
        )
        for job in jobs:
            jobs_c.inc()
            for shape in job.phase_shapes():
                phases_c.inc()
                n = shape.num_tasks
                tasks_c.inc(n)
                for _ in range(n):
                    cpu.observe(float(shape.cpu))
                    mem.observe(float(shape.mem))


class FaultInstruments:
    """Fault-injection metric families (DESIGN.md §5.5).

    Registered **only** when a run has a fault injector attached — a
    no-fault run's metric snapshot must stay byte-identical to a build
    without the fault subsystem, so these families never appear in it.
    """

    __slots__ = (
        "server_fails",
        "server_recovers",
        "copy_fails",
        "slowdowns",
        "copies_lost",
        "masked_by_clone",
        "tasks_requeued",
        "servers_down",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        injected = registry.counter(
            "repro_faults_injected_total",
            "fault events injected, by kind",
            ("kind",),
        )
        self.server_fails = injected.labels(kind="server_fail")
        self.server_recovers = injected.labels(kind="server_recover")
        self.copy_fails = injected.labels(kind="copy_fail")
        self.slowdowns = injected.labels(kind="slowdown")
        self.copies_lost = registry.counter(
            "repro_faults_copies_lost_total",
            "task copies killed by injected faults",
        )
        self.masked_by_clone = registry.counter(
            "repro_faults_recoveries_masked_by_clone_total",
            "fault-killed copies whose task kept running on a surviving clone",
        )
        self.tasks_requeued = registry.counter(
            "repro_faults_tasks_requeued_total",
            "tasks orphaned by faults and returned to the pending pool",
        )
        self.servers_down = registry.gauge(
            "repro_faults_servers_down", "servers currently failed"
        )
