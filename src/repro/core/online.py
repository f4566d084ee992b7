"""The online DollyMP scheduler — Algorithm 2 of the paper.

Scheduling logic, in the paper's order:

1. **Priority recompute on arrival** (steps 1–5): when a job enters, the
   remaining volume v_j(t) (Eq. 16) and remaining effective length
   e_j(t) (Eq. 17) of every active job are fed to the transient
   Algorithm 1, yielding priority levels p_j(t).  "To reduce the
   overhead, the scheduling order of all jobs in the cluster won't be
   updated until the next job arrival."
2. **Normal task placement** (steps 6–15): sweep priority groups in
   increasing level; within a group all jobs are equal and the task with
   the best resource fit (inner product with the server's availability)
   is placed first.  Only each job's *first available phase* is
   schedulable (DAG gating).
3. **Clone placement** (step 16 — "Repeat Step 9 twice"): when no new
   task fits, leftover resources host clones, in the same priority
   order, at most ``max_clones`` extra copies per task, subject to the
   δ clone budget (Sec. 4.1's small-jobs-first rule).

All placements flow through the action protocol (the packing helpers
emit :class:`~repro.sim.actions.Launch` actions via ``view.apply``), so
a DollyMP run can be journaled and replayed bit-identically — the
oracle used to compare the policies of Sec. 6 over identical straggler
realizations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from repro.core.cloning_policy import CloningPolicy
from repro.core.transient import compute_priorities, priority_groups
from repro.core.volume import DEFAULT_R, JobMeasure, measure_job
from repro.schedulers.base import Scheduler
from repro.schedulers.packing import (
    CloneScoreCache,
    fill_clones_best_fit,
    fill_tasks_best_fit,
    pending_by_phase,
)
from repro.workload.job import Job
from repro.workload.task import Task

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import ClusterView

__all__ = ["DollyMPScheduler"]


class DollyMPScheduler(Scheduler):
    """DollyMP with ``max_clones`` extra copies per task.

    ``max_clones=0/1/2/3`` are the paper's DollyMP⁰/¹/²/³ variants;
    ``r`` is the deviation weight of the effective processing time
    (e = θ + r·σ; experiments use 1.5) and ``delta`` the clone resource
    budget (0.3 in the experiments; see DESIGN.md for the δ reading).
    """

    #: Optional per-server placement-score multiplier.  Subclasses (the
    #: straggler-learning extension) set this to steer placements away
    #: from servers identified as slow.
    _server_weight_hook = None

    def __init__(
        self,
        *,
        max_clones: int = 2,
        r: float = DEFAULT_R,
        delta: float = 0.3,
        use_category_target: bool = False,
    ) -> None:
        if r < 0:
            raise ValueError("r must be non-negative")
        self.r = r
        self.policy = CloningPolicy(
            max_clones=max_clones,
            budget_fraction=delta,
            use_category_target=use_category_target,
        )
        self.name = f"DollyMP^{max_clones}"
        self._priorities: dict[int, int] = {}
        # Incremental measure cache: a job's (volume, length) pair only
        # changes when one of its tasks finishes (task/phase volumes are
        # fixed at submission), so each JobMeasure is computed once and
        # invalidated by the on_task_finish/on_job_finish hooks instead
        # of re-measuring every active job on every arrival.
        self._measures: dict[int, JobMeasure] = {}
        self._measure_capacity: object | None = None
        # Lazy priority maintenance (DESIGN.md §5.6).  Arrivals *arm* a
        # deferred recompute instead of running Algorithm 1 immediately;
        # the first priority read (schedule / priority_of) resolves it.
        # To stay bit-identical to the eager path the resolve must see
        # the roster *as it stood at the last arrival*:
        #
        # * ``_roster`` mirrors the engine's active-job dict (insertion
        #   order preserved); jobs finishing while armed are kept until
        #   the resolve (``_deferred_gone``) because the eager recompute
        #   at the arrival would have included them — their volume
        #   competes in the knapsack even if they finish a moment later.
        # * ``_snapshots`` copy-on-write a job's at-arrival measure the
        #   moment a task finish would invalidate it.
        # * ``_unmeasured`` lists roster jobs whose cache entry was
        #   popped; the next arrival re-measures exactly those, so every
        #   armed window starts with a complete, current measure cache.
        #
        # Subclasses that override recompute_priorities (the estimating
        # scheduler's measures are *time-varying*) keep the eager path.
        self._eager = (
            type(self).recompute_priorities is not DollyMPScheduler.recompute_priorities
        )
        self._roster: dict[int, Job] = {}
        self._armed = False
        self._snapshots: dict[int, JobMeasure] = {}
        self._deferred_gone: list[int] = []
        self._unmeasured: set[int] = set()
        # Pass-1 skip set: jobs verified to have zero pending tasks in
        # *any* phase (not just the ready ones).  A task re-enters
        # PENDING only through a fault requeue, and both requeue paths
        # land in a hook below (server-fail orphans, copy failures), so
        # membership is conservative — a skipped job contributes no
        # pass-1 candidates by construction.
        self._no_pending: set[int] = set()

    # ------------------------------------------------------------------
    # Priority maintenance
    # ------------------------------------------------------------------
    def recompute_priorities(self, view: "ClusterView") -> None:
        """Eager full recompute (public API; also the defensive path).

        Rebuilds the roster mirror from the view and resets every piece
        of lazy bookkeeping, so callers that drive the scheduler outside
        the engine hooks (microbenches, tests) get a coherent state.
        """
        total = view.cluster.total_capacity
        # Exact comparison on purpose: this is a cache identity key (same
        # cluster ⇒ same floats), not a tolerance check.
        if total != self._measure_capacity:  # repro-lint: ignore[RL003]
            # Measures are relative to the cluster total (Eq. 15); a
            # scheduler reused against a different cluster starts fresh.
            self._measures.clear()
            self._measure_capacity = total
        self._armed = False
        self._snapshots.clear()
        self._deferred_gone.clear()
        self._unmeasured.clear()
        cache = self._measures
        roster: dict[int, Job] = {}
        measures = []
        for j in view.active_jobs:
            m = cache.get(j.job_id)
            if m is None:
                m = measure_job(j, total, r=self.r)
                cache[j.job_id] = m
            measures.append(m)
            roster[j.job_id] = j
        self._roster = roster
        self._priorities = compute_priorities(measures)

    def on_job_arrival(self, job: Job, view: "ClusterView") -> None:
        if self._eager:
            self.recompute_priorities(view)
            return
        total = view.cluster.total_capacity
        if total != self._measure_capacity:  # repro-lint: ignore[RL003]
            self._measures.clear()
            self._measure_capacity = total
            self._unmeasured.update(self._roster)
        # Flush the previous armed window: jobs that finished before
        # this arrival left the eager roster too, and their at-arrival
        # snapshots are stale now.
        if self._deferred_gone:
            for jid in self._deferred_gone:
                self._roster.pop(jid, None)
            self._deferred_gone.clear()
        if self._snapshots:
            self._snapshots.clear()
        self._roster[job.job_id] = job
        # Re-establish the armed-window invariant: every roster job has
        # a cached measure that is correct *right now* (= what the eager
        # path would measure at this arrival).  Only jobs invalidated by
        # finishes since the last arrival need work.
        cache = self._measures
        if self._unmeasured:
            roster = self._roster
            for jid in self._unmeasured:
                j = roster.get(jid)
                if j is not None:
                    cache[jid] = measure_job(j, total, r=self.r)
            self._unmeasured.clear()
        if job.job_id not in cache:
            cache[job.job_id] = measure_job(job, total, r=self.r)
        self._armed = True

    def _resolve(self) -> None:
        """Materialize the deferred recompute armed by arrivals.

        Reconstructs exactly the measure list the eager path fed to
        Algorithm 1 at the last arrival — roster membership and order,
        with at-arrival snapshots standing in for measures invalidated
        since — then drops jobs that finished in the window, mirroring
        the eager path's on_job_finish pops."""
        self._armed = False
        cache = self._measures
        snaps = self._snapshots
        total = self._measure_capacity
        measures = []
        for jid, j in self._roster.items():
            m = snaps.get(jid)
            if m is None:
                # A job that finished in the window answers with the
                # snapshot its first task finish took; release() left
                # nothing to re-measure.
                assert not j.released, f"job {jid} finished without an at-arrival snapshot"
                m = cache.get(jid)
                if m is None:  # defensive; the arm invariant covers this
                    m = measure_job(j, total, r=self.r)
                    cache[jid] = m
            measures.append(m)
        prios = compute_priorities(measures)
        if self._deferred_gone:
            for jid in self._deferred_gone:
                prios.pop(jid, None)
                self._roster.pop(jid, None)
            self._deferred_gone.clear()
        if snaps:
            snaps.clear()
        self._priorities = prios

    def on_task_finish(self, task: Task, view: "ClusterView") -> None:
        # Remaining volume/length shrank: re-measure this job at the
        # next recompute.  Clone launches/kills never change them.
        jid = task.job.job_id
        cache = self._measures
        if self._armed:
            m = cache.get(jid)
            if m is not None:
                self._snapshots.setdefault(jid, m)
        cache.pop(jid, None)
        if jid in self._roster:
            self._unmeasured.add(jid)

    def on_job_finish(self, job: Job, view: "ClusterView") -> None:
        jid = job.job_id
        if self._armed:
            m = self._measures.get(jid)
            if m is not None:
                self._snapshots.setdefault(jid, m)
            self._deferred_gone.append(jid)
        else:
            self._roster.pop(jid, None)
        self._measures.pop(jid, None)
        self._priorities.pop(jid, None)
        self._unmeasured.discard(jid)
        self._no_pending.discard(jid)

    def on_server_fail(self, server, orphans, view: "ClusterView") -> None:
        # Deliberately no cache invalidation: a job's measure counts its
        # *unfinished* tasks' volume/length, and a fault that kills
        # copies (or requeues orphans) leaves every task unfinished that
        # was unfinished before — the measure is unchanged.  The cache
        # identity key is the *nominal* total capacity, which a down
        # server doesn't alter, so cached priorities stay valid and the
        # orphans simply re-enter the next pass's pending pool at their
        # job's existing priority (clone-as-recovery: tasks that kept a
        # live clone never even left RUNNING).
        for task in orphans:
            self._no_pending.discard(task.job.job_id)

    def on_copy_failure(self, copy, view: "ClusterView") -> None:
        # The engine requeues a task whose last live copy died — its job
        # may hold pending work again, so it leaves the pass-1 skip set.
        self._no_pending.discard(copy.task.job.job_id)

    def priority_of(self, job: Job) -> int | None:
        if self._armed:
            self._resolve()
        return self._priorities.get(job.job_id)

    # ------------------------------------------------------------------
    # Scheduling pass
    # ------------------------------------------------------------------
    def schedule(self, view: "ClusterView") -> None:
        jobs = view.active_jobs
        if not jobs:
            return
        if self._armed:
            self._resolve()
        by_id = {j.job_id: j for j in jobs}
        if any(jid not in self._priorities for jid in by_id):
            # Defensive: an engine calling schedule() before the arrival
            # hook (or a job revived from a checkpoint) still gets ranked.
            self.recompute_priorities(view)
        active_prios = {
            jid: lvl for jid, lvl in self._priorities.items() if jid in by_id
        }
        groups = priority_groups(active_prios)

        # --- pass 1: normal tasks, by priority group -------------------
        no_pending = self._no_pending
        for _, job_ids in groups:
            candidates = []
            for jid in job_ids:
                if jid in no_pending:
                    continue
                job = by_id[jid]
                cands = pending_by_phase(job, view.time)
                if cands:
                    candidates.extend(cands)
                elif all(p.num_pending == 0 for p in job.phases):
                    # No pending work in ready *or* gated phases: skip
                    # this job until a fault requeues one of its tasks.
                    no_pending.add(jid)
            if candidates:
                fill_tasks_best_fit(
                    view, candidates, server_weight=self._server_weight_hook
                )

        # --- pass 2: clones on leftover resources ----------------------
        if self.policy.max_clones == 0:
            return
        if view.cluster.total_available().is_zero():
            return  # cluster packed solid; no leftover to clone into
        # δ budget tracked locally for the whole pass (the engine's
        # incremental occupancy seeds it; each clone launch debits it).
        budget = self.policy.budget_remaining(
            view.cluster, occupancy=view.clone_occupancy
        )
        state = {"remaining": budget}
        # The budget only shrinks within a pass, so a demand it rejected
        # once stays rejected — cache failures by demand key (tasks of a
        # phase share one demand, making this very effective).
        over_budget: set[tuple[float, float]] = set()

        def budget_check(t: Task) -> bool:
            demand = t.demand
            key = (demand.cpu, demand.mem)
            if key in over_budget:
                return False
            if demand.fits_in(state["remaining"]):
                return True
            over_budget.add(key)
            return False

        def debit(t: Task, _server) -> None:
            state["remaining"] = (state["remaining"] - t.demand).clamp_nonnegative()

        # Pass-scoped score cache: every availability change inside pass 2
        # is a clone launch made by the fills below, so the cache's
        # one-column-per-launch refresh rule holds for the whole pass.
        score_cache = CloneScoreCache(view.cluster.mirror)
        # The clone-target scan is the other repeat cost: re-running the
        # generator visits every task of every running phase again.  No
        # task changes state during a pass and live-copy counts only
        # grow, so repeat k's fresh scan equals repeat 1's list filtered
        # by the (re-checked) copy cap — materialize once, filter after.
        use_cat = self.policy.use_category_target
        cap = self.policy.max_copies
        group_targets: list[list[Task] | None] = [None] * len(groups)
        for rep in range(self.policy.max_clones):
            launched = 0
            for gi, (level, job_ids) in enumerate(groups):
                targets = group_targets[gi]
                if targets is None:
                    targets = list(self._clone_targets(by_id, job_ids, level))
                    group_targets[gi] = targets
                    source: Iterable[Task] = targets
                elif use_cat:
                    category_length = 2.0**level
                    source = (
                        t
                        for t in targets
                        if self.policy.may_clone(t, category_length=category_length)
                    )
                else:
                    source = (t for t in targets if t.num_live_copies < cap)
                launched += fill_clones_best_fit(
                    view,
                    source,
                    budget_check=budget_check,
                    on_launch=debit,
                    score_cache=score_cache,
                )
            if launched == 0:
                break

    def _clone_targets(
        self, by_id: dict[int, Job], job_ids: list[int], level: int
    ) -> Iterator[Task]:
        """Running tasks of the group's jobs eligible for one more clone
        (lazy — evaluated as the fill loop consumes it).  A running task
        has launched, so it is among its phase's built tasks."""
        policy = self.policy
        if not policy.use_category_target:
            # Fast path: with a fixed copy target, ``may_clone`` reduces
            # to ``0 < live < max_copies`` — inlined because this scan
            # visits every running task of every group each repeat.
            cap = policy.max_copies
            for jid in job_ids:
                for phase in by_id[jid].phases:
                    if phase.num_running == 0:  # O(1) guard before the scan
                        continue
                    for task in phase.running_tasks():
                        if 0 < task._live_count < cap:
                            yield task
            return
        category_length = 2.0**level
        for jid in job_ids:
            for phase in by_id[jid].phases:
                if phase.num_running == 0:  # O(1) guard before the scan
                    continue
                for task in phase.running_tasks():
                    if self.policy.may_clone(task, category_length=category_length):
                        yield task
