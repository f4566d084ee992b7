"""Shared placement loops: best-fit task filling and clone filling.

Placements are emitted as typed :class:`~repro.sim.actions.Launch`
actions through ``view.apply`` (the action protocol of DESIGN.md §5.3),
so every launch these loops perform is validated, journaled and
replayable by the engine.

Both DollyMP (Alg. 2, steps 9–15) and the Tetris-style baselines place
one task at a time, choosing among equally-prioritized candidates the
(task, server) pair maximizing the resource-fit inner product
R_i^c·c + R_i^m·m.

Task fills score candidates against the cluster's availability mirror
through its block-bound placement index (DESIGN.md §5.10): blocks are
scored lazily and each launch only refreshes the launched server's
column, so a pass is one column update plus a re-resolve of the rows
that lost their best server.  Clone fills query the same index through
a :class:`CloneScoreCache`.

Tie-breaking contract: the *earliest candidate* in the given order wins
equal scores, and within a candidate the *lowest server id* wins — the
fill resolves exactly the row-major ``argmax`` of the candidate×server
score matrix, which is the launch sequence of the per-server reference
loops in ``tests/reference.py`` (strict ``>`` keeps the first maximum).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from repro.cluster.server import Server
from repro.sim.actions import Launch
from repro.workload.phase import Phase
from repro.workload.task import Task, TaskState

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.mirror import AvailabilityMirror
    from repro.sim.engine import ClusterView

__all__ = [
    "CloneScoreCache",
    "fill_tasks_best_fit",
    "fill_clones_best_fit",
    "pending_by_phase",
    "next_pending_task",
]


def pending_by_phase(job, now: float | None = None) -> list[tuple[Phase, list[int]]]:
    """(phase, pending task indices) for every *ready* phase of the job.

    All DAG-ready phases are offered — branches of a fork run in
    parallel, as they do under YARN where every launchable container is
    requested at once.  ``now`` enables shuffle/start-delay gating.
    Indices, not tasks: a fill builds only the tasks it launches.
    """
    out: list[tuple[Phase, list[int]]] = []
    for phase in job.phases:
        # O(1) pending guard first: it implies the phase is unfinished,
        # and most phases a pass visits have nothing pending — the
        # DAG-readiness check is the expensive half.
        if phase.num_pending == 0 or not job.phase_ready(phase, now):
            continue
        out.append((phase, phase.pending_indices()))
    return out


def next_pending_task(job, now: float | None = None) -> Task | None:
    """The first pending task across the job's ready phases."""
    for phase in job.ready_phases(now):
        if phase.num_pending:
            return phase.task(phase.pending_indices()[0])
    return None


def fill_tasks_best_fit(
    view: "ClusterView",
    phases_with_pending: list[tuple[Phase, list[int]]],
    *,
    on_launch: Callable[[Task, Server], None] | None = None,
    server_weight: Callable[[Server], float] | None = None,
) -> int:
    """Launch pending tasks from the given phases, all treated with equal
    priority, one at a time by best resource fit.  Returns launch count.

    ``phases_with_pending`` pairs each phase with the ascending indices
    of its (pending, ready) tasks to place, as :func:`pending_by_phase`
    gives them; each row launches from its highest index down, and a
    task is built only when it launches.  Used per priority group by
    DollyMP and per ordering bucket by the baselines.  ``server_weight``
    optionally scales each server's fit score (the straggler-avoidance
    extension multiplies by the inverse of the server's learned
    slowdown); it is evaluated once per server and applied as a weight
    vector.
    """
    obs = view.observability
    frame = (
        obs.profiler.enter("placement")
        if obs is not None and obs.profiler is not None
        else None
    )
    try:
        launched = _fill_tasks(
            view,
            phases_with_pending,
            on_launch=on_launch,
            server_weight=server_weight,
        )
    finally:
        if frame is not None:
            obs.profiler.exit(frame)
    if launched and obs is not None and obs.sim is not None:
        obs.sim.placement_launched.labels(mode="tasks").inc(launched)
    return launched


def _fill_tasks(
    view: "ClusterView",
    phases_with_pending: list[tuple[Phase, list[int]]],
    *,
    on_launch: Callable[[Task, Server], None] | None,
    server_weight: Callable[[Server], float] | None,
) -> int:
    """Blocked fill over the mirror's placement index — the launch
    sequence of a dense candidate×server argmax, without the matrix.

    Candidate phases with equal ``(cpu, mem)`` demand share one score
    row: ``d·avail`` is the same IEEE expression for both, so they share
    one lazily-scored block cache (:meth:`AvailabilityMirror.
    scan_blocks`) and one best (column, score).  A block is scored only
    when the index's availability bounds cannot rule it out, so in the
    mostly-idle regime a row stops at its first block.  A launch
    refreshes one column per live demand (:meth:`AvailabilityMirror.
    rescore_column`) and re-resolves only the demands whose best server
    it was — availability only shrinks within a pass, so no other
    demand's best can change.  The global pick is the flat row-major
    argmax of the dense matrix decomposed exactly: the first column
    achieving each row's max, then the first non-empty candidate row
    achieving the global max.  A demand leaves the race when its last
    candidate row empties.  ``server_weight`` is evaluated once per
    server and scores the whole cluster as one block.
    """
    rows = [(phase, list(pending)) for phase, pending in phases_with_pending if pending]
    if not rows:
        return 0
    cluster = view.cluster
    mirror = cluster.mirror
    weights = None
    if server_weight is not None:
        weights = np.fromiter(
            (server_weight(s) for s in cluster), np.float64, len(cluster)
        )
    # One score row per distinct demand: (d_cpu, d_mem, block cache).
    index: dict[tuple[float, float], int] = {}
    scored: list[tuple[float, float, list]] = []
    # (pending indices, demand, phase)
    live_rows: list[tuple[list[int], int, Phase]] = []
    for phase, pending in rows:
        key = (phase.demand.cpu, phase.demand.mem)
        if key not in index:
            index[key] = len(scored)
            scored.append((key[0], key[1], mirror.new_blocks(weights)))
        live_rows.append((pending, index[key], phase))
    best_col = [0] * len(scored)
    best_score = [0.0] * len(scored)
    for g, (dc, dm, blocks) in enumerate(scored):
        best_col[g], best_score[g] = mirror.scan_blocks(dc, dm, blocks, weights)
    live = list(range(len(scored)))  # demands with a non-empty row
    neg_inf = float("-inf")
    launched = 0
    while True:
        ck = cg = -1
        bs = neg_inf
        for k, (_, g, _) in enumerate(live_rows):
            s = best_score[g]
            if s > bs:  # strict: ties keep the earliest candidate
                bs, ck, cg = s, k, g
        if ck < 0:
            break  # nothing placeable remains
        sj = best_col[cg]
        queue, _, phase = live_rows[ck]
        task = phase.task(queue.pop())  # built here, as it launches
        view.apply(Launch(task, sj))
        if on_launch is not None:
            on_launch(task, cluster[sj])
        launched += 1
        if not queue:
            del live_rows[ck]
            if all(g != cg for _, g, _ in live_rows):
                live.remove(cg)  # its last candidate emptied
        # Only `sj`'s availability changed (shrank).
        mirror.rescore_column(sj, [scored[g] for g in live], weights)
        for g in live:
            if best_col[g] == sj:
                dc, dm, blocks = scored[g]
                best_col[g], best_score[g] = mirror.scan_blocks(dc, dm, blocks, weights)
    return launched


class CloneScoreCache:
    """Per-pass memo of demand → block scores for clone fills.

    The clone pass queries best fit for the same few demand keys over
    and over (every task of a phase shares one demand), and between
    queries availability only changes at servers it launched on.  The
    cache keeps, per demand key, the block cache of
    :meth:`AvailabilityMirror.scan_blocks` (scored blocks and their
    argmaxes); each launch refreshes exactly one column of every scored
    block through :meth:`AvailabilityMirror.rescore_column`, so a query
    answers exactly what ``mirror.best_fit(demand)`` (unweighted) would.

    Valid only while every availability change inside the pass flows
    through :meth:`on_launch` — i.e. within one scheduler pass where the
    clone fills perform all the launches.
    """

    __slots__ = ("_mirror", "_rows")

    def __init__(self, mirror: "AvailabilityMirror") -> None:
        self._mirror = mirror
        # demand key → (d_cpu, d_mem, block cache)
        self._rows: dict[tuple[float, float], tuple[float, float, list]] = {}

    def best_fit_id(self, demand) -> int | None:
        """Best-fit server id for ``demand``, or None when nothing fits."""
        key = (demand.cpu, demand.mem)
        row = self._rows.get(key)
        if row is None:
            row = (demand.cpu, demand.mem, self._mirror.new_blocks())
            self._rows[key] = row
        best, _ = self._mirror.scan_blocks(*row)
        return None if best < 0 else best

    def on_launch(self, server_id: int) -> None:
        """Refresh the launched server's column in every cached row."""
        self._mirror.rescore_column(server_id, self._rows.values())


def fill_clones_best_fit(
    view: "ClusterView",
    tasks: Iterable[Task],
    *,
    budget_check: Callable[[Task], bool] | None = None,
    max_launches: int | None = None,
    on_launch: Callable[[Task, Server], None] | None = None,
    score_cache: CloneScoreCache | None = None,
) -> int:
    """Launch at most one clone per listed (running) task, best fit first.

    ``budget_check`` gates each launch (DollyMP's δ budget); tasks are
    attempted in the given priority order, each placed on its best-fit
    server if any fits.  ``score_cache`` is a pass-scoped
    :class:`CloneScoreCache` shared across calls; without one the call
    scores through its own.  Returns the number of clones launched.
    """
    obs = view.observability
    frame = (
        obs.profiler.enter("placement")
        if obs is not None and obs.profiler is not None
        else None
    )
    try:
        launched = _fill_clones(
            view,
            tasks,
            budget_check=budget_check,
            max_launches=max_launches,
            on_launch=on_launch,
            score_cache=score_cache,
        )
    finally:
        if frame is not None:
            obs.profiler.exit(frame)
    if launched and obs is not None and obs.sim is not None:
        obs.sim.placement_launched.labels(mode="clones").inc(launched)
    return launched


def _fill_clones(
    view: "ClusterView",
    tasks: Iterable[Task],
    *,
    budget_check: Callable[[Task], bool] | None,
    max_launches: int | None,
    on_launch: Callable[[Task, Server], None] | None,
    score_cache: CloneScoreCache | None,
) -> int:
    cluster = view.cluster
    if score_cache is None:
        score_cache = CloneScoreCache(cluster.mirror)
    launched = 0
    # Availability only shrinks within a pass, so a demand that found no
    # server will never fit later in the pass — skip repeats (tasks of a
    # phase share one demand, making this cache very effective).
    unfittable: set[tuple[float, float]] = set()
    for task in tasks:
        if max_launches is not None and launched >= max_launches:
            break
        if task.state is not TaskState.RUNNING:
            continue
        demand = task.demand
        key = (demand.cpu, demand.mem)
        if key in unfittable:
            continue
        if budget_check is not None and not budget_check(task):
            continue
        # A cache hit is still one placement query answered.
        if cluster._obs_placement is not None:
            cluster._count_query()
        sid = score_cache.best_fit_id(demand)
        if sid is None:
            unfittable.add(key)
            continue
        view.apply(Launch(task, sid, clone=True))
        score_cache.on_launch(sid)
        if on_launch is not None:
            on_launch(task, cluster[sid])
        launched += 1
    return launched
