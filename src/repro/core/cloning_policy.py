"""DollyMP's cloning policy (Secs. 4.1, 5 and Cor. 4.1).

Design facts from the paper:

* clones are launched **only after** no new (normal) task can be
  scheduled, using leftover resources, in the same priority order as
  normal scheduling (Sec. 5);
* each running task keeps **at most two extra clones** (three concurrent
  copies) — concavity of h and two-replica data locality both argue
  against more (Sec. 5);
* cloning priority goes to *small* jobs: "DollyMP chooses to schedule
  extra cloned copies for small jobs when the total amount of consumed
  resources under cloning is less than the resource demand of other
  jobs" (Sec. 4.1) — we expose this as a clone *budget*: live clones may
  occupy at most a δ-fraction of the cluster (δ = 0.3 in the paper's
  experiment parameterization, Sec. 6.1);
* Corollary 4.1's refinement launches r_j − 1 clones where r_j is the
  least copy count whose speedup pulls the job into its length category.

``delay_assignment_map`` implements the Sec. 5.2 policy for wiring the
outputs of upstream copies to downstream clones.

This module only *decides* (may_clone / budget_remaining); the actual
clone launches are emitted by the placement loops as typed
:class:`~repro.sim.actions.Launch` actions with ``clone=True``, so
every cloning decision lands in the engine's replayable journal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.resources import Resources, sum_resources
from repro.workload.speedup import required_clones
from repro.workload.task import Task

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster

__all__ = ["CloningPolicy", "clone_resource_occupancy", "delay_assignment_map"]


@dataclass(frozen=True)
class CloningPolicy:
    """Tunables of DollyMP's cloning behaviour.

    ``max_clones`` is the number of *extra* copies per task: 0 disables
    cloning (DollyMP⁰), 1 and 2 are the paper's DollyMP¹/DollyMP², and 3
    is the DollyMP³ ablation of Fig. 9.
    """

    max_clones: int = 2
    #: δ — ceiling on the cluster fraction (per dimension, dominant) that
    #: live clones may occupy. 1.0 disables the budget.
    budget_fraction: float = 0.3
    #: When True, cap a task's copies at the Corollary 4.1 count r_j for
    #: its job's length category instead of always cloning to the max.
    use_category_target: bool = False

    def __post_init__(self) -> None:
        if self.max_clones < 0:
            raise ValueError("max_clones must be non-negative")
        if not 0.0 <= self.budget_fraction <= 1.0:
            raise ValueError("budget_fraction must be in [0, 1]")

    # ------------------------------------------------------------------
    @property
    def max_copies(self) -> int:
        """Maximum concurrent copies per task (original included)."""
        return self.max_clones + 1

    def copies_allowed(self, task: Task, *, category_length: float | None = None) -> int:
        """How many total copies this task may hold right now."""
        cap = self.max_copies
        if self.use_category_target and category_length is not None:
            r = required_clones(
                task.phase.theta, category_length, task.phase.speedup, max_copies=cap
            )
            cap = min(cap, r if r is not None else cap)
        return cap

    def may_clone(self, task: Task, *, category_length: float | None = None) -> bool:
        """Whether ``task`` is eligible for one more clone (ignoring the
        budget and cluster capacity, which the scheduler checks)."""
        if self.max_clones == 0:
            return False
        live = task.num_live_copies
        if live == 0:
            return False  # only running tasks are cloned (Sec. 5)
        return live < self.copies_allowed(task, category_length=category_length)

    def budget_remaining(
        self, cluster: "Cluster", *, occupancy: Resources | None = None
    ) -> Resources:
        """Clone-occupiable resources left under the δ budget.

        ``occupancy`` lets callers that track clone usage incrementally
        (the simulation engine does) skip the full cluster scan.

        Accounting contract: resources held by a clone return to the
        budget the moment the engine releases the copy — first-copy-wins
        kills, explicit kills and fault kills all decrement the
        incremental occupancy on the spot, and the engine snaps it to
        exactly zero when the last live clone exits, so a drained
        cluster always exposes the full δ ceiling again (the sanitizer's
        clone-budget invariant re-derives this from scratch each event).
        """
        if self.budget_fraction >= 1.0:
            return cluster.total_capacity
        ceiling = cluster.total_capacity * self.budget_fraction
        used = occupancy if occupancy is not None else clone_resource_occupancy(cluster)
        return (ceiling - used).clamp_nonnegative()

    def within_budget(
        self,
        cluster: "Cluster",
        demand: Resources,
        *,
        occupancy: Resources | None = None,
    ) -> bool:
        return demand.fits_in(self.budget_remaining(cluster, occupancy=occupancy))


def clone_resource_occupancy(cluster: "Cluster") -> Resources:
    """Total resources currently held by live clone copies.

    Copies are summed by server id, then in launch order (a server's
    resident list): float addition is order-sensitive, so the sum must
    not depend on the order servers first hosted a copy.
    """
    resident = cluster.mirror.resident
    return sum_resources(
        c.task.demand for sid in sorted(resident) for c in resident[sid] if c.is_clone
    )


def delay_assignment_map(num_upstream: int, num_downstream: int) -> dict[int, list[int]]:
    """Sec. 5.2's delay assignment between copies of adjacent phases.

    Returns ``{downstream_copy: [upstream_copies feeding it]}``.

    * With at least as many upstream copies as downstream clones, the AM
    "waits to assign the outputs of two early upstream copies to each of
    the downstream clones evenly" — upstream copies are dealt round-robin
    (earliest finishers first), giving each downstream copy up to two
    distinct feeds before any third is assigned.
    * With fewer upstream copies than downstream, "the output from the
    copy that finishes first" (copy 0) feeds every downstream copy.
    """
    if num_upstream < 1 or num_downstream < 1:
        raise ValueError("need at least one copy on each side")
    if num_upstream < num_downstream:
        return {d: [0] for d in range(num_downstream)}
    mapping: dict[int, list[int]] = {d: [] for d in range(num_downstream)}
    feeds = min(num_upstream, 2 * num_downstream)
    for u in range(feeds):
        mapping[u % num_downstream].append(u)
    return mapping
