"""A single heterogeneous server (YARN NodeManager equivalent), as a view.

Each server has a multi-resource capacity (Eq. 5 of the paper) and a
*slowdown factor* modelling heterogeneity: the paper's private cluster
mixes "powerful servers and normal computing nodes" and additionally sees
background load on the hypervisors, both of which it folds into a single
stochastic task-time model (Sec. 3).  We keep a deterministic per-server
component (the slowdown factor) and let the workload's straggler
distribution supply the stochastic component.

The state itself lives in the cluster's
:class:`~repro.cluster.mirror.AvailabilityMirror` arrays.  A
:class:`Server` is a two-field view over them, built on demand by
``Cluster[i]``: reads and writes go straight to the arrays, and two
views of one server are interchangeable (compare ``server_id``, not
identity).
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING

from repro.resources import Resources

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.mirror import AvailabilityMirror
    from repro.workload.task import TaskCopy

__all__ = ["Server", "server_id_of"]


class Server:
    """One server of a cluster: a view of the cluster's state arrays."""

    __slots__ = ("mirror", "server_id")

    def __init__(self, mirror: "AvailabilityMirror", server_id: int) -> None:
        self.mirror = mirror
        self.server_id = server_id

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> Resources:
        return self.mirror.capacity(self.server_id)

    @property
    def allocated(self) -> Resources:
        return self.mirror.allocated(self.server_id)

    @property
    def available(self) -> Resources:
        return self.mirror.available(self.server_id)

    @property
    def up(self) -> bool:
        """Liveness flag (fault injection, DESIGN.md §5.5).  A down
        server hosts nothing: availability reads as zero, can_fit and
        allocate refuse."""
        return bool(self.mirror.up[self.server_id])

    @property
    def slowdown(self) -> float:
        """Multiplier on task durations executed here (1.0 = nominal,
        >1 = slow node, <1 = powerful node), scaled while a brownout
        window is open."""
        return self.mirror.slowdown_of(self.server_id)

    @property
    def running_copies(self) -> tuple["TaskCopy", ...]:
        """The copies running here, in launch order."""
        return tuple(self.mirror.resident.get(self.server_id, ()))

    def can_fit(self, demand: Resources) -> bool:
        return self.mirror.can_fit(self.server_id, demand)

    def utilization(self) -> Resources:
        """Fraction of each dimension currently allocated."""
        return self.allocated.normalized_by(self.capacity)

    # ------------------------------------------------------------------
    # Capacity accounting and fault transitions (written in place)
    # ------------------------------------------------------------------
    def allocate(self, copy: "TaskCopy") -> None:
        """Reserve resources for a task copy.  Raises if it does not fit."""
        self.mirror.allocate(self.server_id, copy)

    def release(self, copy: "TaskCopy") -> None:
        """Free the resources held by a finished or killed copy."""
        self.mirror.release(self.server_id, copy)

    def mark_down(self) -> None:
        self.mirror.mark_down(self.server_id)

    def mark_up(self) -> None:
        self.mirror.mark_up(self.server_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Server(id={self.server_id}, cap={self.capacity}, "
            f"alloc={self.allocated}, slowdown={self.slowdown:g})"
        )


def server_id_of(server: "Server | int") -> int:
    """The id of a server given as a view or as an id — actions and
    fault events may carry either."""
    if isinstance(server, Server):
        return server.server_id
    return operator.index(server)
