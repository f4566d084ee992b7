"""A single heterogeneous server (YARN NodeManager equivalent).

Each server has a multi-resource capacity (Eq. 5 of the paper) and a
*slowdown factor* modelling heterogeneity: the paper's private cluster
mixes "powerful servers and normal computing nodes" and additionally sees
background load on the hypervisors, both of which it folds into a single
stochastic task-time model (Sec. 3).  We keep a deterministic per-server
component (the slowdown factor) and let the workload's straggler
distribution supply the stochastic component.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.resources import Resources, ZERO

if TYPE_CHECKING:  # pragma: no cover
    from repro.workload.task import TaskCopy

__all__ = ["Server"]

#: Shared resident-copy set of every idle server: most servers of a
#: large cluster never host a copy, so none of them pays for an empty
#: ``set``.  Immutable, so sharing it is safe.
_IDLE: frozenset = frozenset()


class Server:
    """A server with capacity bookkeeping for running task copies."""

    __slots__ = (
        "server_id",
        "capacity",
        "slowdown",
        "rack",
        "up",
        "_allocated",
        "_available",
        "_running",
        "_mirror",
    )

    def __init__(
        self,
        server_id: int,
        capacity: Resources,
        *,
        slowdown: float = 1.0,
        rack: int = 0,
    ) -> None:
        if capacity.cpu <= 0 or capacity.mem <= 0:
            raise ValueError(f"server {server_id}: capacity must be positive, got {capacity}")
        if slowdown <= 0:
            raise ValueError(f"server {server_id}: slowdown must be positive, got {slowdown}")
        self.server_id = server_id
        self.capacity = capacity
        #: Multiplier on task durations executed here (1.0 = nominal,
        #: >1 = slow node, <1 = powerful node).
        self.slowdown = slowdown
        self.rack = rack
        #: Liveness flag (fault injection, DESIGN.md §5.5).  A down
        #: server hosts nothing: availability reads as zero, can_fit and
        #: allocate refuse, and the engine killed every resident copy
        #: before flipping this off via :meth:`mark_down`.
        self.up = True
        self._allocated = ZERO
        # Availability is read millions of times per simulation (every
        # best-fit scan); keep it cached and update on allocate/release.
        self._available = capacity
        # _IDLE until the first allocate; back to _IDLE whenever a
        # release leaves the server empty.
        self._running: set["TaskCopy"] | frozenset = _IDLE
        # Set by Cluster.__init__: the cluster's SoA availability mirror,
        # notified after every allocate/release so vectorized placement
        # scans stay exact.  A server belongs to at most one cluster.
        self._mirror = None

    # ------------------------------------------------------------------
    # Capacity accounting
    # ------------------------------------------------------------------
    @property
    def allocated(self) -> Resources:
        return self._allocated

    @property
    def available(self) -> Resources:
        return self._available

    @property
    def running_copies(self) -> frozenset["TaskCopy"]:
        return frozenset(self._running)

    def can_fit(self, demand: Resources) -> bool:
        return self.up and demand.fits_in(self.available)

    def allocate(self, copy: "TaskCopy") -> None:
        """Reserve resources for a task copy.  Raises if it does not fit."""
        if not self.up:
            raise RuntimeError(f"server {self.server_id}: down, cannot allocate")
        demand = copy.task.demand
        if not self.can_fit(demand):
            raise RuntimeError(
                f"server {self.server_id}: cannot fit {demand} in {self.available}"
            )
        if copy in self._running:
            raise RuntimeError(f"server {self.server_id}: copy {copy} already running")
        # Unrolled `self._allocated + demand` / `(capacity - allocated)
        # .clamp_nonnegative()`: same operations in the same order (so
        # identical floats), minus the intermediate vectors — allocate
        # runs once per launched copy, squarely on the hot path.
        alloc = self._allocated
        cap = self.capacity
        a_cpu = alloc.cpu + demand.cpu
        a_mem = alloc.mem + demand.mem
        self._allocated = Resources(a_cpu, a_mem)
        self._available = Resources(max(cap.cpu - a_cpu, 0.0), max(cap.mem - a_mem, 0.0))
        if self._running:
            self._running.add(copy)
        else:
            self._running = {copy}
        if self._mirror is not None:
            self._mirror.update(self)

    def release(self, copy: "TaskCopy") -> None:
        """Free the resources held by a finished or killed copy."""
        if copy not in self._running:
            raise RuntimeError(f"server {self.server_id}: copy {copy} not running here")
        self._running.discard(copy)
        demand = copy.task.demand
        alloc = self._allocated
        if not self._running:
            self._running = _IDLE
            # Snap accumulated float error back to exactly zero when idle.
            self._allocated = ZERO
        else:
            self._allocated = Resources(
                max(alloc.cpu - demand.cpu, 0.0), max(alloc.mem - demand.mem, 0.0)
            )
        cap = self.capacity
        self._available = Resources(
            max(cap.cpu - self._allocated.cpu, 0.0),
            max(cap.mem - self._allocated.mem, 0.0),
        )
        if self._mirror is not None:
            self._mirror.update(self)

    # ------------------------------------------------------------------
    # Fault transitions (engine-driven; see repro.faults)
    # ------------------------------------------------------------------
    def mark_down(self) -> None:
        """Take the server out of service.  The caller (the engine's
        ``Fail`` applier) must have released every resident copy first,
        so the allocation is already snapped to exactly zero; a down
        server advertises zero availability through both its own
        bookkeeping and the mirror."""
        if not self.up:
            raise RuntimeError(f"server {self.server_id}: already down")
        if self._running:
            raise RuntimeError(
                f"server {self.server_id}: cannot go down with "
                f"{len(self._running)} resident copies"
            )
        self.up = False
        self._available = ZERO
        if self._mirror is not None:
            self._mirror.update(self)

    def mark_up(self) -> None:
        """Return the server to service with its full capacity.  The
        allocation is exactly zero while down, so availability restores
        to the capacity floats bit-for-bit."""
        if self.up:
            raise RuntimeError(f"server {self.server_id}: already up")
        self.up = True
        cap = self.capacity
        self._available = Resources(
            max(cap.cpu - self._allocated.cpu, 0.0),
            max(cap.mem - self._allocated.mem, 0.0),
        )
        if self._mirror is not None:
            self._mirror.update(self)

    def utilization(self) -> Resources:
        """Fraction of each dimension currently allocated."""
        return self._allocated.normalized_by(self.capacity)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Server(id={self.server_id}, cap={self.capacity}, "
            f"alloc={self._allocated}, slowdown={self.slowdown:g})"
        )
