"""The cluster: a collection of heterogeneous servers plus topology.

Provides the aggregate quantities the schedulers need — total capacity
(the denominators of the dominant-share Eqs. 9/15), availability scans,
and utilization summaries — while each :class:`~repro.cluster.server.Server`
owns its own allocation bookkeeping.

Placement scans run on a structure-of-arrays NumPy mirror of per-server
availability (:class:`~repro.cluster.mirror.AvailabilityMirror`),
updated incrementally on every allocate/release, so ``best_fit_server``
is a blocked masked reduction rather than a Python loop.  The
equivalence tests compare it against a per-server reference loop
(``tests/reference.py``; DESIGN.md §5.1).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.cluster.mirror import AvailabilityMirror
from repro.cluster.server import Server
from repro.cluster.topology import Topology
from repro.resources import Resources

__all__ = ["Cluster"]


class Cluster:
    """An indexed set of servers with cached aggregate capacity.

    A server belongs to at most one cluster at a time: construction
    points each server's mirror hook at this cluster's availability
    arrays.
    """

    def __init__(
        self,
        servers: Sequence[Server],
        topology: Topology | None = None,
    ) -> None:
        if not servers:
            raise ValueError("a cluster needs at least one server")
        ids = [s.server_id for s in servers]
        if ids != list(range(len(servers))):
            raise ValueError("server ids must be 0..n-1 in order")
        self.servers: list[Server] = list(servers)
        self.topology = topology if topology is not None else Topology.single_rack(len(servers))
        if len(self.topology) != len(self.servers):
            raise ValueError("topology size does not match server count")
        self._total_capacity = Resources(
            sum(s.capacity.cpu for s in self.servers),
            sum(s.capacity.mem for s in self.servers),
        )
        self.mirror = AvailabilityMirror(self.servers)
        for s in self.servers:
            s._mirror = self.mirror
        #: Pre-bound placement-query counter, installed by
        #: Observability.bind_cluster; None keeps the disabled query
        #: path at one attribute load + branch.
        self._obs_placement = None

    def __setstate__(self, state) -> None:
        # Checkpoints from builds with the placement-path switch carry
        # ``vectorized`` and a (vectorized, scalar) pair of
        # placement-query counters; keep counting into the first.
        state.pop("vectorized", None)
        if isinstance(state.get("_obs_placement"), tuple):
            state["_obs_placement"] = state["_obs_placement"][0]
        self.__dict__.update(state)

    def _count_query(self) -> None:
        counter = self._obs_placement
        if counter is not None:
            counter.inc()

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def total_capacity(self) -> Resources:
        """Σ_i (C_i, M_i) — the dominant-share denominator."""
        return self._total_capacity

    def total_allocated(self) -> Resources:
        return self.mirror.total_allocated()

    def total_available(self) -> Resources:
        return self.mirror.total_available()

    def utilization(self) -> Resources:
        return self.total_allocated().normalized_by(self._total_capacity)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.servers)

    def __iter__(self) -> Iterator[Server]:
        return iter(self.servers)

    def __getitem__(self, server_id: int) -> Server:
        return self.servers[server_id]

    def best_fit_server(self, demand: Resources) -> Server | None:
        """The fitting server maximizing the demand·available alignment.

        This is Tetris' placement heuristic, also used by DollyMP for its
        final placement step; ``None`` when no server fits.  Equal scores
        break to the **lowest server id** (``argmax`` returns the first
        maximal index).
        """
        if self._obs_placement is not None:
            self._count_query()
        hit = self.mirror.best_fit(demand)
        return None if hit is None else self.servers[hit[0]]

    def num_up(self) -> int:
        """Servers currently in service (all of them absent fault injection)."""
        return self.mirror.num_up()

    def running_copy_count(self) -> int:
        return sum(len(s.running_copies) for s in self.servers)

    @staticmethod
    def build(
        specs: Iterable[tuple[Resources, float]],
        topology: Topology | None = None,
    ) -> "Cluster":
        """Build a cluster from ``(capacity, slowdown)`` specs."""
        servers = [
            Server(i, cap, slowdown=slow)
            for i, (cap, slow) in enumerate(specs)
        ]
        return Cluster(servers, topology)
