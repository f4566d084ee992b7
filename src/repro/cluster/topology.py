"""Rack topology and data-locality model.

The paper's testbed places its 30 servers "within two racks and connected
in a folded CLOS" (Sec. 6.1), and DollyMP's Application Master performs a
second-level placement decision "based on the data locality constraint"
(Sec. 5.2).  We model locality at the standard three levels used by
Hadoop — node-local, rack-local, off-rack — which is all the scheduling
logic observes (real HDFS block maps only matter through this preference
ordering).
"""

from __future__ import annotations

import enum
from typing import Sequence

import numpy as np

__all__ = ["LocalityLevel", "Topology"]


class LocalityLevel(enum.IntEnum):
    """Preference levels for placing a task near its input data.

    Lower is better; the integer values make scoring arithmetic easy.
    """

    NODE_LOCAL = 0
    RACK_LOCAL = 1
    OFF_RACK = 2


class Topology:
    """Maps servers to racks and answers locality queries.

    The folded-CLOS fabric of the testbed is full-bisection within a rack
    and oversubscribed across racks, which is exactly what the three-level
    preference captures.

    The rack map is one int32 array: at 100K servers a list of Python
    ints costs megabytes, and int32 pickles to half of int64.
    """

    def __init__(self, rack_of: Sequence[int]) -> None:
        self._rack_of = np.array(rack_of, dtype=np.int32)
        self.num_racks = int(self._rack_of.max()) + 1 if len(self._rack_of) else 0

    @staticmethod
    def two_racks(num_servers: int) -> "Topology":
        """The paper's layout: servers split evenly across two racks."""
        half = (num_servers + 1) // 2
        return Topology([0 if i < half else 1 for i in range(num_servers)])

    @staticmethod
    def single_rack(num_servers: int) -> "Topology":
        return Topology([0] * num_servers)

    def rack(self, server_id: int) -> int:
        return self._rack_of.item(server_id)

    def locality(self, server_id: int, preferred_servers: Sequence[int]) -> LocalityLevel:
        """Locality level of running on ``server_id`` given the servers
        holding the input data replicas (``preferred_servers``)."""
        if not preferred_servers:
            return LocalityLevel.NODE_LOCAL  # no data constraint
        if server_id in preferred_servers:
            return LocalityLevel.NODE_LOCAL
        my_rack = self.rack(server_id)
        if any(self.rack(p) == my_rack for p in preferred_servers):
            return LocalityLevel.RACK_LOCAL
        return LocalityLevel.OFF_RACK

    def servers_in_rack(self, rack: int) -> list[int]:
        return np.flatnonzero(self._rack_of == rack).tolist()

    def __len__(self) -> int:
        return len(self._rack_of)

    # -- pickling (checkpoint/restore) ---------------------------------
    def __getstate__(self):
        # A rack map that deals servers round-robin over the racks (the
        # trace clusters, and any single rack) pickles as its recipe.
        n, racks = len(self._rack_of), self.num_racks
        if racks and np.array_equal(self._rack_of, np.arange(n, dtype=np.int32) % racks):
            return n, racks
        return self.__dict__

    def __setstate__(self, state) -> None:
        if isinstance(state, tuple):
            n, racks = state
            state = {"_rack_of": np.arange(n, dtype=np.int32) % racks, "num_racks": racks}
        self.__dict__.update(state)
