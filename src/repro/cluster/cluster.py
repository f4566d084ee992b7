"""The cluster: heterogeneous servers plus topology.

Provides the aggregate quantities the schedulers need — total capacity
(the denominators of the dominant-share Eqs. 9/15), availability scans,
and utilization summaries.  Per-server state lives only in the
structure-of-arrays :class:`~repro.cluster.mirror.AvailabilityMirror`
(class index, allocation, availability, up flag, brownouts and resident
copies, with capacity and slowdown held once per server class);
``cluster[i]`` is a :class:`~repro.cluster.server.Server` view built on
demand, so no per-server Python object exists at rest and a 100K-server
cluster builds from a few vectorized arrays.

``best_fit_server`` is a blocked masked reduction over the mirror rather
than a Python loop.  The equivalence tests compare it against a
per-server reference loop (``tests/reference.py``; DESIGN.md §5.1).
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator

import numpy as np

from repro.cluster.mirror import AvailabilityMirror
from repro.cluster.server import Server
from repro.cluster.topology import Topology
from repro.resources import EPS, Resources

__all__ = ["Cluster"]


def _factor_rows(columns) -> tuple[np.ndarray, np.ndarray]:
    """One class per distinct row of equal-length float ``columns``, in
    the lexicographic order of the rows' values (``np.unique(axis=0)``'s
    classes): returns each class's first row index and each row's class.

    Each column is factored on its own into ranks of its distinct values
    (values one ulp apart are distinct), the ranks are combined into one
    integer code per row, and the codes go through ``np.unique`` once:
    a 2-D ``np.unique`` sorts the rows as structured records, about ten
    times slower at 100K rows.  ``np.ravel_multi_index`` raises rather
    than wrap if the code space outgrows int64, which takes more than 2M
    distinct values in a column.  Inverses are reshaped because their
    shape has varied across numpy versions.
    """
    n = len(columns[0])
    ranks, sizes = [], []
    for col in columns:
        values, rank = np.unique(col, return_inverse=True)
        ranks.append(rank.reshape(n))
        sizes.append(len(values))
    codes = np.ravel_multi_index(ranks, sizes)
    _, first, class_of = np.unique(codes, return_index=True, return_inverse=True)
    return first, class_of.reshape(n)


class Cluster:
    """An indexed set of servers with cached aggregate capacity.

    Built from per-server capacity arrays (server ``i`` has capacity
    ``(cap_cpu[i], cap_mem[i])`` and slowdown ``slowdown[i]``, a scalar
    meaning the same for every server), which are factored into server
    classes once; :meth:`from_classes` takes the classes directly and
    :meth:`build` is the small-cluster form over ``(capacity, slowdown)``
    specs.
    """

    def __init__(
        self,
        cap_cpu,
        cap_mem,
        slowdown=1.0,
        topology: Topology | None = None,
    ) -> None:
        cap_cpu = np.asarray(cap_cpu, dtype=np.float64)
        cap_mem = np.asarray(cap_mem, dtype=np.float64)
        n = len(cap_cpu)
        if n == 0:
            raise ValueError("a cluster needs at least one server")
        if cap_cpu.shape != (n,) or cap_mem.shape != (n,):
            raise ValueError("capacity arrays must hold one entry per server")
        slowdown = np.broadcast_to(np.asarray(slowdown, dtype=np.float64), (n,))
        columns = (cap_cpu, cap_mem, slowdown)
        first, class_of = _factor_rows(columns)
        self._setup(*(col[first] for col in columns), class_of, topology)

    @classmethod
    def from_classes(
        cls,
        cpu,
        mem,
        slowdown,
        class_of,
        topology: Topology | None = None,
    ) -> "Cluster":
        """A cluster of server classes: server ``i`` is of class
        ``class_of[i]``, whose capacity is ``(cpu[k], mem[k])`` and
        slowdown ``slowdown[k]`` (a scalar meaning the same for every
        class).  Classes that no server is of are dropped."""
        cluster = cls.__new__(cls)
        cluster._setup(cpu, mem, slowdown, np.asarray(class_of), topology)
        return cluster

    def _setup(self, cpu, mem, slowdown, class_of: np.ndarray, topology) -> None:
        n = len(class_of)
        if n == 0:
            raise ValueError("a cluster needs at least one server")
        cpu = np.asarray(cpu, dtype=np.float64)
        mem = np.asarray(mem, dtype=np.float64)
        k = len(cpu)
        if cpu.shape != (k,) or mem.shape != (k,) or class_of.shape != (n,):
            raise ValueError("class tables must hold one entry per class")
        slowdown = np.broadcast_to(np.asarray(slowdown, dtype=np.float64), (k,))
        if class_of.min() < 0 or class_of.max() >= k:
            raise ValueError(f"class index out of range for {k} classes")
        used = np.bincount(class_of, minlength=k) > 0
        if not used.all():
            class_of = (np.cumsum(used) - 1)[class_of]
            cpu, mem, slowdown = cpu[used], mem[used], slowdown[used]
            k = len(cpu)
        class_of = class_of.astype(np.min_scalar_type(k - 1), copy=False)
        # Validated per class; an error names the class's first server.
        bad = ~(np.isfinite(cpu) & np.isfinite(mem) & (cpu > 0) & (mem > 0))
        if bad.any():
            i = int(bad[class_of].argmax())
            c = class_of[i]
            raise ValueError(
                f"server {i}: capacity must be positive, got ({cpu[c]:g}, {mem[c]:g})"
            )
        bad = ~(np.isfinite(slowdown) & (slowdown > 0))
        if bad.any():
            i = int(bad[class_of].argmax())
            raise ValueError(
                f"server {i}: slowdown must be positive, got {slowdown[class_of[i]]:g}"
            )
        self.topology = topology if topology is not None else Topology.single_rack(n)
        if len(self.topology) != n:
            raise ValueError("topology size does not match server count")
        self.mirror = mirror = AvailabilityMirror(cpu, mem, slowdown, class_of)
        # Strict left folds in id order, the last prefix of an
        # accumulate: np.sum sums pairwise and Python 3.12's sum()
        # compensates, so either can differ in the last ulp.  A new
        # cluster is idle and up, so its availability is its capacity.
        self._total_capacity = Resources(
            np.add.accumulate(mirror.avail_cpu).item(-1),
            np.add.accumulate(mirror.avail_mem).item(-1),
        )
        self._peak_alignment: float | None = None
        #: Pre-bound placement-query counter, installed by
        #: Observability.bind_cluster; None keeps the disabled query
        #: path at one attribute load + branch.
        self._obs_placement = None

    @staticmethod
    def build(
        specs: Iterable[tuple[Resources, float]],
        topology: Topology | None = None,
    ) -> "Cluster":
        """Build a cluster from ``(capacity, slowdown)`` specs, server
        ``i`` from the ``i``-th spec."""
        specs = list(specs)
        return Cluster(
            [cap.cpu for cap, _ in specs],
            [cap.mem for cap, _ in specs],
            [slow for _, slow in specs],
            topology,
        )

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

    @property
    def peak_alignment(self) -> float:
        """``max_i (C_i² + M_i²)`` — the largest alignment score a
        server's full capacity gives (Tetris' normalizer), taken over
        the classes, each of which has a server.  Capacities never
        change, so it is computed once."""
        if self._peak_alignment is None:
            m = self.mirror
            self._peak_alignment = float(
                np.max(m.class_cpu * m.class_cpu + m.class_mem * m.class_mem)
            )
        return self._peak_alignment

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.mirror)

    def __iter__(self) -> Iterator[Server]:
        mirror = self.mirror
        return (Server(mirror, i) for i in range(len(mirror)))

    def __getitem__(self, server_id: int) -> Server:
        i = operator.index(server_id)
        n = len(self.mirror)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"server {server_id} out of range for {n} servers")
        return Server(self.mirror, i)

    def can_host(self, demand: Resources) -> bool:
        """Whether some server's full capacity fits ``demand`` —
        :meth:`Resources.fits_in`'s exact expression, EPS included, over
        the classes."""
        m = self.mirror
        return bool(
            np.any((m.class_cpu + EPS >= demand.cpu) & (m.class_mem + EPS >= demand.mem))
        )

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
        return None if hit is None else Server(self.mirror, hit[0])

    def num_up(self) -> int:
        """Servers currently in service (all of them absent fault injection)."""
        return self.mirror.num_up()

    def running_copy_count(self) -> int:
        return sum(map(len, self.mirror.resident.values()))
