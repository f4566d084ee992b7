"""Structure-of-arrays NumPy mirror of per-server availability.

The placement hot path — ``Cluster.best_fit_server`` and the batched
fill loops in :mod:`repro.schedulers.packing` — scores a demand against
every server's remaining capacity.  Doing that with a Python loop over
:class:`~repro.cluster.server.Server` objects costs O(M) attribute
lookups and method calls per query; at the paper's 30K-server scale
(Sec. 6.3.3) that dominates the scheduling overhead.  The mirror keeps
the same information as four flat ``float64`` arrays so every query
becomes a handful of vectorized kernels.

Data layout (all arrays indexed by ``server_id``):

* ``avail_cpu`` / ``avail_mem`` — the server's current availability,
  exactly the floats stored in ``Server._available``;
* ``alloc_cpu`` / ``alloc_mem`` — the server's current allocation,
  exactly the floats stored in ``Server._allocated``;
* ``cap_cpu`` / ``cap_mem`` — immutable capacities;
* ``up`` — boolean liveness mask (fault injection): down servers are
  masked out of every feasibility query.

Invariants:

* The arrays are updated *incrementally*: every ``Server.allocate`` /
  ``Server.release`` pushes that one server's new values through
  :meth:`AvailabilityMirror.update`, so the mirror always equals a fresh
  per-server recompute (``tests/cluster/test_mirror_property.py`` checks
  this after arbitrary allocate/kill/finish sequences).
* Scores are computed with the same floating-point expression and
  operation order as the per-server reference loop in
  ``tests/reference.py`` (``demand.cpu * avail.cpu + demand.mem *
  avail.mem``, then an optional per-server weight), so the two produce
  bit-identical scores.
* Ties break to the **lowest server id**: ``np.argmax`` returns the
  first maximal index, matching the reference loop's strict ``>``.
* The feasibility mask evaluates ``avail + EPS >= demand`` — the exact
  expression of :meth:`repro.resources.Resources.fits_in` (``demand <=
  avail + EPS``) with identical rounding.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.resources import EPS, Resources

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.server import Server

__all__ = ["AvailabilityMirror", "BLOCK_SIZE"]

#: Servers per block of the placement index (DESIGN.md §5.10).  Block k
#: covers ids ``[k*BLOCK_SIZE, min((k+1)*BLOCK_SIZE, M))``.  Chosen by a
#: benchmark sweep; any value >= 1 gives bit-identical placements.
BLOCK_SIZE = 4096

#: Slots rebuilt on restore rather than pickled: the block size comes
#: from the module constant, the bounds are re-tightened from the arrays.
_INDEX_SLOTS = frozenset({"_block", "_ub_cpu", "_ub_mem"})


class AvailabilityMirror:
    """Incrementally-maintained SoA view of a cluster's availability.

    Block-bound placement index (DESIGN.md §5.10): the arrays split into
    contiguous blocks of ``BLOCK_SIZE`` servers, each with a *stale-high*
    availability bound — an upper bound on every member's ``avail``,
    kept valid for free because allocation only shrinks availability
    (releases and recoveries max-update the bound; a full block
    evaluation tightens it exactly).  :meth:`scan_blocks` scans blocks in
    ascending id order and skips any block whose bound proves it cannot
    beat the current best, which preserves bitwise identity: max/argmax
    combines are compare-only (regrouping-safe), ties already resolve to
    the lowest server id, and the accounting sums below deliberately
    stay full-array reductions (``np.sum`` is *not* regrouping-safe, so
    per-block partial sums would drift in ulps).
    """

    __slots__ = (
        "avail_cpu",
        "avail_mem",
        "alloc_cpu",
        "alloc_mem",
        "cap_cpu",
        "cap_mem",
        "up",
        "_coalescing",
        "_pending",
        "_alloc_cache",
        "_block",
        "_ub_cpu",
        "_ub_mem",
    )

    def __init__(self, servers: Sequence["Server"]) -> None:
        m = len(servers)
        # Coalesced-update window (batched event drains): while open,
        # ``update`` calls park the server in ``_pending`` instead of
        # storing immediately; ``flush`` replays each parked server's
        # *current* state once.  ``update`` is idempotent (it pushes the
        # server's present floats, not a delta), so deferring N updates
        # of one server to a single store is exact.
        self._coalescing = False
        self._pending: dict[int, "Server"] = {}
        # Memoized (cpu, mem) allocation totals, invalidated by any
        # update: the engine reads them once per accounting window, and
        # windows bounded by events that move no capacity (bare ticks)
        # reuse the previous reduction.  The cached floats are the exact
        # ``np.sum`` outputs — identical arrays give identical sums, so
        # memoization cannot perturb the utilization integrals.
        self._alloc_cache: tuple[float, float] | None = None
        self.cap_cpu = np.fromiter((s.capacity.cpu for s in servers), np.float64, m)
        self.cap_mem = np.fromiter((s.capacity.mem for s in servers), np.float64, m)
        self.avail_cpu = np.empty(m, np.float64)
        self.avail_mem = np.empty(m, np.float64)
        self.alloc_cpu = np.empty(m, np.float64)
        self.alloc_mem = np.empty(m, np.float64)
        #: Liveness mask (fault injection): down servers are excluded
        #: from every feasibility mask regardless of their availability
        #: floats, matching ``Server.can_fit``'s up-check exactly.
        self.up = np.empty(m, dtype=bool)
        # Every bound starts at -inf; refresh's per-server updates then
        # max-fold each block up to its exact maximum.
        self._block = BLOCK_SIZE
        self._ub_cpu = [-np.inf] * self.num_blocks()
        self._ub_mem = [-np.inf] * self.num_blocks()
        self.refresh(servers)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def refresh(self, servers: Sequence["Server"]) -> None:
        """Rebuild every entry from the servers (O(M); used at
        construction and as the reference point of the property tests)."""
        for s in servers:
            self.update(s)

    def num_blocks(self) -> int:
        return -(-len(self.cap_cpu) // self._block)

    def _retighten_bounds(self) -> None:
        """Recompute every block's availability bound exactly."""
        starts = np.arange(0, len(self.cap_cpu), self._block)
        if not len(starts):
            self._ub_cpu, self._ub_mem = [], []
            return
        self._ub_cpu = np.maximum.reduceat(self.avail_cpu, starts).tolist()
        self._ub_mem = np.maximum.reduceat(self.avail_mem, starts).tolist()

    def loose_bounds(self) -> list[int]:
        """Blocks whose bound is *below* a member's availability — always
        empty unless the index is broken (the sanitizer's check).  Read-
        only: parked updates are in neither the arrays nor the bounds."""
        block = self._block
        return [
            k
            for k, (bc, bm) in enumerate(zip(self._ub_cpu, self._ub_mem))
            if bc < self.avail_cpu[k * block : (k + 1) * block].max()
            or bm < self.avail_mem[k * block : (k + 1) * block].max()
        ]

    def update(self, server: "Server") -> None:
        """Push one server's availability/allocation into the arrays.

        Called by ``Server.allocate``/``Server.release`` after every
        bookkeeping change — O(1), four scalar stores (or one pending-
        dict store inside a coalesce window).
        """
        if self._coalescing:
            self._pending[server.server_id] = server
            return
        self._alloc_cache = None
        i = server.server_id
        avail = server.available
        alloc = server.allocated
        self.avail_cpu[i] = avail.cpu
        self.avail_mem[i] = avail.mem
        self.alloc_cpu[i] = alloc.cpu
        self.alloc_mem[i] = alloc.mem
        self.up[i] = server.up
        # Stale-high bound: only growth (releases/recoveries) must be
        # folded in immediately; shrink is tolerated until the next full
        # block evaluation tightens the bound.
        k = i // self._block
        if avail.cpu > self._ub_cpu[k]:
            self._ub_cpu[k] = avail.cpu
        if avail.mem > self._ub_mem[k]:
            self._ub_mem[k] = avail.mem

    def begin_coalesce(self) -> None:
        """Open a deferred-update window: ``update`` calls park servers
        until :meth:`end_coalesce`/:meth:`flush`.  The engine brackets
        same-instant multi-release loops (first-copy-wins kills, server-
        crash victim sweeps) with this so a server touched k times gets
        one store.  Every read kernel flushes first, so reads inside a
        window stay exact."""
        self._coalescing = True

    def end_coalesce(self) -> None:
        """Close the window and apply every deferred update."""
        self._coalescing = False
        if self._pending:
            self.flush()

    def flush(self) -> None:
        """Apply deferred updates now (window state is unchanged)."""
        pending = self._pending
        if not pending:
            return
        self._alloc_cache = None
        avail_cpu, avail_mem = self.avail_cpu, self.avail_mem
        alloc_cpu, alloc_mem = self.alloc_cpu, self.alloc_mem
        up = self.up
        block = self._block
        ub_cpu, ub_mem = self._ub_cpu, self._ub_mem
        for i, server in pending.items():
            avail = server.available
            alloc = server.allocated
            avail_cpu[i] = avail.cpu
            avail_mem[i] = avail.mem
            alloc_cpu[i] = alloc.cpu
            alloc_mem[i] = alloc.mem
            up[i] = server.up
            k = i // block
            if avail.cpu > ub_cpu[k]:
                ub_cpu[k] = avail.cpu
            if avail.mem > ub_mem[k]:
                ub_mem[k] = avail.mem
        pending.clear()

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def num_up(self) -> int:
        """Servers currently in service (O(M) reduction on the mask)."""
        if self._pending:
            self.flush()
        return int(self.up.sum())

    def best_fit(
        self, demand: Resources, weights: np.ndarray | None = None
    ) -> tuple[int, float] | None:
        """(server_id, score) maximizing the demand·availability inner
        product among fitting servers, or ``None`` when nothing fits.

        ``weights`` optionally scales each server's score (the
        straggler-avoidance hook).  Equal scores resolve to the lowest
        server id.
        """
        blocks = self.new_blocks(weights)
        idx, score = self.scan_blocks(demand.cpu, demand.mem, blocks, weights)
        return None if idx < 0 else (idx, score)

    def _index(
        self, weights: np.ndarray | None
    ) -> tuple[int, list[float], list[float]]:
        """(block size, cpu bounds, mem bounds) a query scans: the
        placement index, or for weighted scores — a weight can raise a
        score above ``d·bound`` — one cluster-wide block whose bounds
        never bind."""
        if weights is None:
            return self._block, self._ub_cpu, self._ub_mem
        m = len(self.cap_cpu)
        return max(m, 1), [np.inf] * min(m, 1), [np.inf] * min(m, 1)

    def new_blocks(self, weights: np.ndarray | None = None) -> list:
        """An empty per-block score cache for :meth:`scan_blocks`."""
        return [None] * len(self._index(weights)[1])

    def scan_blocks(
        self,
        d_cpu: float,
        d_mem: float,
        blocks: list,
        weights: np.ndarray | None = None,
    ) -> tuple[int, float]:
        """(server_id, score) of the best fit for one demand, or ``(-1,
        -inf)`` when nothing fits — the one best-fit kernel behind
        :meth:`best_fit`, the task fill and the clone-fill cache.

        ``blocks`` (from :meth:`new_blocks`) caches, per block, ``None``
        (not yet scored) or ``[scores, local argmax | -1]``: the block's
        ``d·avail`` scores (× weight), -inf where the demand does not
        fit.  Callers that keep ``blocks`` across launches must refresh
        the launched server through :meth:`rescore_column`.

        Blocks scan ascending; a block is skipped when its availability
        bound proves no member fits, or no member's score can exceed the
        current best (float multiplication and addition are weakly
        monotone, so ``d·bound`` dominates every member's ``d·avail`` in
        IEEE arithmetic too).  The equality skip (``<=``) is exact
        because an equal later-block score would lose the lowest-id
        tie-break anyway.  Scoring a block tightens its bound.
        """
        if self._pending:
            self.flush()
        avail_cpu, avail_mem, up = self.avail_cpu, self.avail_mem, self.up
        m = len(avail_cpu)
        block, ub_cpu, ub_mem = self._index(weights)
        best_id, best_score = -1, -np.inf
        for k, entry in enumerate(blocks):
            bc, bm = ub_cpu[k], ub_mem[k]
            if bc + EPS < d_cpu or bm + EPS < d_mem:
                continue
            if best_id >= 0 and d_cpu * bc + d_mem * bm <= best_score:
                continue
            lo = k * block
            if entry is None:
                hi = min(lo + block, m)
                a_c = avail_cpu[lo:hi]
                a_m = avail_mem[lo:hi]
                ub_cpu[k] = float(a_c.max())
                ub_mem[k] = float(a_m.max())
                row = d_cpu * a_c + d_mem * a_m
                if weights is not None:
                    row *= weights
                row[~(up[lo:hi] & (a_c + EPS >= d_cpu) & (a_m + EPS >= d_mem))] = -np.inf
                entry = [row, -1]
                blocks[k] = entry
            row, j = entry
            if j < 0:  # new, or stale since its argmax column shrank
                j = int(row.argmax())
                entry[1] = j
            s = float(row[j])
            if s > best_score:
                best_id, best_score = lo + j, s
        return best_id, best_score

    def rescore_column(
        self,
        server_id: int,
        rows: Iterable[tuple[float, float, list]],
        weights: np.ndarray | None = None,
    ) -> None:
        """Refresh ``server_id``'s score in every scored block of
        ``rows`` — ``(d_cpu, d_mem, blocks)`` triples — after a launch
        shrank its availability.

        The column refresh evaluates the same IEEE expressions the block
        build does, one server at a time.  A shrunk non-argmax column can
        neither overtake the cached argmax nor create a new first-index
        tie (an equal column left of it would already be the argmax), so
        only blocks whose argmax *is* this column go stale; they are
        marked (-1) and re-resolved lazily by :meth:`scan_blocks`, so
        rows never queried again skip the scan.  Unscored blocks read
        fresh state whenever they are first scored.
        """
        if self._pending:
            self.flush()
        k, col = divmod(server_id, self._index(weights)[0])
        a_cpu = float(self.avail_cpu[server_id])
        a_mem = float(self.avail_mem[server_id])
        s_up = bool(self.up[server_id])
        w = None if weights is None else weights[server_id]
        for d_cpu, d_mem, blocks in rows:
            entry = blocks[k]
            if entry is None:
                continue
            row = entry[0]
            if s_up and a_cpu + EPS >= d_cpu and a_mem + EPS >= d_mem:
                score = d_cpu * a_cpu + d_mem * a_mem
                row[col] = score if w is None else score * w
            else:
                row[col] = -np.inf
            if entry[1] == col:
                entry[1] = -1

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def total_available(self) -> Resources:
        if self._pending:
            self.flush()
        return Resources(float(self.avail_cpu.sum()), float(self.avail_mem.sum()))

    def total_allocated(self) -> Resources:
        return Resources(*self.total_allocated_components())

    def total_allocated_components(self) -> tuple[float, float]:
        """(cpu, mem) allocation totals without a Resources allocation —
        the simulation engine's per-event accounting fast path."""
        if self._pending:
            self.flush()
        cached = self._alloc_cache
        if cached is None:
            cached = float(self.alloc_cpu.sum()), float(self.alloc_mem.sum())
            self._alloc_cache = cached
        return cached

    def __len__(self) -> int:
        return len(self.cap_cpu)

    # ------------------------------------------------------------------
    # Pickling (checkpoint/restore)
    # ------------------------------------------------------------------
    def __getstate__(self):
        # __slots__ classes pickle as (None, {slot: value}); the index is
        # derived state and stays out of checkpoints.
        return None, {
            name: getattr(self, name)
            for name in self.__slots__
            if name not in _INDEX_SLOTS
        }

    def __setstate__(self, state) -> None:
        # Checkpoints written by older builds also carry index slots
        # (``_shard_slices``, ``_shard_of``, ``_ub_*``): everything not a
        # persisted slot is dropped and the index rebuilt exactly.
        _, slots = state
        for name in self.__slots__:
            if name not in _INDEX_SLOTS:
                setattr(self, name, slots[name])
        self._block = BLOCK_SIZE
        self._retighten_bounds()
