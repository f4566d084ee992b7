"""Per-server state of a cluster as a structure of NumPy arrays.

The mirror is the one record of every server's state: there is no
per-server Python object at rest (``Cluster[i]`` builds a
:class:`~repro.cluster.server.Server` view on demand).  The placement
hot path — ``Cluster.best_fit_server`` and the batched fill loops in
:mod:`repro.schedulers.packing` — scores a demand against every server's
remaining capacity with a handful of vectorized kernels over these
arrays; at the paper's 30K-server scale (Sec. 6.3.3) a Python loop over
server objects would dominate the scheduling overhead.

Data layout.  Per server (arrays indexed by ``server_id``):

* ``class_of`` — the server's class, an index into the class tables in
  the smallest unsigned dtype that holds it;
* ``alloc_cpu`` / ``alloc_mem`` — the current allocation, written in
  place by :meth:`AvailabilityMirror.allocate` / :meth:`release`;
* ``avail_cpu`` / ``avail_mem`` — availability, *derived* from the
  allocation: ``max(cap - alloc, 0.0)`` per dimension while up, exactly
  ``0.0`` while down;
* ``up`` — boolean liveness mask (fault injection): down servers are
  masked out of every feasibility query.

Per class (a cluster is a few server classes, Secs. 6.1 and 6.3; every
class in the tables has at least one server):

* ``class_cpu`` / ``class_mem`` — immutable capacities (C_i, M_i), the
  bounds Eq. (5) checks allocations against;
* ``class_slowdown`` — the nominal task-duration multiplier.

Sparse:

* ``brownout`` — ``{server_id: slowdown}`` for the servers inside a
  transient slowdown window (the fault injector's brownouts), which
  override their class's nominal slowdown until the window closes;
* ``resident`` — ``{server_id: list of TaskCopy}`` in launch order for
  the servers that host at least one copy (most servers of a large
  cluster never do, so they pay for no list at all).

That is 34 bytes a server (1 + 16 + 16 + 1) for up to 256 classes.

Invariants:

* Allocation adds and clamps in a fixed order and the last release of a
  server snaps it to exactly ``0.0``; :meth:`update` then re-derives the
  server's availability.  Every availability entry therefore equals its
  derivation bit for bit (``tests/cluster/test_mirror_property.py``
  checks this after arbitrary allocate/kill/finish sequences; the
  sanitizer after every event).
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

from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.resources import EPS, Resources

if TYPE_CHECKING:  # pragma: no cover
    from repro.workload.task import TaskCopy

__all__ = ["AvailabilityMirror", "BLOCK_SIZE"]

#: Servers per block of the placement index (DESIGN.md §5.10).  Block k
#: covers ids ``[k*BLOCK_SIZE, min((k+1)*BLOCK_SIZE, M))``.  Chosen by a
#: benchmark sweep; any value >= 1 gives bit-identical placements.
BLOCK_SIZE = 4096

#: Slots rebuilt on restore rather than pickled: availability is derived
#: from the allocation, the block size comes from the module constant
#: and the bounds are re-tightened from the derived arrays.
_DERIVED_SLOTS = frozenset({"avail_cpu", "avail_mem", "_block", "_ub_cpu", "_ub_mem"})


class AvailabilityMirror:
    """The SoA record of a cluster's per-server state.

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
        "up",
        "class_of",
        "class_cpu",
        "class_mem",
        "class_slowdown",
        "brownout",
        "resident",
        "_coalescing",
        "_pending",
        "_alloc_cache",
        "_block",
        "_ub_cpu",
        "_ub_mem",
    )

    def __init__(
        self,
        class_cpu: np.ndarray,
        class_mem: np.ndarray,
        class_slowdown: np.ndarray,
        class_of: np.ndarray,
    ) -> None:
        """Every server up and idle, server ``i`` of class
        ``class_of[i]``; the caller validated the inputs and gave every
        class a server."""
        self.class_cpu = np.array(class_cpu, dtype=np.float64)
        self.class_mem = np.array(class_mem, dtype=np.float64)
        self.class_slowdown = np.array(class_slowdown, dtype=np.float64)
        self.class_of = class_of
        m = len(class_of)
        self.alloc_cpu = np.zeros(m, np.float64)
        self.alloc_mem = np.zeros(m, np.float64)
        #: Liveness mask (fault injection): down servers are excluded
        #: from every feasibility mask and advertise zero availability.
        self.up = np.ones(m, dtype=bool)
        self.brownout: dict[int, float] = {}
        self.resident: dict[int, list["TaskCopy"]] = {}
        # Coalesced-update window (batched event drains): while open,
        # ``update`` parks the server id in ``_pending`` instead of
        # deriving immediately; ``flush`` derives each parked server
        # once from its *current* allocation.  A derivation reads the
        # present state, not a delta, so deferring N updates of one
        # server to a single derivation is exact.
        self._coalescing = False
        self._pending: set[int] = set()
        # Memoized (cpu, mem) allocation totals, invalidated by any
        # update: the engine reads them once per accounting window, and
        # windows bounded by events that move no capacity (bare ticks)
        # reuse the previous reduction.  The cached floats are the exact
        # ``np.sum`` outputs — identical arrays give identical sums, so
        # memoization cannot perturb the utilization integrals.
        self._alloc_cache: tuple[float, float] | None = None
        # Idle and up, a server's availability is its capacity: max(cap -
        # 0.0, 0.0) is cap for every positive finite cap, bit for bit.
        self.avail_cpu, self.avail_mem = self.capacity_columns()
        self._block = BLOCK_SIZE
        self._retighten_bounds()

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def capacity_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Every server's (cpu, mem) capacity, gathered from the class
        tables into two new arrays."""
        return self.class_cpu[self.class_of], self.class_mem[self.class_of]

    def derived_availability(self) -> tuple[np.ndarray, np.ndarray]:
        """Every server's availability derived from its allocation,
        capacity and up flag — what ``avail_cpu``/``avail_mem`` must
        equal bit for bit (vectorized IEEE ops round exactly like the
        scalar derivation in :meth:`update`)."""
        cap_cpu, cap_mem = self.capacity_columns()
        return (
            np.where(self.up, np.maximum(cap_cpu - self.alloc_cpu, 0.0), 0.0),
            np.where(self.up, np.maximum(cap_mem - self.alloc_mem, 0.0), 0.0),
        )

    def _derive_all(self) -> None:
        """Derive every availability entry and tighten every block bound.

        The same IEEE operations as :meth:`derived_availability`, done
        in place on the gathered capacities: one array per column and
        no temporaries but the down mask."""
        down = ~self.up
        self.avail_cpu, self.avail_mem = self.capacity_columns()
        for avail, alloc in ((self.avail_cpu, self.alloc_cpu), (self.avail_mem, self.alloc_mem)):
            np.subtract(avail, alloc, out=avail)
            np.maximum(avail, 0.0, out=avail)
            avail[down] = 0.0
        self._block = BLOCK_SIZE
        self._retighten_bounds()

    def num_blocks(self) -> int:
        return -(-len(self) // self._block)

    def _retighten_bounds(self) -> None:
        """Recompute every block's availability bound exactly."""
        starts = np.arange(0, len(self), self._block)
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

    def update(self, i: int) -> None:
        """Store server ``i``'s availability, derived from its allocation,
        capacity and up flag, and fold it into its block bound.

        Called by every in-place state change (allocate, release,
        mark_down, mark_up) — O(1), two scalar stores (or one set insert
        inside a coalesce window).
        """
        if self._coalescing:
            self._pending.add(i)
            return
        self._alloc_cache = None
        self._derive(i)

    def _derive(self, i: int) -> None:
        if self.up[i]:
            c = self.class_of.item(i)
            a_cpu = max(self.class_cpu.item(c) - self.alloc_cpu.item(i), 0.0)
            a_mem = max(self.class_mem.item(c) - self.alloc_mem.item(i), 0.0)
        else:
            a_cpu = a_mem = 0.0
        self.avail_cpu[i] = a_cpu
        self.avail_mem[i] = a_mem
        # Stale-high bound: only growth (releases/recoveries) must be
        # folded in immediately; shrink is tolerated until the next full
        # block evaluation tightens the bound.
        k = i // self._block
        if a_cpu > self._ub_cpu[k]:
            self._ub_cpu[k] = a_cpu
        if a_mem > self._ub_mem[k]:
            self._ub_mem[k] = a_mem

    def begin_coalesce(self) -> None:
        """Open a deferred-update window: ``update`` calls park servers
        until :meth:`end_coalesce`/:meth:`flush`.  The engine brackets
        same-instant multi-release loops (first-copy-wins kills, server-
        crash victim sweeps) with this so a server touched k times gets
        one derivation.  Every read flushes first, so reads inside a
        window stay exact."""
        self._coalescing = True

    def end_coalesce(self) -> None:
        """Close the window and apply every deferred update."""
        self._coalescing = False
        if self._pending:
            self.flush()

    def flush(self) -> None:
        """Derive every parked server now (window state is unchanged)."""
        pending = self._pending
        if not pending:
            return
        self._alloc_cache = None
        for i in pending:
            self._derive(i)
        pending.clear()

    # ------------------------------------------------------------------
    # In-place state changes (the only writers of the arrays)
    # ------------------------------------------------------------------
    def allocate(self, i: int, copy: "TaskCopy") -> None:
        """Reserve ``copy``'s demand on server ``i``; raises if the
        server is down, the demand does not fit (Eq. 5), or the copy is
        already resident."""
        if not self.up[i]:
            raise RuntimeError(f"server {i}: down, cannot allocate")
        if self._pending:
            self.flush()
        demand = copy.task.demand
        if not (
            demand.cpu <= self.avail_cpu.item(i) + EPS
            and demand.mem <= self.avail_mem.item(i) + EPS
        ):
            raise RuntimeError(f"server {i}: cannot fit {demand} in {self.available(i)}")
        running = self.resident.get(i)
        if running is None:
            self.resident[i] = [copy]
        elif copy in running:
            raise RuntimeError(f"server {i}: copy {copy} already running")
        else:
            running.append(copy)
        self.alloc_cpu[i] = self.alloc_cpu.item(i) + demand.cpu
        self.alloc_mem[i] = self.alloc_mem.item(i) + demand.mem
        self.update(i)

    def release(self, i: int, copy: "TaskCopy") -> None:
        """Free the demand of a finished or killed copy on server ``i``."""
        running = self.resident.get(i)
        if running is None or copy not in running:
            raise RuntimeError(f"server {i}: copy {copy} not running here")
        running.remove(copy)
        if running:
            demand = copy.task.demand
            self.alloc_cpu[i] = max(self.alloc_cpu.item(i) - demand.cpu, 0.0)
            self.alloc_mem[i] = max(self.alloc_mem.item(i) - demand.mem, 0.0)
        else:
            del self.resident[i]
            # Snap accumulated float error back to exactly zero when idle.
            self.alloc_cpu[i] = 0.0
            self.alloc_mem[i] = 0.0
        self.update(i)

    def mark_down(self, i: int) -> None:
        """Take server ``i`` out of service.  The caller (the engine's
        ``Fail`` applier) must have released every resident copy first,
        so the allocation is already exactly zero."""
        if not self.up[i]:
            raise RuntimeError(f"server {i}: already down")
        running = self.resident.get(i)
        if running:
            raise RuntimeError(
                f"server {i}: cannot go down with {len(running)} resident copies"
            )
        self.up[i] = False
        self.update(i)

    def mark_up(self, i: int) -> None:
        """Return server ``i`` to service.  Its allocation is exactly
        zero while down, so availability re-derives to the capacity
        floats bit for bit."""
        if self.up[i]:
            raise RuntimeError(f"server {i}: already up")
        self.up[i] = True
        self.update(i)

    def set_slowdown(self, i: int, slowdown: float) -> None:
        """Open server ``i``'s brownout entry: copies launched there from
        now on run ``slowdown`` times their sampled duration (the fault
        injector's transient slowdown windows)."""
        self.brownout[i] = slowdown

    def clear_slowdown(self, i: int) -> None:
        """Close server ``i``'s brownout entry, if open: its class's
        nominal slowdown applies again, exactly."""
        self.brownout.pop(i, None)

    # ------------------------------------------------------------------
    # One server's state
    # ------------------------------------------------------------------
    def capacity(self, i: int) -> Resources:
        c = self.class_of.item(i)
        return Resources(self.class_cpu.item(c), self.class_mem.item(c))

    def slowdown_of(self, i: int) -> float:
        """Server ``i``'s duration multiplier: its brownout entry while a
        window is open, else its class's nominal slowdown."""
        slowdown = self.brownout.get(i)
        if slowdown is None:
            slowdown = self.class_slowdown.item(self.class_of.item(i))
        return slowdown

    def allocated(self, i: int) -> Resources:
        return Resources(self.alloc_cpu.item(i), self.alloc_mem.item(i))

    def available(self, i: int) -> Resources:
        if self._pending:
            self.flush()
        return Resources(self.avail_cpu.item(i), self.avail_mem.item(i))

    def can_fit(self, i: int, demand: Resources) -> bool:
        """Whether server ``i`` is up and ``demand`` fits its availability
        — :meth:`Resources.fits_in`'s exact expression."""
        if not self.up[i]:
            return False
        if self._pending:
            self.flush()
        return (
            demand.cpu <= self.avail_cpu.item(i) + EPS
            and demand.mem <= self.avail_mem.item(i) + EPS
        )

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def num_up(self) -> int:
        """Servers currently in service (O(M) reduction on the mask)."""
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
        m = len(self)
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
        a_cpu = self.avail_cpu.item(server_id)
        a_mem = self.avail_mem.item(server_id)
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
        return len(self.class_of)

    # ------------------------------------------------------------------
    # Pickling (checkpoint/restore)
    # ------------------------------------------------------------------
    def __getstate__(self):
        # __slots__ classes pickle as (None, {slot: value}); derived
        # state stays out of checkpoints.  The class tables, class index
        # and brownout entries pickle as they are; the allocation columns
        # as their entries other than +0.0 (a 30K-server cluster has a
        # few thousand busy servers) and an all-up mask as its length.
        state = {
            name: getattr(self, name)
            for name in self.__slots__
            if name not in _DERIVED_SLOTS
        }
        for name in _SPARSE_COLUMNS:
            state[name] = _pack_sparse(state[name])
        if self.up.all():
            state["up"] = len(self.up)
        return None, state

    def __setstate__(self, state) -> None:
        _, slots = state
        for name in _SPARSE_COLUMNS:
            n, index, values = slots[name]
            column = np.zeros(n, np.float64)
            column[index] = values
            slots[name] = column
        if isinstance(slots["up"], int):
            slots["up"] = np.ones(slots["up"], dtype=bool)
        for name, value in slots.items():
            setattr(self, name, value)
        self._derive_all()


#: Columns that are zero on idle servers, pickled as (length, index, values).
_SPARSE_COLUMNS = ("alloc_cpu", "alloc_mem")


def _pack_sparse(column: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """The column's length and its entries other than +0.0, with their
    indices.  Selecting on the sign bit too keeps a -0.0, and every
    other entry (a float residue included) is copied as it is."""
    index = np.flatnonzero((column != 0) | np.signbit(column))
    return (
        len(column),
        index.astype(np.min_scalar_type(max(len(column) - 1, 0))),
        column[index],
    )
