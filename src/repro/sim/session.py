"""Long-lived session driver: step loop + periodic side effects.

:class:`SimulationSession` wraps a :class:`~repro.sim.engine.
SimulationEngine` with the cadenced side effects a service needs —
periodic checkpoints and live metrics publication — while leaving the
simulation semantics entirely to the engine.  Cadences are measured in
**simulated** seconds, so the side-effect schedule is deterministic:
two runs of the same seed checkpoint at the same instants, and a
restored run re-publishes from the same boundaries.

The driver is also what the `python -m repro serve` loop and the
identity gate's streamed leg share; tests drive it directly with in-memory
arrival sources.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.sim.checkpoint import save_checkpoint
from repro.sim.metrics import SimulationResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import SimulationEngine

__all__ = ["SimulationSession"]


class SimulationSession:
    """Drives an engine to completion with periodic checkpoint/metrics.

    Parameters
    ----------
    engine:
        The session engine (any arrival source).
    checkpoint_path / checkpoint_every:
        When both set, :func:`~repro.sim.checkpoint.save_checkpoint`
        overwrites ``checkpoint_path`` (atomically) each time simulated
        time crosses a multiple of ``checkpoint_every`` seconds.
    on_metrics / metrics_every:
        ``on_metrics(engine)`` is called on the same kind of simulated
        cadence — publishers live in :mod:`repro.observability.live`.
        With ``metrics_every=0`` it is called once per processed
        instant (every step).
    """

    def __init__(
        self,
        engine: "SimulationEngine",
        *,
        checkpoint_path: str | Path | None = None,
        checkpoint_every: float = 0.0,
        on_metrics: Callable[["SimulationEngine"], None] | None = None,
        metrics_every: float = 0.0,
    ) -> None:
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")
        if metrics_every < 0:
            raise ValueError("metrics_every must be non-negative")
        self.engine = engine
        self.checkpoint_path = Path(checkpoint_path) if checkpoint_path else None
        self.checkpoint_every = checkpoint_every
        self.on_metrics = on_metrics
        self.metrics_every = metrics_every
        self.checkpoints_written = 0
        # Cadence grids are kept as *integer boundary indices* into the
        # multiplicative grid {k·every}: the float boundary is always
        # recomputed as k*every, never accumulated with +=, so a session
        # revived at any instant lands on bit-identical boundaries (an
        # accumulated grid drifts ulps away from the restore grid and
        # double-fires or skips a cadence point).
        self._ckpt_k = self._first_index(checkpoint_every)
        self._metrics_k = self._first_index(metrics_every)

    def _first_index(self, every: float) -> int:
        """Smallest k with ``k*every`` strictly after the engine clock.

        ``int(now // every) + 1`` alone is not strictly-after in float
        arithmetic: the product can round back onto the clock (e.g.
        ``50 * 0.1 == 5.0`` with ``now == 5.0``), which made a cadence
        point coinciding with an event time fire twice.  The correction
        loop (at most a step or two) restores the strict inequality.
        """
        if every <= 0:
            return 0
        now = self.engine.now
        k = int(now // every) + 1
        while k * every <= now:
            k += 1
        return k

    @property
    def _next_checkpoint(self) -> float:
        """Next checkpoint boundary (inf when cadence disabled)."""
        if self.checkpoint_every <= 0:
            return float("inf")
        return self._ckpt_k * self.checkpoint_every

    @property
    def _next_metrics(self) -> float:
        if self.metrics_every <= 0:
            return float("inf")
        return self._metrics_k * self.metrics_every

    # ------------------------------------------------------------------
    def _after_step(self) -> None:
        now = self.engine.now
        if self.checkpoint_path is not None and self.checkpoint_every > 0:
            if now >= self._ckpt_k * self.checkpoint_every:
                save_checkpoint(self.engine, self.checkpoint_path)
                self.checkpoints_written += 1
                while self._ckpt_k * self.checkpoint_every <= now:
                    self._ckpt_k += 1
        if self.on_metrics is not None:
            if self.metrics_every <= 0 or now >= self._metrics_k * self.metrics_every:
                self.on_metrics(self.engine)
                if self.metrics_every > 0:
                    while self._metrics_k * self.metrics_every <= now:
                        self._metrics_k += 1

    def pump(self) -> int:
        """Step the engine until no runnable event remains, applying the
        cadenced side effects after each instant; returns instants run.

        With a pull arrival source the engine blocks inside arrival
        processing while waiting for the next job, so one ``pump`` call
        rides out an unbounded stream; it returns at end-of-stream once
        the queued work drains (or immediately for an idle session).
        """
        engine = self.engine
        engine.start()
        instants = 0
        while engine.step():
            instants += 1
            self._after_step()
        return instants

    def run(self) -> SimulationResult:
        """Pump to completion and finalize; writes a final checkpoint
        (when configured) and a final metrics publication so consumers
        always observe the end-of-run state."""
        self.pump()
        if self.checkpoint_path is not None:
            save_checkpoint(self.engine, self.checkpoint_path)
            self.checkpoints_written += 1
        result = self.engine.finalize()
        if self.on_metrics is not None:
            self.on_metrics(self.engine)
        return result
