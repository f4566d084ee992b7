"""The deterministic fault injector (DESIGN.md §5.5).

:class:`FaultInjector` owns the *scheduling* of fault events — when a
server crashes, recovers, slows down, or a copy dies — while the engine
owns their *semantics* (killing resident copies, returning capacity,
re-queueing orphans) through the same validated ``apply`` choke point
that scheduler actions use.

Determinism contract:

* Every random draw comes from the injector's **own** RNG stream
  (``churn_seed``, derived from the run seed when not given), so
  enabling faults never shifts the duration or policy streams — a run
  with faults disabled is bit-identical to a build without this
  subsystem at all.
* Draws happen at fixed points of the event order: one (or two) at
  priming per server, one per processed fault event to extend that
  server's renewal chain, and one per launched copy when copy failures
  are on.  Replay re-processes the identical event sequence, so the
  injector re-draws the identical values and the failure realization is
  part of the trace's determinism oracle.
* Failure chains stop extending once the workload is complete (no
  active jobs, no pending arrivals), so churn cannot keep an otherwise
  finished simulation alive.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.cluster.server import server_id_of
from repro.faults.profile import FaultProfile
from repro.sim.events import EventKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.server import Server
    from repro.sim.engine import SimulationEngine
    from repro.workload.task import TaskCopy

__all__ = ["FaultInjector", "CHURN_SEED_OFFSET"]

#: Offset separating the fault RNG stream from the duration stream when
#: no explicit ``churn_seed`` is given (prime, like the policy stream's
#: 104_729 offset, so the streams never collide for small seeds).
CHURN_SEED_OFFSET = 15_485_863


class FaultInjector:
    """Seeded failure processes feeding the engine's event queue.

    The injector keeps only its profile and RNG stream (an open slowdown
    window is the server's brownout entry in the cluster's mirror); the
    engine passes itself to every call, so the injector holds no
    reference back to the engine that owns it.
    """

    __slots__ = ("profile", "rng", "churn_seed")

    def __init__(
        self,
        profile: FaultProfile,
        *,
        churn_seed: int | None = None,
        seed: int = 0,
    ) -> None:
        if not profile.enabled:
            raise ValueError("FaultInjector needs a profile that injects something")
        self.profile = profile
        self.churn_seed = seed + CHURN_SEED_OFFSET if churn_seed is None else churn_seed
        self.rng = np.random.default_rng(self.churn_seed)

    def _after(self, now: float, mean: float, setting: str) -> float:
        """``now`` plus one exponential draw of the given mean.

        A draw that ``now`` absorbs would put the event on the very
        instant being processed, again at every renewal, so simulated
        time would stop; that raises, naming the profile setting whose
        mean it was.  Below one second the clock's floats are finer, so
        the same draw would advance it by slivers only, one per event,
        and the check compares at one second there.  It makes no draw
        of its own."""
        draw = float(self.rng.exponential(mean))
        base = max(now, 1.0)
        if base + draw == base:
            raise ValueError(
                f"{setting}={getattr(self.profile, setting)!r}: a drawn interval of "
                f"{draw:g} s (mean {mean:g} s) does not advance the clock at t={now:g}"
            )
        return now + draw

    # ------------------------------------------------------------------
    # Process priming and renewal
    # ------------------------------------------------------------------
    def prime(self, engine: "SimulationEngine") -> None:
        """Push each server's first failure/slowdown event (ascending
        server id, so the draw order is reproducible).  Fault events
        carry server ids."""
        profile = self.profile
        events = engine.events
        now = engine.now
        for sid in range(len(engine.cluster)):
            if profile.server_churn:
                events.push(
                    self._after(now, profile.mtbf, "mtbf"), EventKind.SERVER_FAIL, sid
                )
            if profile.slowdown_rate > 0.0:
                events.push(
                    self._after(now, 1.0 / profile.slowdown_rate, "slowdown_rate"),
                    EventKind.SERVER_SLOW_START,
                    sid,
                )

    def schedule_recovery(self, engine: "SimulationEngine", server: "Server | int") -> None:
        """After a crash: one repair-time draw, then the recover event."""
        engine.events.push(
            self._after(engine.now, self.profile.mttr, "mttr"),
            EventKind.SERVER_RECOVER,
            server_id_of(server),
        )

    def schedule_next_failure(
        self, engine: "SimulationEngine", server: "Server | int"
    ) -> None:
        """Extend the server's churn chain — unless the workload is done
        (the draw still happens, keeping the stream position independent
        of *when* the workload drains)."""
        t = self._after(engine.now, self.profile.mtbf, "mtbf")
        if engine.workload_active():
            engine.events.push(t, EventKind.SERVER_FAIL, server_id_of(server))

    def schedule_next_slowdown(
        self, engine: "SimulationEngine", server: "Server | int"
    ) -> None:
        t = self._after(engine.now, 1.0 / self.profile.slowdown_rate, "slowdown_rate")
        if engine.workload_active():
            engine.events.push(t, EventKind.SERVER_SLOW_START, server_id_of(server))

    # ------------------------------------------------------------------
    # Copy failures
    # ------------------------------------------------------------------
    def on_copy_launched(self, engine: "SimulationEngine", copy: "TaskCopy") -> None:
        """Engine hook, called once per launched copy: draw the copy's
        time-to-failure and arm a COPY_FAIL event if it precedes the
        copy's finish.  Exactly one draw per launch regardless of the
        outcome, so the stream position depends only on launch count."""
        if self.profile.copy_fail_rate <= 0.0:
            return
        fail_at = self._after(
            copy.start_time, 1.0 / self.profile.copy_fail_rate, "copy_fail_rate"
        )
        if fail_at < copy.finish_time:
            engine.events.push(fail_at, EventKind.COPY_FAIL, copy)

    # ------------------------------------------------------------------
    # Transient slowdown windows
    # ------------------------------------------------------------------
    def on_slow_start(self, engine: "SimulationEngine", server: "Server | int") -> None:
        """Open a background-load window: scale the server's slowdown
        and arm the window's end.  Only *newly sampled* durations see
        the scaled factor — copies already running keep their draw,
        modelling contention at launch time."""
        sid = server_id_of(server)
        mirror = engine.cluster.mirror
        if sid not in mirror.brownout:  # nested windows don't stack
            mirror.set_slowdown(sid, mirror.slowdown_of(sid) * self.profile.slowdown_factor)
        engine.events.push(
            self._after(engine.now, self.profile.slowdown_duration, "slowdown_duration"),
            EventKind.SERVER_SLOW_END,
            sid,
        )

    def on_slow_end(self, engine: "SimulationEngine", server: "Server | int") -> None:
        """Close the window: the server's class slowdown, which the
        window never changed, applies again (no divide-back float
        drift)."""
        sid = server_id_of(server)
        engine.cluster.mirror.clear_slowdown(sid)
        self.schedule_next_slowdown(engine, sid)
