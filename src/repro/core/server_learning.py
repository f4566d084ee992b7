"""Online learning of straggler-prone servers — the paper's future work.

The conclusion of the paper states: "As future works, we plan to apply
online learning methods to quickly identify those servers that can
easily lead to stragglers."  This module implements that extension:

* :class:`StragglerServerTracker` — an online estimator of each
  server's slowdown.  Every finished (or killed) task copy provides one
  observation: its realized duration divided by its phase's mean θ.
  Per-server estimates are exponentially-weighted averages, which track
  drifting background load; a confidence count gates decisions until
  enough samples accumulated.
* :class:`LearningDollyMPScheduler` — DollyMP with placement scores
  down-weighted by the learned slowdown, so new tasks and clones avoid
  servers currently identified as straggler-prone.  The tracker only
  *reads* finished tasks and steers scores; every actual placement
  still flows through the action protocol inherited from DollyMP, so
  learning runs record and replay like any other policy.

The ablation benchmark ``benchmarks/test_ablation_learning.py``
quantifies the benefit on a cluster with drifting per-server slowdowns.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.cluster.server import Server
from repro.core.online import DollyMPScheduler
from repro.workload.task import Task

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import ClusterView

__all__ = ["StragglerServerTracker", "LearningDollyMPScheduler"]


class StragglerServerTracker:
    """Online estimator of per-server slowdown, robust to the censoring
    that first-copy-wins cloning introduces.

    Two signals are combined:

    * **Duration signal** — each *winning* copy contributes
      ``duration / θ`` (its realized time relative to the phase mean);
      per-server log-domain EWMAs track a geometric mean, which resists
      the heavy-tailed straggler noise.  This signal alone is
      selection-biased: a slow server's copies rarely win, and when they
      do it is on lucky draws, so its duration estimate reads ≈1.
    * **Win-rate signal** — every ended copy of a contested task (one
      that ran k ≥ 2 simultaneous copies) contributes an *expected* win
      credit of 1/k to its server; actual wins are counted separately.
      A server that systematically wins less often than expected is
      slow, regardless of what its rare wins looked like.  The ratio of
      expected to (smoothed) observed wins multiplies the duration
      estimate, capped to avoid runaway on tiny samples.

    Both EWMAs make the tracker follow *drifting* background load.
    """

    #: Cap on the win-rate multiplier (protects tiny-sample servers).
    MAX_RATE_FACTOR = 16.0

    def __init__(self, *, alpha: float = 0.1, min_samples: int = 5) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        self.alpha = alpha
        self.min_samples = min_samples
        self._log_estimate: dict[int, float] = {}
        self._count: dict[int, int] = {}
        self._contested: dict[int, int] = {}
        self._expected_wins: dict[int, float] = {}
        self._wins: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Observations
    # ------------------------------------------------------------------
    def observe(self, server_id: int, duration: float, theta: float) -> None:
        """Record one *uncensored* copy duration (a winning copy)."""
        if duration <= 0 or theta <= 0:
            raise ValueError("duration and theta must be positive")
        x = math.log(duration / theta)
        if server_id not in self._log_estimate:
            self._log_estimate[server_id] = x
            self._count[server_id] = 1
            return
        self._log_estimate[server_id] = (
            (1.0 - self.alpha) * self._log_estimate[server_id] + self.alpha * x
        )
        self._count[server_id] += 1

    def observe_task(self, task: Task) -> None:
        """Record every ended copy of a finished task.

        Winners feed the duration signal; all copies of contested tasks
        feed the win-rate signal (killed copies are censored — their
        durations are NOT used, which would bias estimates, but their
        *losses* are exactly the evidence that identifies slow servers).
        Needs each copy's server, which the task's ledger does not keep:
        call it from ``on_task_finish``, before the engine folds the
        copies away.
        """
        if len(task.copies) != task.num_copies:
            raise RuntimeError(f"task {task.uid}: copies already folded into its ledger")
        theta = task.phase.theta
        k = len(task.copies)
        for copy in task.copies:
            sid = copy.server_id
            if copy.finished:
                self.observe(sid, copy.duration, theta)
            if k >= 2:
                self._contested[sid] = self._contested.get(sid, 0) + 1
                self._expected_wins[sid] = self._expected_wins.get(sid, 0.0) + 1.0 / k
                if copy.finished:
                    self._wins[sid] = self._wins.get(sid, 0) + 1

    # ------------------------------------------------------------------
    # Estimates
    # ------------------------------------------------------------------
    def samples(self, server_id: int) -> int:
        """Uncensored (winning-copy) duration observations."""
        return self._count.get(server_id, 0)

    def contested(self, server_id: int) -> int:
        """Ended copies of this server that raced ≥1 sibling."""
        return self._contested.get(server_id, 0)

    def win_rate_factor(self, server_id: int) -> float:
        """Expected-over-observed win ratio (≥1 means under-winning)."""
        if self._contested.get(server_id, 0) < self.min_samples:
            return 1.0
        expected = self._expected_wins.get(server_id, 0.0)
        observed = self._wins.get(server_id, 0) + 0.5  # smoothing
        return min(max(expected / observed, 1.0), self.MAX_RATE_FACTOR)

    def estimated_slowdown(self, server_id: int) -> float:
        """Combined slowdown estimate (1.0 until enough samples)."""
        if self._count.get(server_id, 0) >= self.min_samples:
            base = math.exp(self._log_estimate[server_id])
        else:
            base = 1.0
        return base * self.win_rate_factor(server_id)

    def risky_servers(self, threshold: float = 1.5) -> list[int]:
        """Servers whose estimated slowdown exceeds ``threshold``."""
        seen = set(self._log_estimate) | set(self._contested)
        return sorted(
            sid for sid in seen if self.estimated_slowdown(sid) > threshold
        )


class LearningDollyMPScheduler(DollyMPScheduler):
    """DollyMP + straggler-server avoidance.

    Placement scores are multiplied by ``1 / estimate(server)^bias`` so
    tasks drift away from servers the tracker has identified as slow;
    ``bias`` controls how aggressively (0 = plain DollyMP).
    """

    def __init__(
        self,
        *,
        bias: float = 1.0,
        tracker: StragglerServerTracker | None = None,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        if bias < 0:
            raise ValueError("bias must be non-negative")
        self.bias = bias
        self.tracker = tracker if tracker is not None else StragglerServerTracker()
        self.name = f"Learning{self.name}"

    def on_task_finish(self, task: Task, view: "ClusterView") -> None:
        super().on_task_finish(task, view)  # keep the measure cache honest
        self.tracker.observe_task(task)

    def server_weight(self, server: Server) -> float:
        est = self.tracker.estimated_slowdown(server.server_id)
        return est ** (-self.bias)

    def schedule(self, view: "ClusterView") -> None:
        # Reuse Algorithm 2 wholesale, injecting the learned weights into
        # the placement loop (see DollyMPScheduler.schedule).
        self._server_weight_hook = self.server_weight
        super().schedule(view)
