#!/usr/bin/env python
"""Straggler-server learning — the paper's future work, demonstrated.

A 16-node cluster has four nodes whose hypervisors are overloaded (4×
slowdown).  Plain DollyMP² treats all nodes equally; the learning
variant observes completed-copy durations, estimates each server's
slowdown online, and steers tasks (and clones) away from the bad nodes.

Run:  python examples/straggler_learning.py
"""

from repro import DollyMPScheduler, LearningDollyMPScheduler, run_simulation
from repro.analysis.plots import ascii_bars, ascii_cdf
from repro.cluster.cluster import Cluster
from repro.core.server_learning import StragglerServerTracker
from repro.resources import Resources
from repro.workload.mapreduce import wordcount_job

NUM_SERVERS = 16
SLOW_SERVERS = {0, 1, 2, 3}


def make_cluster() -> Cluster:
    return Cluster.build(
        (Resources.of(8, 16), 4.0 if i in SLOW_SERVERS else 1.0) for i in range(NUM_SERVERS)
    )


def make_jobs():
    return [
        wordcount_job(2.0, arrival_time=25.0 * i, job_id=i, cv=0.4)
        for i in range(50)
    ]


def main() -> None:
    tracker = StragglerServerTracker()
    runs = {
        "plain": run_simulation(
            make_cluster(), DollyMPScheduler(max_clones=2), make_jobs(), seed=7
        ),
        "learning": run_simulation(
            make_cluster(),
            LearningDollyMPScheduler(max_clones=2, bias=2.0, tracker=tracker),
            make_jobs(),
            seed=7,
        ),
    }

    print("Job running-time CDFs (lower-left is better):\n")
    print(ascii_cdf({k: r.running_times() for k, r in runs.items()}, width=56, height=10))

    print("\nMean running time (s):\n")
    print(ascii_bars({k: round(r.mean_running_time, 2) for k, r in runs.items()}))

    print("\nLearned per-server slowdown estimates (truth: 4× for 0-3):\n")
    for sid in range(NUM_SERVERS):
        est = tracker.estimated_slowdown(sid)
        marker = "  <-- flagged" if est > 1.5 else ""
        print(f"  server {sid:2d}: {est:5.2f}{marker}")
    flagged = set(tracker.risky_servers(1.5))
    print(f"\nIdentified straggler servers: {sorted(flagged)} "
          f"(ground truth {sorted(SLOW_SERVERS)})")


if __name__ == "__main__":
    main()
