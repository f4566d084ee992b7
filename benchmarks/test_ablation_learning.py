"""Ablation: online learning of straggler-prone servers (future work).

The paper's conclusion proposes applying online learning to "quickly
identify those servers that can easily lead to stragglers".  We built
that extension (``repro.core.server_learning``); this bench quantifies
it on a cluster where a quarter of the servers are 4× slow — the
tracker must discover them from completed-copy durations alone.
"""

from repro.analysis.report import format_table
from repro.cluster.cluster import Cluster
from repro.core.online import DollyMPScheduler
from repro.core.server_learning import LearningDollyMPScheduler
from repro.resources import Resources
from repro.sim.runner import run_simulation
from repro.workload.mapreduce import wordcount_job

from benchmarks.conftest import SEED, run_once, save_figure_text

NUM_SERVERS = 16
NUM_SLOW = 4
NUM_JOBS = 60


def make_cluster():
    return Cluster.build(
        (Resources.of(8, 16), 4.0 if i < NUM_SLOW else 1.0) for i in range(NUM_SERVERS)
    )


def make_jobs():
    return [
        wordcount_job(2.0, arrival_time=25.0 * i, job_id=i, cv=0.4)
        for i in range(NUM_JOBS)
    ]


def run_ablation():
    out = {}
    for name, sched in {
        "DollyMP^2": DollyMPScheduler(max_clones=2),
        "LearningDollyMP^2": LearningDollyMPScheduler(max_clones=2, bias=2.0),
    }.items():
        out[name] = run_simulation(
            make_cluster(), sched, make_jobs(), seed=SEED, max_time=1e7
        )
    return out


def test_ablation_learning(benchmark):
    results = run_once(benchmark, run_ablation)
    rows = [
        [name, float(r.mean_running_time), float(r.total_flowtime), r.clones_launched]
        for name, r in results.items()
    ]
    save_figure_text(
        "ablation_learning",
        format_table(["scheduler", "mean_runtime", "total_flowtime", "clones"], rows),
    )
    plain = results["DollyMP^2"]
    learned = results["LearningDollyMP^2"]
    # Learning which quarter of the cluster is slow must pay off.
    assert learned.mean_running_time < plain.mean_running_time
    assert learned.total_flowtime < 1.02 * plain.total_flowtime
