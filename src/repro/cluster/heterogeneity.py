"""Builders for the clusters used in the paper's evaluation.

* :func:`paper_cluster_30_nodes` — the private testbed of Sec. 6.1: 30
  heterogeneous nodes / 328 cores in two racks (2 powerful 24-core/48 GB
  servers, 7 normal 16-core servers with 32–64 GB, 21 small 8-core/16 GB
  nodes: 2·24 + 7·16 + 21·8 = 328 cores).
* :func:`trace_sim_cluster` — the trace-driven simulator's cluster of
  Sec. 6.3 ("more than 30K heterogeneous servers"), parameterized so the
  benches run a scaled-down instance by default and the full 30K when
  asked.
* :func:`homogeneous_cluster` / :func:`single_server_cluster` — the
  settings of the theory sections (Sec. 4.2's transient single-server
  case, Thm. 2's special cases).
"""

from __future__ import annotations

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.topology import Topology
from repro.resources import Resources

__all__ = [
    "paper_cluster_30_nodes",
    "trace_sim_cluster",
    "homogeneous_cluster",
    "single_server_cluster",
]

#: Relative task slowdowns for the three server classes of the testbed.
#: Powerful servers run tasks faster than nominal, the small nodes slower;
#: the ratios are modest because the paper folds the dominant straggler
#: causes into the stochastic task-time model instead.
POWERFUL_SLOWDOWN = 0.75
NORMAL_SLOWDOWN = 1.0
SMALL_SLOWDOWN = 1.25


def paper_cluster_30_nodes(
    *,
    powerful_slowdown: float = POWERFUL_SLOWDOWN,
    normal_slowdown: float = NORMAL_SLOWDOWN,
    small_slowdown: float = SMALL_SLOWDOWN,
) -> Cluster:
    """The 30-node / 328-core heterogeneous testbed of Sec. 6.1."""
    specs: list[tuple[Resources, float]] = []
    specs += [(Resources.of(24, 48), powerful_slowdown)] * 2  # powerful servers
    # normal servers, memory alternating through 32-64 GB
    specs += [(Resources.of(16, 32 if i % 2 == 0 else 64), normal_slowdown) for i in range(7)]
    specs += [(Resources.of(8, 16), small_slowdown)] * 21  # small nodes
    assert sum(cap.cpu for cap, _ in specs) == 328
    return Cluster.build(specs, Topology.two_racks(len(specs)))


def trace_sim_cluster(
    num_servers: int = 300,
    *,
    seed: int = 0,
    cpu_scale: float = 1.0,
) -> Cluster:
    """A large heterogeneous cluster for the trace-driven simulations.

    Server classes follow the same three-way mix as the testbed but drawn
    at Google-trace-like proportions (most machines mid-sized).  The
    ``cpu_scale`` knob shrinks every server's core count — Fig. 10 sweeps
    cluster load by "varying the number of CPU cores in the cluster" with
    a fixed workload, which this reproduces directly.

    ``num_servers=30_000`` reproduces the paper's full-scale setting; the
    default of 300 keeps the benches laptop-sized while preserving the
    heterogeneity mix (documented in DESIGN.md).
    """
    if num_servers < 1:
        raise ValueError("num_servers must be >= 1")
    rng = np.random.default_rng(seed)
    # (capacity, slowdown, weight) per class
    classes = [
        (Resources.of(24, 48), POWERFUL_SLOWDOWN, 0.15),
        (Resources.of(16, 32), NORMAL_SLOWDOWN, 0.55),
        (Resources.of(8, 16), SMALL_SLOWDOWN, 0.30),
    ]
    class_of = draw_classes(rng, np.array([c[2] for c in classes]), num_servers)
    cpu = np.array([c[0].cpu for c in classes])
    mem = np.array([c[0].mem for c in classes])
    slowdown = np.array([c[1] for c in classes])
    # Exact sentinel: 1.0 means "no scaling requested", not a measured
    # quantity.
    if cpu_scale != 1.0:  # repro-lint: ignore[RL003]
        # np.round rounds half to even, like the builtin round.
        cpu = np.maximum(1.0, np.round(cpu * cpu_scale))
    racks = max(1, num_servers // 40)
    topo = Topology(np.arange(num_servers, dtype=np.int32) % racks)
    return Cluster.from_classes(cpu, mem, slowdown, class_of, topo)


def draw_classes(rng: np.random.Generator, weights: np.ndarray, n: int) -> np.ndarray:
    """``n`` class indices drawn at ``weights`` (at most 256 classes), as
    uint8 — the values and stream position of ``rng.choice(len(weights),
    size=n, p=weights / weights.sum())``.

    Those are numpy's own steps: ``choice`` normalizes the cumulative
    weights, draws ``n`` uniforms and returns, per uniform, the count of
    cumulative weights at or below it (``searchsorted(side="right")``).
    The last cumulative weight is exactly 1.0, above every uniform, so
    the count is a sum of ``len(weights) - 1`` comparisons, with no
    int64 index array."""
    p = weights / weights.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    u = rng.random(n)
    class_of = np.zeros(n, np.uint8)
    for edge in cdf[:-1].tolist():
        class_of += u >= edge
    return class_of


def homogeneous_cluster(
    num_servers: int,
    capacity: Resources = Resources.of(16, 32),
    *,
    slowdown: float = 1.0,
) -> Cluster:
    """A uniform cluster (the setting of most of the theory analysis)."""
    return Cluster.from_classes(
        [capacity.cpu],
        [capacity.mem],
        slowdown,
        np.zeros(num_servers, np.uint8),
        Topology.single_rack(num_servers),
    )


def single_server_cluster(
    capacity: Resources = Resources.of(1.0, 1.0), *, slowdown: float = 1.0
) -> Cluster:
    """One server of (normalized) capacity — Sec. 4.2's transient setting."""
    return Cluster.build([(capacity, slowdown)], Topology.single_rack(1))
