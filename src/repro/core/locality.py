"""The Application Master's second-level, locality-aware scheduling.

Sec. 5.2: "When RM allocates more containers than the number of pending
tasks, an AM will make a second-level scheduling decision to determine
where to launch each task and its clones, based on the data locality
constraint. Whenever a task or its cloned copy finishes, the
corresponding AM keeps another running copy with the best data locality
level and kills the remaining running copies."

This module implements that logic as pure functions over the
:class:`~repro.cluster.topology.Topology` locality model:

* :func:`assign_tasks_to_containers` — match tasks (with preferred
  servers = their HDFS replica locations) to allocated containers,
  minimizing total locality cost (greedy on the locality matrix, which
  is optimal here because the cost levels are the same for every task);
* :func:`best_locality_copy` — which running copy the AM keeps when a
  sibling finishes;
* :func:`clone_placement_order` — ranks candidate servers for a clone:
  replicas hold the input block, so "two clones can maintain a good
  data locality" (Sec. 5's rationale for the max-two-clones default).
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster.topology import LocalityLevel, Topology
from repro.workload.task import Task, TaskCopy

__all__ = [
    "assign_tasks_to_containers",
    "best_locality_copy",
    "clone_placement_order",
]


def assign_tasks_to_containers(
    topology: Topology,
    tasks: Sequence[Task],
    container_servers: Sequence[int],
) -> dict[Task, int]:
    """Assign each task to one container, minimizing locality cost.

    Greedy by cost level: first give every task a NODE_LOCAL container
    where possible, then RACK_LOCAL, then whatever remains.  With three
    uniform cost levels this greedy is exchange-optimal.  Containers in
    excess of tasks stay unused; tasks in excess of containers stay
    unassigned (the RM will allocate more later).
    """
    free = list(container_servers)
    assignment: dict[Task, int] = {}
    for level in (LocalityLevel.NODE_LOCAL, LocalityLevel.RACK_LOCAL, LocalityLevel.OFF_RACK):
        for task in tasks:
            if task in assignment or not free:
                continue
            best_idx = None
            for idx, server in enumerate(free):
                if topology.locality(server, task.preferred_servers) == level:
                    best_idx = idx
                    break
            if best_idx is not None:
                assignment[task] = free.pop(best_idx)
    return assignment


def best_locality_copy(topology: Topology, copies: Sequence[TaskCopy]) -> TaskCopy:
    """Among live copies of one task, the one the AM keeps: best data
    locality, earliest start as tie-break (more progress), then the
    first in ``copies`` (launch order for ``task.copies``)."""
    live = [c for c in copies if c.live]
    if not live:
        raise ValueError("no live copies to choose from")
    return min(
        live,
        key=lambda c: (
            topology.locality(c.server_id, c.task.preferred_servers),
            c.start_time,
        ),
    )


def clone_placement_order(
    topology: Topology, task: Task, candidate_servers: Sequence[int]
) -> list[int]:
    """Candidate servers for a clone, best locality first.

    Replica holders come first (each data block keeps two replicas, so
    up to two copies can read locally — the paper's data-locality
    argument for capping clones at two), then rack-local servers, then
    the rest; stable within a level.
    """
    return sorted(
        candidate_servers,
        key=lambda s: (int(topology.locality(s, task.preferred_servers)), s),
    )
