"""Tests for the AM's second-level locality scheduling (Sec. 5.2)."""

import pytest

from repro.cluster.topology import Topology
from repro.core.locality import (
    assign_tasks_to_containers,
    best_locality_copy,
    clone_placement_order,
)
from repro.resources import Resources
from repro.workload.distributions import Deterministic
from repro.workload.job import Job
from repro.workload.phase import Phase
from repro.workload.task import TaskCopy
from tests.conftest import all_tasks


def make_tasks(n, preferred=()):
    phase = Phase(0, n, Resources.of(1, 1), Deterministic(10.0))
    Job([phase])
    tasks = all_tasks(phase)
    for t in tasks:
        t.preferred_servers = tuple(preferred)
    return tasks


# Topology: servers 0,1 in rack 0; servers 2,3 in rack 1.
TOPO = Topology([0, 0, 1, 1])


class TestAssignment:
    def test_node_local_preferred(self):
        (task,) = make_tasks(1, preferred=[2])
        got = assign_tasks_to_containers(TOPO, [task], [0, 2])
        assert got[task] == 2

    def test_rack_local_over_off_rack(self):
        (task,) = make_tasks(1, preferred=[3])
        # No container on 3; server 2 is rack-local, 0 is off-rack.
        got = assign_tasks_to_containers(TOPO, [task], [0, 2])
        assert got[task] == 2

    def test_all_tasks_assigned_when_enough_containers(self):
        tasks = make_tasks(3, preferred=[0])
        got = assign_tasks_to_containers(TOPO, tasks, [0, 1, 2])
        assert len(got) == 3
        assert sorted(got.values()) == [0, 1, 2]
        # The node-local container goes to some task (greedy level 0).
        assert 0 in got.values()

    def test_excess_tasks_left_unassigned(self):
        tasks = make_tasks(3)
        got = assign_tasks_to_containers(TOPO, tasks, [1])
        assert len(got) == 1

    def test_excess_containers_unused(self):
        (task,) = make_tasks(1, preferred=[0])
        got = assign_tasks_to_containers(TOPO, [task], [0, 1, 2, 3])
        assert got == {task: 0}

    def test_no_preference_treated_as_local(self):
        (task,) = make_tasks(1)
        got = assign_tasks_to_containers(TOPO, [task], [3])
        assert got[task] == 3

    def test_competing_tasks_both_get_best_feasible(self):
        a, b = make_tasks(2, preferred=[0])
        got = assign_tasks_to_containers(TOPO, [a, b], [0, 1])
        # One gets the node-local 0, the other the rack-local 1.
        assert sorted(got.values()) == [0, 1]


class TestKeepBestCopy:
    def test_prefers_node_local(self):
        (task,) = make_tasks(1, preferred=[2])
        far = TaskCopy(task, 0, 0.0, 10.0, is_clone=False)
        near = TaskCopy(task, 2, 1.0, 10.0, is_clone=True)
        task.add_copy(far)
        task.add_copy(near)
        assert best_locality_copy(TOPO, task.copies) is near

    def test_tie_broken_by_progress(self):
        (task,) = make_tasks(1, preferred=[0])
        older = TaskCopy(task, 2, 0.0, 10.0, is_clone=False)
        newer = TaskCopy(task, 3, 5.0, 10.0, is_clone=True)
        task.add_copy(older)
        task.add_copy(newer)
        assert best_locality_copy(TOPO, task.copies) is older

    def test_ignores_dead_copies(self):
        (task,) = make_tasks(1, preferred=[0])
        local = TaskCopy(task, 0, 0.0, 10.0, is_clone=False)
        remote = TaskCopy(task, 3, 0.0, 10.0, is_clone=True)
        task.add_copy(local)
        task.add_copy(remote)
        local.killed = True
        assert best_locality_copy(TOPO, task.copies) is remote

    def test_no_live_copies_raises(self):
        (task,) = make_tasks(1)
        c = TaskCopy(task, 0, 0.0, 10.0, is_clone=False)
        task.add_copy(c)
        c.killed = True
        with pytest.raises(ValueError):
            best_locality_copy(TOPO, task.copies)


class TestClonePlacementOrder:
    def test_replicas_first_then_rack_then_rest(self):
        (task,) = make_tasks(1, preferred=[1])
        order = clone_placement_order(TOPO, task, [3, 2, 1, 0])
        assert order == [1, 0, 2, 3]

    def test_stable_within_level(self):
        (task,) = make_tasks(1, preferred=[])
        # No constraint: everything node-local, sorted by id.
        assert clone_placement_order(TOPO, task, [2, 0, 3]) == [0, 2, 3]
