"""Unit tests for DAG helpers (validation, topo order, critical path)."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.workload.dag import (
    critical_path,
    critical_path_length,
    topological_order,
    validate_dag,
)
from tests import reference


class TestValidation:
    def test_valid_chain(self):
        validate_dag([(), (0,), (1,)])  # no raise

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            validate_dag([(0,)])

    def test_out_of_range_parent(self):
        with pytest.raises(ValueError):
            validate_dag([(), (5,)])

    def test_cycle_rejected(self):
        # 1→2 and 2→1 expressed as forward indices can't cycle by
        # construction; use an explicit back edge.
        with pytest.raises(ValueError):
            validate_dag([(1,), (0,)])


@st.composite
def parent_lists(draw):
    """Arbitrary parent lists: back edges, duplicates, self-loops and
    out-of-range indices (-1 and n) all occur."""
    n = draw(st.integers(0, 7))
    return [tuple(draw(st.lists(st.integers(-1, n), max_size=2))) for _ in range(n)]


def error_of(validate, parents):
    try:
        validate(parents)
    except ValueError as exc:
        return str(exc)
    return None


class TestValidationOracle:
    @given(parent_lists())
    @example([(), (5,)])  # out of range
    @example([(-1,)])
    @example([(0,)])  # self-loop
    @example([(), (1, 1)])
    @example([(1,), (0,)])  # two-node cycle
    @example([(), (0, 0), (1, 0)])  # duplicate edges, acyclic
    def test_raises_exactly_when_dfs_finds_a_problem(self, parents):
        assert error_of(validate_dag, parents) == error_of(reference.validate_dag, parents)


class TestTopologicalOrder:
    def test_chain(self):
        assert topological_order([(), (0,), (1,)]) == [0, 1, 2]

    def test_diamond(self):
        order = topological_order([(), (0,), (0,), (1, 2)])
        assert order.index(0) < order.index(1)
        assert order.index(0) < order.index(2)
        assert order.index(3) == 3

    def test_deterministic_lowest_index_first(self):
        # Two independent roots: 0 before 1.
        assert topological_order([(), (), (0, 1)]) == [0, 1, 2]

    def test_cycle_detected(self):
        with pytest.raises(ValueError):
            topological_order([(1,), (0,)])


class TestCriticalPath:
    def test_chain_length_is_sum(self):
        parents = [(), (0,), (1,)]
        assert critical_path_length(parents, lambda k: float(k + 1)) == 6.0

    def test_diamond_takes_longer_branch(self):
        parents = [(), (0,), (0,), (1, 2)]
        lengths = {0: 1.0, 1: 10.0, 2: 2.0, 3: 1.0}
        assert critical_path_length(parents, lengths.__getitem__) == 12.0

    def test_parallel_roots(self):
        parents = [(), ()]
        assert critical_path_length(parents, lambda k: [3.0, 7.0][k]) == 7.0

    def test_include_filter_excludes_finished(self):
        parents = [(), (0,), (1,)]
        # Exclude phase 0 (finished): remaining path = phases 1+2.
        got = critical_path_length(
            parents, lambda k: 5.0, include=lambda k: k != 0
        )
        assert got == 10.0

    def test_include_all_excluded_gives_zero(self):
        got = critical_path_length([(), (0,)], lambda k: 5.0, include=lambda k: False)
        assert got == 0.0

    def test_empty_graph(self):
        assert critical_path_length([], lambda k: 1.0) == 0.0

    def test_critical_path_nodes(self):
        parents = [(), (0,), (0,), (1, 2)]
        lengths = {0: 1.0, 1: 10.0, 2: 2.0, 3: 1.0}
        assert critical_path(parents, lengths.__getitem__) == [0, 1, 3]

    def test_critical_path_empty(self):
        assert critical_path([], lambda k: 1.0) == []
