"""Unit tests for DAG helpers (validation, topo order, critical path)."""

from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.workload import dag
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

    @pytest.mark.parametrize("bad", [0.5, 0.0, True, False, "0"])
    def test_non_integer_parent_rejected_by_name(self, bad):
        # 0.5 and "0" used to fail inside Kahn's sort with a TypeError;
        # False used to pass as parent 0.
        with pytest.raises(ValueError, match=f"^phase 2: parent {bad!r} is not an integer"):
            validate_dag([(), (0,), (bad,)])


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
    @example([(), (0.5,)])  # float parent
    @example([(), (0.0,)])
    @example([(), (), (True,)])  # bool parents
    @example([(), (False,)])
    @example([(), ("0",)])  # string parent
    def test_raises_exactly_when_dfs_finds_a_problem(self, parents):
        assert error_of(validate_dag, parents) == error_of(reference.validate_dag, parents)


@st.composite
def index_ordered(draw):
    """Phase graphs whose every parent precedes its child — the shape of
    every job's graph — with duplicate edges."""
    n = draw(st.integers(0, 8))
    return [
        tuple(draw(st.lists(st.integers(0, k - 1), max_size=3))) if k else ()
        for k in range(n)
    ]


@st.composite
def relabelled(draw):
    """An index-ordered graph with its phases renumbered, so parents may
    follow their children: acyclic, but off the fast path."""
    parents = draw(index_ordered())
    perm = draw(st.permutations(range(len(parents))))
    out = [()] * len(parents)
    for k, ps in enumerate(parents):
        out[perm[k]] = tuple(perm[p] for p in ps)
    return out


def lengths_of(parents):
    return lambda k: 1.0 / (k + 3) + 0.1 * len(parents[k])


class TestIndexOrderedFastPath:
    """``topological_order`` returns ``0..n-1`` for index-ordered graphs
    without running Kahn's sort; the order, and so every float sum over
    it, equals the sort's."""

    @given(index_ordered())
    def test_fast_path_order_is_kahns(self, parents):
        with mock.patch.object(dag, "_kahn_order", side_effect=AssertionError):
            order = topological_order(parents)
            validate_dag(parents)
        assert order == dag._kahn_order(parents) == list(range(len(parents)))

    @given(st.one_of(index_ordered(), relabelled()))
    def test_same_order_and_critical_path_as_kahn(self, parents):
        assert topological_order(parents) == dag._kahn_order(parents)
        length = lengths_of(parents)
        got = critical_path_length(parents, length, include=lambda k: k % 3 != 1)
        path = critical_path(parents, length)
        with mock.patch.object(dag, "topological_order", dag._kahn_order):
            want = critical_path_length(parents, length, include=lambda k: k % 3 != 1)
            want_path = critical_path(parents, length)
        assert got.hex() == want.hex()
        assert path == want_path

    @pytest.mark.parametrize(
        "parents",
        [[(-1,)], [(), (0.5,)], [(), (True,)], [(), (2,), ()]],
        ids=["negative", "float", "bool", "forward"],
    )
    def test_other_graphs_take_kahns_sort(self, parents):
        with mock.patch.object(dag, "_kahn_order", side_effect=LookupError):
            with pytest.raises(LookupError):
                topological_order(parents)


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
