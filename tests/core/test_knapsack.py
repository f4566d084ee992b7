"""Unit tests for the knapsack oracle (Algorithm 1, step 6)."""

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.knapsack import max_count_knapsack, max_count_knapsack_batch
from tests.reference import max_count_knapsack_exact


class TestGreedy:
    def test_empty(self):
        assert max_count_knapsack([], 10.0) == []

    def test_all_fit(self):
        assert max_count_knapsack([1, 2, 3], 10.0) == [0, 1, 2]

    def test_picks_smallest(self):
        # capacity 5: items 1+3 fit; 4 alone would only give one.
        assert max_count_knapsack([4.0, 1.0, 3.0], 5.0) == [1, 2]

    def test_exact_boundary_included(self):
        assert max_count_knapsack([2.0, 3.0], 5.0) == [0, 1]

    def test_float_noise_at_boundary(self):
        weights = [0.1] * 10
        assert len(max_count_knapsack(weights, 1.0)) == 10

    def test_zero_capacity_zero_weight_items(self):
        assert max_count_knapsack([0.0, 1.0], 0.0) == [0]

    def test_nothing_fits(self):
        assert max_count_knapsack([5.0, 6.0], 4.0) == []

    def test_stable_tie_break_by_index(self):
        assert max_count_knapsack([2.0, 2.0, 2.0], 4.0) == [0, 1]

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            max_count_knapsack([-1.0], 1.0)

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            max_count_knapsack([1.0], -1.0)


class TestExactDP:
    def test_matches_greedy_on_unit_profits(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            w = rng.uniform(0.1, 5.0, size=n).tolist()
            cap = float(rng.uniform(0.5, 10.0))
            greedy = max_count_knapsack(w, cap)
            exact = max_count_knapsack_exact(w, cap)
            assert len(greedy) == len(exact)
            assert sum(w[i] for i in exact) <= cap * (1 + 1e-9)

    def test_weighted_profits(self):
        # cap 5: item0 (w=5, p=3) beats items 1+2 (w=2+3, p=1+1).
        got = max_count_knapsack_exact([5.0, 2.0, 3.0], 5.0, profits=[3, 1, 1])
        assert got == [0]

    def test_weighted_prefers_combination(self):
        got = max_count_knapsack_exact([2.0, 3.0, 5.0], 5.0, profits=[2, 2, 3])
        assert sorted(got) == [0, 1]

    def test_witness_is_feasible(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(1, 10))
            w = rng.uniform(0.1, 4.0, size=n).tolist()
            p = rng.integers(1, 5, size=n).tolist()
            cap = float(rng.uniform(1.0, 8.0))
            sel = max_count_knapsack_exact(w, cap, profits=p)
            assert sum(w[i] for i in sel) <= cap * (1 + 1e-9)
            assert len(set(sel)) == len(sel)

    def test_witness_achieves_optimum_bruteforce(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            w = rng.uniform(0.1, 4.0, size=n).tolist()
            p = rng.integers(1, 4, size=n).tolist()
            cap = float(rng.uniform(1.0, 6.0))
            sel = max_count_knapsack_exact(w, cap, profits=p)
            got = sum(p[i] for i in sel)
            best = 0
            for mask in range(1 << n):
                wt = sum(w[i] for i in range(n) if mask >> i & 1)
                if wt <= cap:
                    best = max(best, sum(p[i] for i in range(n) if mask >> i & 1))
            assert got == best

    def test_profit_length_mismatch(self):
        with pytest.raises(ValueError):
            max_count_knapsack_exact([1.0], 1.0, profits=[1, 2])


class TestBatchOracle:
    """max_count_knapsack_batch == one scalar call per capacity (the
    vectorized doubling-category pass rides on this equivalence)."""

    weights_st = st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False),
        max_size=30,
    )
    caps_st = st.lists(
        st.floats(min_value=0.0, max_value=500.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=6,
    )

    @given(weights_st, caps_st)
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_per_capacity(self, weights, caps):
        batch = max_count_knapsack_batch(weights, caps)
        assert len(batch) == len(caps)
        for cap, sel in zip(caps, batch):
            assert [int(i) for i in sel] == max_count_knapsack(weights, cap)

    @given(weights_st, st.data())
    @settings(max_examples=200, deadline=None)
    def test_eligibility_matches_filtered_scalar(self, weights, data):
        """Per-instance masks == compact-then-solve-then-map-back, the
        exact shape of Algorithm 1's per-level reference loop."""
        n = len(weights)
        caps = data.draw(self.caps_st)
        masks = [
            np.asarray(
                data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
            )
            for _ in caps
        ]
        batch = max_count_knapsack_batch(weights, caps, eligible=masks)
        for cap, mask, sel in zip(caps, masks, batch):
            idx = np.flatnonzero(mask)
            chosen = max_count_knapsack([weights[i] for i in idx], cap)
            assert [int(i) for i in sel] == sorted(int(idx[j]) for j in chosen)

    def test_eligible_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            max_count_knapsack_batch([1.0], [2.0, 3.0], eligible=[np.array([True])])

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            max_count_knapsack_batch([1.0], [-1.0])
