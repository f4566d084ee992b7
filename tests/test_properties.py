"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.cdf import cdf_at, empirical_cdf
from repro.core.knapsack import max_count_knapsack
from repro.core.theory import flowtime_lower_bound
from repro.core.transient import compute_priorities
from repro.core.volume import JobMeasure
from repro.resources import Resources
from repro.workload.dag import critical_path_length, topological_order, validate_dag
from repro.workload.distributions import LogNormal, ParetoType1
from repro.workload.speedup import ParetoSpeedup
from tests.reference import max_count_knapsack_exact

finite_pos = st.floats(min_value=0.01, max_value=1e6, allow_nan=False)


class TestResourcesProperties:
    @given(finite_pos, finite_pos, finite_pos, finite_pos)
    # Off by 1.43e-11 (1.3e-9 of x), inside one ulp of x + y (2.9e-11).
    @example(a=0.010672253629602026, b=0.010672253629602026, c=131072.0, d=131072.0)
    def test_add_sub_roundtrip(self, a, b, c, d):
        """(x + y) − y is within one ulp of x + y: rounding the sum
        errs by at most half an ulp of it, and rounding the difference,
        which is no larger than the sum, by at most half another."""
        x, y = Resources.of(a, b), Resources.of(c, d)
        z = (x + y) - y
        assert abs(z.cpu - x.cpu) <= math.ulp(x.cpu + y.cpu)
        assert abs(z.mem - x.mem) <= math.ulp(x.mem + y.mem)

    @given(finite_pos, finite_pos, finite_pos, finite_pos)
    def test_fits_in_monotone(self, a, b, c, d):
        demand = Resources.of(min(a, c), min(b, d))
        cap = Resources.of(max(a, c), max(b, d))
        assert demand.fits_in(cap)

    @given(finite_pos, finite_pos, finite_pos, finite_pos)
    def test_dominant_share_bounds(self, a, b, c, d):
        demand, total = Resources.of(a, b), Resources.of(c, d)
        share = demand.dominant_share(total)
        assert share >= max(a / c, b / d) - 1e-12

    @given(finite_pos, finite_pos)
    def test_dot_with_self_nonnegative(self, a, b):
        r = Resources.of(a, b)
        assert r.dot(r) >= 0


class TestKnapsackProperties:
    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=14),
        st.floats(min_value=0.0, max_value=300.0),
    )
    def test_greedy_matches_exact_count(self, weights, capacity):
        greedy = max_count_knapsack(weights, capacity)
        exact = max_count_knapsack_exact(weights, capacity)
        assert len(greedy) == len(exact)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=30),
        st.floats(min_value=0.0, max_value=300.0),
    )
    def test_selection_feasible_and_unique(self, weights, capacity):
        sel = max_count_knapsack(weights, capacity)
        assert len(set(sel)) == len(sel)
        assert sum(weights[i] for i in sel) <= capacity * (1 + 1e-9) + 1e-9

    @given(
        st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=30),
        st.floats(min_value=0.01, max_value=300.0),
    )
    def test_adding_capacity_never_hurts(self, weights, capacity):
        assert len(max_count_knapsack(weights, 2 * capacity)) >= len(
            max_count_knapsack(weights, capacity)
        )


class TestDistributionProperties:
    @given(
        st.floats(min_value=0.1, max_value=1e4),
        st.floats(min_value=0.01, max_value=1e4),
    )
    def test_pareto_moment_fit_roundtrip(self, mean, std):
        p = ParetoType1.from_moments(mean, std)
        assert math.isclose(p.mean, mean, rel_tol=1e-9)
        # Huge cv drives α to 2 + O(cv⁻²); the stored float α then only
        # resolves α − 2 (hence the variance) to ~ulp(2)·cv² relative,
        # so widen the tolerance by that representation limit.
        repr_limit = 4.5e-16 * (std / mean) ** 2
        assert math.isclose(p.std, std, rel_tol=1e-6 + repr_limit)
        assert p.alpha > 2.0

    @given(
        st.floats(min_value=0.1, max_value=1e4),
        st.floats(min_value=0.0, max_value=1e4),
    )
    def test_lognormal_moment_fit_roundtrip(self, mean, std):
        d = LogNormal.from_moments(mean, std)
        assert math.isclose(d.mean, mean, rel_tol=1e-9)
        # Tiny std underflows through log1p/expm1 — absolute tolerance.
        assert math.isclose(d.std, std, rel_tol=1e-6, abs_tol=1e-12)

    @given(st.floats(min_value=1.01, max_value=50.0), st.integers(1, 64))
    def test_speedup_between_one_and_bound(self, alpha, r):
        h = ParetoSpeedup(alpha)
        assert 1.0 <= h(r) <= h.bound + 1e-12

    @given(st.floats(min_value=1.01, max_value=50.0), st.integers(1, 63))
    def test_speedup_subadditive_increments(self, alpha, r):
        """Concavity: increments h(r+1) - h(r) shrink."""
        h = ParetoSpeedup(alpha)
        if r >= 2:
            assert h(r + 1) - h(r) <= h(r) - h(r - 1) + 1e-12

    @given(st.floats(min_value=2.0, max_value=50.0), st.integers(1, 16))
    def test_h_at_most_r_for_light_enough_tails(self, alpha, r):
        """h(r) ≤ r whenever α ≥ 1 + 1/r (always true for α ≥ 2, the
        regime every moment-fitted Pareto lives in)."""
        assert ParetoSpeedup(alpha)(r) <= r + 1e-12

    @given(st.integers(2, 16))
    def test_h_exceeds_r_for_very_heavy_tails(self, r):
        """For α < 1 + 1/r cloning is SUPER-linear: E[min of r] drops
        faster than the copy count grows — the heavy-tail regime that
        motivates cloning in the paper (Sec. 4.1)."""
        alpha = 1.0 + 0.5 / r
        assert ParetoSpeedup(alpha)(r) > r


class TestDAGProperties:
    @st.composite
    def random_dag(draw):
        n = draw(st.integers(1, 8))
        parents = []
        for k in range(n):
            if k == 0:
                parents.append(())
            else:
                ps = draw(
                    st.lists(st.integers(0, k - 1), max_size=min(k, 3), unique=True)
                )
                parents.append(tuple(ps))
        return parents

    @given(random_dag())
    def test_topo_order_respects_parents(self, parents):
        validate_dag(parents)
        order = topological_order(parents)
        pos = {k: i for i, k in enumerate(order)}
        for child, ps in enumerate(parents):
            for p in ps:
                assert pos[p] < pos[child]

    @given(random_dag())
    def test_critical_path_at_least_max_node(self, parents):
        lengths = [float(k + 1) for k in range(len(parents))]
        cp = critical_path_length(parents, lambda k: lengths[k])
        assert cp >= max(lengths) - 1e-12
        assert cp <= sum(lengths) + 1e-12


class TestPriorityProperties:
    measures = st.lists(
        st.tuples(
            st.floats(min_value=0.001, max_value=100.0),  # volume
            st.floats(min_value=0.01, max_value=1000.0),  # length
        ),
        min_size=1,
        max_size=25,
    )

    @given(measures)
    def test_all_jobs_ranked(self, pairs):
        ms = [
            JobMeasure(job_id=i, volume=v, length=e, max_dominant_share=0.5)
            for i, (v, e) in enumerate(pairs)
        ]
        prios = compute_priorities(ms)
        assert set(prios) == set(range(len(ms)))
        assert all(p >= 1 for p in prios.values())

    @given(measures)
    def test_dominated_job_never_ranked_higher(self, pairs):
        """If job A has strictly smaller volume and no larger length than
        B, A's priority level is ≤ B's (ties can break either way)."""
        ms = [
            JobMeasure(job_id=i, volume=v, length=e, max_dominant_share=0.5)
            for i, (v, e) in enumerate(pairs)
        ]
        prios = compute_priorities(ms)
        for a in ms:
            for b in ms:
                if a.volume < b.volume and a.length <= b.length:
                    assert prios[a.job_id] <= prios[b.job_id]

    @given(measures)
    def test_lower_bound_nonnegative_and_monotone(self, pairs):
        ms = [
            JobMeasure(job_id=i, volume=v, length=e, max_dominant_share=0.5)
            for i, (v, e) in enumerate(pairs)
        ]
        lb = flowtime_lower_bound(ms)
        assert lb >= 0
        extra = JobMeasure(
            job_id=10_000, volume=ms[0].volume, length=ms[0].length, max_dominant_share=0.5
        )
        assert flowtime_lower_bound(ms + [extra]) >= lb - 1e-9


class TestCDFProperties:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=100))
    def test_cdf_monotone_and_bounded(self, values):
        x, f = empirical_cdf(values)
        assert np.all(np.diff(f) >= 0)
        assert f[-1] == 1.0

    @given(
        st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=50),
        st.lists(st.floats(min_value=-10, max_value=110), min_size=1, max_size=10),
    )
    def test_cdf_at_monotone_in_points(self, values, points):
        pts = sorted(points)
        got = cdf_at(values, pts)
        assert np.all(np.diff(got) >= 0)
        assert np.all((got >= 0) & (got <= 1))
