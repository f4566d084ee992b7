"""Unit tests for Algorithm 1 (transient priority computation)."""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.transient import compute_priorities, num_levels, priority_groups
from repro.core.volume import JobMeasure
from tests import reference


def m(job_id, volume, length, share=0.1):
    return JobMeasure(
        job_id=job_id, volume=volume, length=length, max_dominant_share=share
    )


class TestNumLevels:
    def test_empty(self):
        assert num_levels([]) == 0

    def test_covers_total_volume(self):
        measures = [m(i, 10.0, 5.0) for i in range(10)]  # Σv = 100
        g = num_levels(measures)
        assert 2.0**g >= 100.0

    def test_covers_max_length(self):
        measures = [m(0, 1.0, 500.0)]
        assert 2.0 ** num_levels(measures) >= 500.0

    def test_full_cluster_job_clamped(self):
        # max dominant share 1.0 must not divide by zero.
        measures = [m(0, 1.0, 1.0, share=1.0)]
        assert num_levels(measures) >= 1


class TestComputePriorities:
    def test_empty(self):
        assert compute_priorities([]) == {}

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            compute_priorities([m(1, 1.0, 1.0), m(1, 2.0, 2.0)])

    def test_every_job_gets_finite_priority(self):
        measures = [m(i, float(i + 1), float(2 * i + 1)) for i in range(20)]
        prios = compute_priorities(measures)
        assert set(prios) == set(range(20))
        assert all(isinstance(p, int) and p >= 1 for p in prios.values())

    def test_short_small_jobs_first(self):
        """A tiny short job must outrank a huge long one."""
        prios = compute_priorities([m(0, 0.5, 1.0), m(1, 100.0, 200.0)])
        assert prios[0] < prios[1]

    def test_srpt_component_length_gates_category(self):
        """Equal volumes: the shorter job enters a category earlier."""
        prios = compute_priorities([m(0, 1.0, 2.0), m(1, 1.0, 64.0)])
        assert prios[0] < prios[1]

    def test_svf_component_volume_gates_packing(self):
        """Equal lengths, capacity-limited: small volumes packed first."""
        # At level 1 (cap 2): lengths 2 are eligible; volumes 1.5 and 30 —
        # only the small one packs.
        prios = compute_priorities([m(0, 1.5, 2.0), m(1, 30.0, 2.0)])
        assert prios[0] < prios[1]

    def test_equal_jobs_same_level(self):
        measures = [m(i, 0.1, 1.0) for i in range(5)]
        prios = compute_priorities(measures)
        assert len(set(prios.values())) == 1

    def test_knapsack_packs_within_category(self):
        """Within a category the oracle maximizes the packed count."""
        # Level 2 (cap 4), all lengths ≤ 4: volumes 1,1,1,1 pack at l=2;
        # the 3.5-volume job has to wait for a later level.
        measures = [m(i, 1.0, 4.0) for i in range(4)] + [m(9, 3.5, 4.0)]
        prios = compute_priorities(measures)
        small_levels = {prios[i] for i in range(4)}
        assert small_levels == {2}
        assert prios[9] > 2

    def test_deterministic(self):
        measures = [m(i, float(i % 3 + 1), float(i % 5 + 1)) for i in range(15)]
        assert compute_priorities(measures) == compute_priorities(measures)

    def test_paper_example_fig2(self):
        """The Fig. 2 instance: DollyMP schedules Jobs 2, 3 before Job 1.

        Job 1: full-capacity demand, 36 s; Jobs 2, 3: half demand, 8 s.
        (Volumes: 36, 4, 4 — lengths 36, 8, 8.)
        """
        measures = [
            m(1, 36.0, 36.0, share=1.0),
            m(2, 4.0, 8.0, share=0.5),
            m(3, 4.0, 8.0, share=0.5),
        ]
        prios = compute_priorities(measures)
        assert prios[2] == prios[3] < prios[1]


class TestPriorityGroups:
    def test_groups_sorted(self):
        groups = priority_groups({1: 2, 2: 1, 3: 2, 4: 5})
        assert groups == [(1, [2]), (2, [1, 3]), (5, [4])]

    def test_empty(self):
        assert priority_groups({}) == []


class TestDoublingCategoryBoundaries:
    """Pins of the 2^l category edges (ISSUE audit): eligibility at
    level l is length ≤ 2^l *inclusive*, and likewise the knapsack's
    volume capacity — a job sitting exactly on a power of two belongs to
    that category, not the next one."""

    def test_length_exactly_at_power_of_two_inclusive(self):
        # length == 2^1: eligible at level 1.
        assert compute_priorities([m(0, 1.0, 2.0)])[0] == 1

    def test_length_just_above_boundary_next_level(self):
        assert compute_priorities([m(0, 1.0, 2.0 + 1e-9)])[0] == 2

    def test_length_exactly_four_enters_level_two(self):
        assert compute_priorities([m(0, 1.0, 4.0)])[0] == 2

    def test_volume_exactly_at_capacity_inclusive(self):
        # volume == 2^1: the level-1 knapsack (capacity 2) packs it.
        assert compute_priorities([m(0, 2.0, 1.0)])[0] == 1

    def test_volume_just_above_capacity_next_level(self):
        assert compute_priorities([m(0, 2.0 + 1e-9, 1.0)])[0] == 2

    def test_sub_clamp_tiny_jobs_land_on_level_one(self):
        # Categories start at 2^1 — there is no level 0, so arbitrarily
        # short/small jobs clamp to priority 1.
        assert compute_priorities([m(0, 1e-6, 1e-6)])[0] == 1
        assert num_levels([m(0, 1e-6, 1e-6)]) >= 1

    def test_boundary_pair_splits_across_levels(self):
        # Two equal-volume jobs straddling the 2^1 edge: the on-boundary
        # job outranks the just-over one.
        prios = compute_priorities([m(0, 0.5, 2.0), m(1, 0.5, 2.0 + 1e-9)])
        assert prios[0] == 1
        assert prios[1] == 2


class TestVectorizedEquivalence:
    """The batched doubling-category pass == Algorithm 1's per-level
    reference loop, exactly, over arbitrary measure sets."""

    measures_st = st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
            st.floats(min_value=0.0, max_value=0.99, allow_nan=False),
        ),
        min_size=1,
        max_size=40,
    )

    @given(measures_st)
    @settings(max_examples=200, deadline=None)
    def test_vectorized_matches_scalar(self, triples):
        measures = [
            m(i, volume, length, share)
            for i, (volume, length, share) in enumerate(triples)
        ]
        assert compute_priorities(measures) == reference.compute_priorities(measures)
