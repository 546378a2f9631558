"""Unit tests for range determination (findHi) and adaptive targeting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ranges import AdaptiveRangeTargeter, find_range_upper_bound


def _stable_sort_definition(supports, work, target):
    """findHi as first written: a stable sort by support, then the prefix search."""
    supports = np.asarray(supports, dtype=np.int64)
    order = np.argsort(supports, kind="stable")
    cumulative = np.cumsum(np.asarray(work, dtype=np.int64)[order].astype(np.float64))
    position = int(np.searchsorted(cumulative, float(target), side="left"))
    return int(supports[order][min(position, supports.size - 1)]) + 1


class TestFindRangeUpperBound:
    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 40)), min_size=1, max_size=60),
        target_share=st.floats(0.0, 1.2),
        at_group_end=st.booleans(),
    )
    def test_matches_stable_sort_definition(self, rows, target_share, at_group_end):
        # Few distinct supports make long runs of ties, and zero work makes
        # prefix sums stand still inside a run.
        supports = np.array([support for support, _ in rows], dtype=np.int64)
        work = np.array([weight for _, weight in rows], dtype=np.int64)
        target = target_share * float(work.sum())
        if at_group_end:
            # Aim exactly at the cumulative work where some support's group ends.
            cut = supports[int(target_share * 1000) % supports.size]
            target = float(work[supports <= cut].sum())
        assert find_range_upper_bound(supports, work, target) == (
            _stable_sort_definition(supports, work, target))

    def test_simple_split(self):
        supports = np.array([0, 1, 2, 3, 4])
        work = np.array([10, 10, 10, 10, 10])
        # Target of 30 is reached by the three lowest-support vertices.
        assert find_range_upper_bound(supports, work, 30) == 3

    def test_bound_is_exclusive(self):
        supports = np.array([5, 5, 7])
        work = np.array([1, 1, 1])
        bound = find_range_upper_bound(supports, work, 2)
        assert bound == 6  # includes the two support-5 vertices, excludes 7

    def test_target_larger_than_total(self):
        supports = np.array([2, 9, 4])
        work = np.array([1, 1, 1])
        assert find_range_upper_bound(supports, work, 100) == 10  # max + 1

    def test_zero_target_still_covers_minimum(self):
        supports = np.array([3, 8])
        work = np.array([5, 5])
        assert find_range_upper_bound(supports, work, 0) == 4

    def test_unsorted_input(self):
        supports = np.array([9, 1, 5, 3])
        work = np.array([1, 1, 1, 1])
        assert find_range_upper_bound(supports, work, 2) == 4

    def test_ties_included_completely(self):
        supports = np.array([2, 2, 2, 7])
        work = np.array([4, 4, 4, 4])
        # Target 5 lands inside the tie group; the bound must still cover all
        # support-2 vertices because the bound is a support value, not a count.
        bound = find_range_upper_bound(supports, work, 5)
        assert bound == 3

    def test_empty_input(self):
        assert find_range_upper_bound(np.array([]), np.array([]), 10) == 1

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            find_range_upper_bound(np.array([1, 2]), np.array([1]), 5)

    def test_skewed_work_changes_split(self):
        supports = np.array([0, 1, 2, 3])
        uniform = find_range_upper_bound(supports, np.array([1, 1, 1, 1]), 2)
        skewed = find_range_upper_bound(supports, np.array([100, 1, 1, 1]), 2)
        assert uniform == 2
        assert skewed == 1  # the heavy vertex alone satisfies the target


class TestAdaptiveRangeTargeter:
    def test_even_split_without_overshoot(self):
        targeter = AdaptiveRangeTargeter(n_partitions=4)
        assert targeter.next_target(100) == pytest.approx(25.0)
        targeter.record_subset(25.0, 25.0)
        assert targeter.scaling_factor == pytest.approx(1.0)
        assert targeter.next_target(75) == pytest.approx(25.0)

    def test_overshoot_scales_down_next_target(self):
        targeter = AdaptiveRangeTargeter(n_partitions=4)
        target = targeter.next_target(100)
        targeter.record_subset(target, covered_work=50.0)  # 2x overshoot
        assert targeter.scaling_factor == pytest.approx(0.5)
        # Remaining work 50 over 3 partitions, scaled by 0.5.
        assert targeter.next_target(50) == pytest.approx(50 / 3 * 0.5)

    def test_scaling_factor_never_exceeds_one(self):
        targeter = AdaptiveRangeTargeter(n_partitions=3)
        targeter.record_subset(target_work=30.0, covered_work=10.0)
        assert targeter.scaling_factor == 1.0

    def test_exhaustion(self):
        targeter = AdaptiveRangeTargeter(n_partitions=2)
        assert not targeter.exhausted
        targeter.record_subset(1.0, 1.0)
        targeter.record_subset(1.0, 1.0)
        assert targeter.exhausted

    def test_zero_covered_work_resets_scaling(self):
        targeter = AdaptiveRangeTargeter(n_partitions=3)
        targeter.record_subset(10.0, 0.0)
        assert targeter.scaling_factor == 1.0

    def test_history_recorded(self):
        targeter = AdaptiveRangeTargeter(n_partitions=3)
        targeter.record_subset(10.0, 20.0)
        targeter.record_subset(5.0, 5.0)
        assert len(targeter.history) == 2
        assert targeter.history[0]["covered_work"] == 20.0
        assert targeter.history[1]["subset"] == 2

    def test_last_partition_gets_all_remaining(self):
        targeter = AdaptiveRangeTargeter(n_partitions=3)
        targeter.record_subset(1.0, 1.0)
        targeter.record_subset(1.0, 1.0)
        assert targeter.next_target(42.0) == pytest.approx(42.0)
