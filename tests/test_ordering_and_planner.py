"""Unit tests for dimension orderings and pruning schedules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ordering import (
    DataSkewOrdering,
    DecreasingQueryOrdering,
    IncreasingQueryOrdering,
    OriginalOrdering,
    RandomOrdering,
)
from repro.core.planner import (
    FixedPeriodSchedule,
    GeometricSchedule,
    HandOffSchedule,
    MassAwareSchedule,
    recommend_period,
)
from repro.errors import QueryError


class TestOrderings:
    def test_decreasing_sorts_by_query_value(self):
        order = DecreasingQueryOrdering().order(np.array([0.1, 0.7, 0.2]))
        assert list(order) == [1, 2, 0]

    def test_decreasing_is_a_permutation(self, corel_histograms):
        order = DecreasingQueryOrdering().order(corel_histograms[0])
        assert sorted(order) == list(range(corel_histograms.shape[1]))

    def test_decreasing_with_weights_uses_w_q_squared(self):
        query = np.array([0.9, 0.1])
        weights = np.array([0.01, 100.0])
        order = DecreasingQueryOrdering().order(query, weights=weights)
        assert list(order) == [1, 0]

    def test_increasing_is_reverse_of_decreasing_for_distinct_values(self):
        query = np.array([0.3, 0.9, 0.1, 0.5])
        decreasing = DecreasingQueryOrdering().order(query)
        increasing = IncreasingQueryOrdering().order(query)
        assert list(increasing) == list(decreasing[::-1])

    def test_random_is_permutation_and_reproducible(self):
        query = np.linspace(0, 1, 20)
        first = RandomOrdering(seed=3).order(query)
        second = RandomOrdering(seed=3).order(query)
        assert np.array_equal(first, second)
        assert sorted(first) == list(range(20))

    def test_original_keeps_storage_order(self):
        order = OriginalOrdering().order(np.array([0.5, 0.1, 0.9]))
        assert list(order) == [0, 1, 2]

    def test_data_skew_falls_back_without_statistics(self):
        query = np.array([0.1, 0.7, 0.2])
        assert list(DataSkewOrdering().order(query)) == list(DecreasingQueryOrdering().order(query))

    def test_data_skew_uses_dimension_means(self):
        query = np.array([0.5, 0.5])
        means = np.array([0.5, 0.0])  # dimension 1 is where the query is unusual
        order = DataSkewOrdering().order(query, dimension_means=means)
        assert list(order) == [1, 0]

    def test_data_skew_shape_mismatch(self):
        with pytest.raises(QueryError):
            DataSkewOrdering().order(np.array([0.5, 0.5]), dimension_means=np.array([0.5]))

    def test_empty_query_rejected(self):
        with pytest.raises(QueryError):
            DecreasingQueryOrdering().order(np.array([]))

    def test_stable_tie_break(self):
        order = DecreasingQueryOrdering().order(np.array([0.5, 0.5, 0.5]))
        assert list(order) == [0, 1, 2]


class TestFixedSchedule:
    def test_first_and_next_batches(self):
        schedule = FixedPeriodSchedule(8)
        assert schedule.first_batch(166) == 8
        assert schedule.next_batch(
            dimensionality=166, dimensions_processed=8, candidates_before=100, candidates_after=50
        ) == 8

    def test_clamps_to_remaining_dimensions(self):
        schedule = FixedPeriodSchedule(8)
        assert schedule.first_batch(5) == 5
        assert schedule.next_batch(
            dimensionality=10, dimensions_processed=8, candidates_before=10, candidates_after=10
        ) == 2

    def test_invalid_period(self):
        with pytest.raises(QueryError):
            FixedPeriodSchedule(0)

    def test_period_property(self):
        assert FixedPeriodSchedule(16).period == 16


class TestHandOffSchedule:
    def next_batch(self, schedule, processed, *, positional):
        return schedule.next_batch(
            dimensionality=20,
            dimensions_processed=processed,
            candidates_before=100,
            candidates_after=50,
            positional=positional,
        )

    def test_the_paper_period_until_positional(self):
        schedule = HandOffSchedule()
        assert schedule.first_batch(166, np.ones(167)) == 8
        assert schedule.first_batch(5) == 5
        assert self.next_batch(schedule, 8, positional=False) == 8
        assert self.next_batch(schedule, 16, positional=False) == 4

    def test_zero_once_positional(self):
        assert self.next_batch(HandOffSchedule(), 8, positional=True) == 0


class TestMassAwareSchedule:
    @staticmethod
    def prefix_mass(query) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum(np.sort(np.asarray(query, dtype=float))[::-1])])

    @staticmethod
    def after_prune(schedule, processed, positional, dimensionality=166) -> int:
        return schedule.next_batch(
            dimensionality=dimensionality,
            dimensions_processed=processed,
            candidates_before=1000,
            candidates_after=10,
            positional=positional,
        )

    def test_first_block_is_the_shortest_prefix_reaching_the_share(self):
        schedule = MassAwareSchedule()
        query = [0.3, 0.25, 0.2, 0.1, 0.05, 0.05, 0.05]  # 0.75 after three, 0.55 after two
        assert schedule.first_batch(7, self.prefix_mass(query)) == 3
        # The share is of T(q), whatever T(q) is.
        assert schedule.first_batch(7, 5.0 * self.prefix_mass(query)) == 3

    def test_share_exceeds_the_hq_pruning_threshold(self):
        assert MassAwareSchedule.MASS_SHARE > 0.5

    def test_first_block_is_clamped_to_two_and_eight(self):
        schedule = MassAwareSchedule()
        dominant = [0.9] + [0.01] * 10
        assert schedule.first_batch(11, self.prefix_mass(dominant)) == 2
        flat = [1.0 / 100] * 100
        assert schedule.first_batch(100, self.prefix_mass(flat)) == 8
        assert schedule.first_batch(100, self.prefix_mass([0.0] * 100)) == 2  # all-zero query

    def test_first_block_never_exceeds_the_dimensionality(self):
        schedule = MassAwareSchedule()
        assert schedule.first_batch(1, self.prefix_mass([1.0])) == 1
        assert schedule.first_batch(5) == 5

    def test_without_mass_the_first_block_is_the_papers_eight(self):
        assert MassAwareSchedule().first_batch(166) == 8

    def test_blocks_double_once_the_candidates_are_positional(self):
        schedule = MassAwareSchedule()
        schedule.first_batch(166)
        assert self.after_prune(schedule, 8, positional=False) == 8
        assert self.after_prune(schedule, 16, positional=False) == 8
        assert [
            self.after_prune(schedule, processed, positional=True)
            for processed in (24, 32, 48, 80)
        ] == [8, 16, 32, 64]
        assert self.after_prune(schedule, 144, positional=True) == 22  # clamped to the end

    def test_first_batch_resets_the_doubling(self):
        schedule = MassAwareSchedule()
        schedule.first_batch(166)
        for processed in (8, 16, 32):
            self.after_prune(schedule, processed, positional=True)
        schedule.first_batch(166)
        assert self.after_prune(schedule, 8, positional=True) == 8


class TestGeometricSchedule:
    def test_grows_when_pruning_stalls(self):
        schedule = GeometricSchedule(initial_period=4, growth_factor=2.0, minimum_effect=0.1)
        schedule.first_batch(128)
        grown = schedule.next_batch(
            dimensionality=128, dimensions_processed=4, candidates_before=100, candidates_after=99
        )
        assert grown == 8

    def test_does_not_grow_while_pruning_works(self):
        schedule = GeometricSchedule(initial_period=4, growth_factor=2.0, minimum_effect=0.1)
        schedule.first_batch(128)
        steady = schedule.next_batch(
            dimensionality=128, dimensions_processed=4, candidates_before=100, candidates_after=40
        )
        assert steady == 4

    def test_respects_maximum_period(self):
        schedule = GeometricSchedule(initial_period=16, growth_factor=10.0, maximum_period=32)
        schedule.first_batch(256)
        grown = schedule.next_batch(
            dimensionality=256, dimensions_processed=16, candidates_before=10, candidates_after=10
        )
        assert grown == 32

    def test_first_batch_resets_state(self):
        schedule = GeometricSchedule(initial_period=4)
        schedule.first_batch(64)
        schedule.next_batch(dimensionality=64, dimensions_processed=4, candidates_before=10, candidates_after=10)
        assert schedule.first_batch(64) == 4

    def test_invalid_parameters(self):
        with pytest.raises(QueryError):
            GeometricSchedule(initial_period=0)
        with pytest.raises(QueryError):
            GeometricSchedule(growth_factor=0.5)
        with pytest.raises(QueryError):
            GeometricSchedule(minimum_effect=1.5)
        with pytest.raises(QueryError):
            GeometricSchedule(initial_period=16, maximum_period=8)


class TestRecommendPeriod:
    def test_matches_paper_setting_for_166_dimensions(self):
        assert recommend_period(166, target_attempts=20) == 8

    def test_never_below_two(self):
        assert recommend_period(4) == 2

    def test_invalid_inputs(self):
        with pytest.raises(QueryError):
            recommend_period(0)
        with pytest.raises(QueryError):
            recommend_period(10, target_attempts=0)
