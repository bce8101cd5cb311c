"""Unit tests for the similarity metrics and multi-feature aggregates."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MetricError, QueryError
from repro.metrics.aggregates import (
    AverageAggregate,
    FuzzyMaxAggregate,
    FuzzyMinAggregate,
    WeightedAverageAggregate,
)
from repro.metrics.base import MetricKind
from repro.metrics.euclidean import EuclideanSimilarity, SquaredEuclidean
from repro.metrics.histogram import HistogramIntersection
from repro.metrics.weighted import WeightedSquaredEuclidean


class TestHistogramIntersection:
    def test_identical_histograms_score_one(self):
        metric = HistogramIntersection()
        histogram = np.array([0.5, 0.3, 0.2])
        assert metric.score(histogram, histogram)[0] == pytest.approx(1.0)

    def test_disjoint_histograms_score_zero(self):
        metric = HistogramIntersection()
        assert metric.score(np.array([1.0, 0.0]), np.array([0.0, 1.0]))[0] == pytest.approx(0.0)

    def test_score_matches_manual_sum(self, corel_histograms):
        metric = HistogramIntersection()
        query = corel_histograms[0]
        expected = np.minimum(corel_histograms, query).sum(axis=1)
        assert np.allclose(metric.score(corel_histograms, query), expected)

    def test_contributions_sum_to_score(self, corel_histograms):
        metric = HistogramIntersection()
        query = corel_histograms[1]
        total = np.zeros(corel_histograms.shape[0])
        for dimension in range(corel_histograms.shape[1]):
            total += metric.contributions(corel_histograms[:, dimension], query[dimension])
        assert np.allclose(total, metric.score(corel_histograms, query))

    def test_score_in_place_is_score_bitwise(self, corel_histograms):
        metric = HistogramIntersection()
        query = corel_histograms[2]
        expected = metric.score(corel_histograms, query)
        vectors = corel_histograms[10:400].copy()
        scores = metric.score_in_place(vectors, query)
        assert np.array_equal(scores, expected[10:400])
        # The minimums were taken in the caller's matrix itself.
        assert np.array_equal(vectors, np.minimum(corel_histograms[10:400], query))
        with pytest.raises(MetricError):
            metric.score_in_place(np.zeros((3, 4)), np.array([0.5, 0.5]))

    def test_kind_is_similarity(self):
        assert HistogramIntersection().kind is MetricKind.SIMILARITY
        assert HistogramIntersection().kind.larger_is_better

    def test_unnormalized_query_rejected(self):
        with pytest.raises(MetricError):
            HistogramIntersection().validate_query(np.array([0.7, 0.7]))

    def test_negative_query_rejected(self):
        with pytest.raises(MetricError):
            HistogramIntersection().validate_query(np.array([1.5, -0.5]))

    def test_unnormalized_allowed_when_disabled(self):
        metric = HistogramIntersection(require_normalized=False)
        assert metric.validate_query(np.array([0.7, 0.7])) is not None

    def test_dimensionality_mismatch(self):
        with pytest.raises(MetricError):
            HistogramIntersection().score(np.zeros((3, 4)), np.array([0.5, 0.5]))

    def test_best_first_orders_descending(self):
        metric = HistogramIntersection()
        order = metric.best_first(np.array([0.2, 0.9, 0.5]))
        assert list(order) == [1, 2, 0]

    def test_better(self):
        metric = HistogramIntersection()
        assert metric.better(0.9, 0.5)
        assert not metric.better(0.5, 0.9)


class TestSquaredEuclidean:
    def test_zero_distance_to_itself(self, clustered_vectors):
        metric = SquaredEuclidean()
        assert metric.score(clustered_vectors[3], clustered_vectors[3])[0] == pytest.approx(0.0)

    def test_matches_numpy(self, clustered_vectors):
        metric = SquaredEuclidean()
        query = clustered_vectors[0]
        expected = np.sum((clustered_vectors - query) ** 2, axis=1)
        assert np.allclose(metric.score(clustered_vectors, query), expected)

    def test_contributions_sum_to_score(self, clustered_vectors):
        metric = SquaredEuclidean()
        query = clustered_vectors[1]
        total = np.zeros(clustered_vectors.shape[0])
        for dimension in range(clustered_vectors.shape[1]):
            total += metric.contributions(clustered_vectors[:, dimension], query[dimension])
        assert np.allclose(total, metric.score(clustered_vectors, query))

    def test_kind_is_distance(self):
        assert SquaredEuclidean().kind is MetricKind.DISTANCE
        assert not SquaredEuclidean().kind.larger_is_better

    def test_query_outside_unit_box_rejected(self):
        with pytest.raises(MetricError):
            SquaredEuclidean().validate_query(np.array([0.5, 1.5]))

    def test_unit_box_check_can_be_disabled(self):
        metric = SquaredEuclidean(require_unit_box=False)
        assert metric.validate_query(np.array([2.0, -1.0])) is not None

    def test_score_in_place_defaults_to_score(self, clustered_vectors):
        metric = SquaredEuclidean()
        query = clustered_vectors[3]
        vectors = clustered_vectors.copy()
        assert np.array_equal(
            metric.score_in_place(vectors, query), metric.score(clustered_vectors, query)
        )

    def test_best_first_orders_ascending(self):
        order = SquaredEuclidean().best_first(np.array([0.2, 0.9, 0.5]))
        assert list(order) == [0, 2, 1]


class TestEuclideanSimilarity:
    def test_identical_vectors_have_similarity_one(self):
        metric = EuclideanSimilarity()
        vector = np.array([0.5, 0.25, 0.75])
        assert metric.score(vector, vector)[0] == pytest.approx(1.0)

    def test_monotone_with_distance(self, clustered_vectors):
        similarity = EuclideanSimilarity().score(clustered_vectors, clustered_vectors[0])
        distance = SquaredEuclidean().score(clustered_vectors, clustered_vectors[0])
        assert np.array_equal(np.argsort(-similarity), np.argsort(distance))

    def test_finalize_requires_positive_dimensionality(self):
        with pytest.raises(MetricError):
            EuclideanSimilarity.finalize(np.array([0.1]), dimensionality=0)


class TestWeightedSquaredEuclidean:
    def test_uniform_weights_match_unweighted(self, clustered_vectors):
        weighted = WeightedSquaredEuclidean(np.ones(clustered_vectors.shape[1]))
        unweighted = SquaredEuclidean()
        query = clustered_vectors[2]
        assert np.allclose(weighted.score(clustered_vectors, query), unweighted.score(clustered_vectors, query))

    def test_weights_scale_contributions(self):
        metric = WeightedSquaredEuclidean(np.array([2.0, 1.0]))
        contributions = metric.contributions(np.array([0.0]), 1.0, dimension=0)
        assert contributions[0] == pytest.approx(2.0)

    def test_contribution_requires_dimension(self):
        metric = WeightedSquaredEuclidean(np.array([1.0, 1.0]))
        with pytest.raises(MetricError):
            metric.contributions(np.array([0.0]), 1.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(QueryError):
            WeightedSquaredEuclidean(np.array([1.0, -1.0]))

    def test_all_zero_weights_rejected(self):
        with pytest.raises(QueryError):
            WeightedSquaredEuclidean(np.zeros(3))

    def test_normalize_to_dimensionality(self):
        metric = WeightedSquaredEuclidean(np.array([1.0, 3.0]), normalize_to_dimensionality=True)
        assert metric.weights.sum() == pytest.approx(2.0)

    def test_for_subspace_zeroes_other_dimensions(self):
        metric = WeightedSquaredEuclidean.for_subspace(5, [1, 3])
        assert np.array_equal(metric.active_dimensions(), np.array([1, 3]))
        assert metric.weight_of(0) == 0.0

    def test_for_subspace_rejects_empty(self):
        with pytest.raises(QueryError):
            WeightedSquaredEuclidean.for_subspace(5, [])

    def test_for_subspace_rejects_out_of_range(self):
        with pytest.raises(QueryError):
            WeightedSquaredEuclidean.for_subspace(5, [9])

    def test_query_dimension_mismatch(self):
        metric = WeightedSquaredEuclidean(np.ones(4))
        with pytest.raises(MetricError):
            metric.validate_query(np.ones(3) * 0.5)


class TestAggregates:
    def test_average(self):
        aggregate = AverageAggregate()
        combined = aggregate.combine([np.array([0.2, 0.4]), np.array([0.6, 0.0])])
        assert np.allclose(combined, [0.4, 0.2])

    def test_weighted_average(self):
        aggregate = WeightedAverageAggregate([3.0, 1.0])
        combined = aggregate.combine([np.array([1.0]), np.array([0.0])])
        assert combined[0] == pytest.approx(0.75)

    def test_weighted_average_normalises_weights(self):
        aggregate = WeightedAverageAggregate([2.0, 2.0])
        assert np.allclose(aggregate.weights, [0.5, 0.5])

    def test_weighted_average_wrong_component_count(self):
        aggregate = WeightedAverageAggregate([1.0, 1.0])
        with pytest.raises(QueryError):
            aggregate.combine([np.array([1.0])])

    def test_weighted_average_invalid_weights(self):
        with pytest.raises(QueryError):
            WeightedAverageAggregate([0.0, 0.0])

    def test_fuzzy_min_and_max(self):
        scores = [np.array([0.2, 0.9]), np.array([0.5, 0.1])]
        assert np.allclose(FuzzyMinAggregate().combine(scores), [0.2, 0.1])
        assert np.allclose(FuzzyMaxAggregate().combine(scores), [0.5, 0.9])

    def test_combine_bounds_monotone(self):
        aggregate = AverageAggregate()
        lower, upper = aggregate.combine_bounds(
            [np.array([0.1]), np.array([0.2])], [np.array([0.3]), np.array([0.4])]
        )
        assert lower[0] <= upper[0]

    def test_misaligned_components_rejected(self):
        with pytest.raises(QueryError):
            AverageAggregate().combine([np.array([1.0]), np.array([1.0, 2.0])])

    def test_empty_components_rejected(self):
        with pytest.raises(QueryError):
            AverageAggregate().combine([])
