"""Tests for compressed BOND, weighted search and subspace search.

Weighted and subspace k-NN are BOND over a
:class:`~repro.metrics.weighted.WeightedSquaredEuclidean` metric, which the
searcher pairs with the weighted bound by default.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.compressed import CompressedBondSearcher, contribution_interval
from repro.core.bond import BondSearcher
from repro.core.sequential import SequentialScan
from repro.datasets.weights import make_skewed_weights
from repro.errors import QueryError
from repro.metrics.euclidean import SquaredEuclidean
from repro.metrics.histogram import HistogramIntersection
from repro.metrics.weighted import WeightedSquaredEuclidean
from repro.storage.compressed import CompressedStore
from repro.storage.decomposed import DecomposedStore
from repro.storage.rowstore import RowStore
from repro.workload.ground_truth import exact_top_k, result_scores_match


class TestContributionInterval:
    def test_histogram_interval_is_monotone(self):
        metric = HistogramIntersection()
        lower, upper = contribution_interval(
            metric, np.array([0.1, 0.4]), np.array([0.2, 0.6]), 0.3
        )
        assert np.allclose(lower, [0.1, 0.3])
        assert np.allclose(upper, [0.2, 0.3])

    def test_euclidean_interval_containing_query_has_zero_lower(self):
        metric = SquaredEuclidean()
        lower, upper = contribution_interval(metric, np.array([0.2]), np.array([0.6]), 0.4)
        assert lower[0] == 0.0
        assert upper[0] == pytest.approx(max((0.2 - 0.4) ** 2, (0.6 - 0.4) ** 2))

    def test_euclidean_interval_not_containing_query(self):
        metric = SquaredEuclidean()
        lower, upper = contribution_interval(metric, np.array([0.6]), np.array([0.8]), 0.4)
        assert lower[0] == pytest.approx((0.6 - 0.4) ** 2)
        assert upper[0] == pytest.approx((0.8 - 0.4) ** 2)

    def test_interval_brackets_truth_for_random_data(self):
        rng = np.random.default_rng(3)
        truth = rng.random(200)
        noise = rng.random(200) * 0.05
        lower_values, upper_values = truth - noise, truth + noise
        for metric in (HistogramIntersection(require_normalized=False), SquaredEuclidean()):
            query_value = 0.5
            lower, upper = contribution_interval(metric, lower_values, upper_values, query_value)
            actual = metric.contributions(truth, query_value)
            assert np.all(lower <= actual + 1e-12)
            assert np.all(upper >= actual - 1e-12)


class TestCompressedBond:
    def test_exact_results_histogram(self, corel_histograms):
        compressed = CompressedStore(DecomposedStore(corel_histograms), bits=8)
        searcher = CompressedBondSearcher(compressed, metric=HistogramIntersection())
        scan = SequentialScan(RowStore(corel_histograms), metric=HistogramIntersection())
        for query_index in (2, 50):
            assert result_scores_match(
                searcher.search(corel_histograms[query_index], 10),
                scan.search(corel_histograms[query_index], 10),
            )

    def test_exact_results_euclidean(self, clustered_vectors):
        compressed = CompressedStore(DecomposedStore(clustered_vectors), bits=8)
        searcher = CompressedBondSearcher(compressed, metric=SquaredEuclidean())
        reference = exact_top_k(clustered_vectors, clustered_vectors[8], 10, SquaredEuclidean())
        assert result_scores_match(searcher.search(clustered_vectors[8], 10), reference)

    def test_reads_fewer_bytes_than_exact_bond(self, corel_histograms):
        from repro.core.bond import BondSearcher

        exact_store = DecomposedStore(corel_histograms)
        exact_result = BondSearcher(exact_store, metric=HistogramIntersection()).search(
            corel_histograms[9], 10
        )
        compressed = CompressedStore(DecomposedStore(corel_histograms), bits=8)
        compressed_result = CompressedBondSearcher(compressed, metric=HistogramIntersection()).search(
            corel_histograms[9], 10
        )
        assert compressed_result.cost.bytes_read < exact_result.cost.bytes_read

    def test_invalid_k(self, corel_histograms):
        compressed = CompressedStore(DecomposedStore(corel_histograms))
        with pytest.raises(QueryError):
            CompressedBondSearcher(compressed).search(corel_histograms[0], 0)

    def test_query_dimensionality_checked(self, corel_histograms):
        compressed = CompressedStore(DecomposedStore(corel_histograms))
        with pytest.raises(QueryError):
            CompressedBondSearcher(compressed).search(np.array([1.0]), 3)


def weighted_search(store, query, weights, k, *, normalize_weights=True):
    metric = WeightedSquaredEuclidean(weights, normalize_to_dimensionality=normalize_weights)
    return BondSearcher(store, metric=metric).search(query, k)


def subspace_search(store, query, dimensions, k):
    metric = WeightedSquaredEuclidean.for_subspace(store.dimensionality, np.asarray(dimensions))
    return BondSearcher(store, metric=metric).search(query, k)


class TestWeightedSearch:
    def test_matches_weighted_scan(self, clustered_vectors):
        weights = make_skewed_weights(clustered_vectors.shape[1], seed=2)
        store = DecomposedStore(clustered_vectors)
        result = weighted_search(store, clustered_vectors[3], weights, 10)
        metric = WeightedSquaredEuclidean(weights, normalize_to_dimensionality=True)
        reference = exact_top_k(clustered_vectors, clustered_vectors[3], 10, metric)
        assert result_scores_match(result, reference)

    def test_member_query_is_top_result(self, clustered_vectors):
        weights = make_skewed_weights(clustered_vectors.shape[1], seed=4)
        store = DecomposedStore(clustered_vectors)
        result = weighted_search(store, clustered_vectors[17], weights, 1)
        assert result.oids[0] == 17
        assert result.scores[0] == pytest.approx(0.0, abs=1e-12)

    def test_skewed_weights_prune_better_than_uniform(self, clustered_vectors):
        store_uniform = DecomposedStore(clustered_vectors)
        store_skewed = DecomposedStore(clustered_vectors)
        query = clustered_vectors[5]
        uniform = weighted_search(store_uniform, query, np.ones(clustered_vectors.shape[1]), 10)
        skewed_weights = make_skewed_weights(
            clustered_vectors.shape[1], heavy_fraction=0.1, heavy_mass=0.95, seed=5
        )
        skewed = weighted_search(store_skewed, query, skewed_weights, 10)
        _, uniform_remaining = uniform.candidate_trace.as_arrays()
        _, skewed_remaining = skewed.candidate_trace.as_arrays()
        assert skewed_remaining[-1] <= uniform_remaining[-1]


class TestSubspaceSearch:
    def test_matches_brute_force_on_the_subspace(self, clustered_vectors):
        store = DecomposedStore(clustered_vectors)
        dimensions = [1, 4, 7, 9, 15]
        result = subspace_search(store, clustered_vectors[2], dimensions, 10)
        reference = exact_top_k(
            clustered_vectors[:, dimensions],
            clustered_vectors[2, dimensions],
            10,
            SquaredEuclidean(),
        )
        assert np.allclose(np.sort(result.scores), np.sort(reference.scores))

    def test_irrelevant_fragments_never_processed(self, clustered_vectors):
        store = DecomposedStore(clustered_vectors)
        result = subspace_search(store, clustered_vectors[2], [0, 5], 5)
        assert result.dimensions_processed <= 2

    def test_single_dimension_subspace(self, clustered_vectors):
        store = DecomposedStore(clustered_vectors)
        result = subspace_search(store, clustered_vectors[2], [3], 5)
        expected = np.sort(np.abs(clustered_vectors[:, 3] - clustered_vectors[2, 3]) ** 2)[:5]
        assert np.allclose(np.sort(result.scores), expected)
