"""Tests for the MIL execution path and the R-tree baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.rtree import RTreeIndex
from repro.core.mil import bond_mil_search
from repro.errors import QueryError
from repro.metrics.euclidean import SquaredEuclidean
from repro.metrics.histogram import HistogramIntersection
from repro.storage.decomposed import DecomposedStore
from repro.workload.ground_truth import exact_top_k, result_scores_match


class TestMilExecutionPath:
    def test_matches_numpy_kernel_results(self, corel_histograms):
        store = DecomposedStore(corel_histograms)
        reference = exact_top_k(corel_histograms, corel_histograms[12], 10, HistogramIntersection())
        result = bond_mil_search(store, corel_histograms[12], 10)
        assert result_scores_match(result, reference)

    @pytest.mark.parametrize("period", [1, 4, 16, 64])
    def test_correct_for_any_period(self, corel_histograms, period):
        store = DecomposedStore(corel_histograms[:300])
        reference = exact_top_k(
            corel_histograms[:300], corel_histograms[7], 5, HistogramIntersection()
        )
        result = bond_mil_search(store, corel_histograms[7], 5, period=period)
        assert result_scores_match(result, reference)

    def test_prunes_candidates(self, corel_histograms):
        store = DecomposedStore(corel_histograms)
        result = bond_mil_search(store, corel_histograms[3], 10)
        _, remaining = result.candidate_trace.as_arrays()
        assert remaining[-1] < corel_histograms.shape[0]

    def test_invalid_inputs(self, corel_store, corel_histograms):
        with pytest.raises(QueryError):
            bond_mil_search(corel_store, corel_histograms[0], 0)
        with pytest.raises(QueryError):
            bond_mil_search(corel_store, np.array([1.0]), 5)


class TestRTree:
    def test_exact_in_low_dimensions(self):
        rng = np.random.default_rng(5)
        data = rng.random((800, 4))
        index = RTreeIndex(data)
        reference = exact_top_k(data, data[3], 10, SquaredEuclidean())
        result = index.search(data[3], 10)
        assert np.allclose(np.sort(result.scores), np.sort(reference.scores))

    def test_exact_in_higher_dimensions(self, clustered_vectors):
        index = RTreeIndex(clustered_vectors)
        reference = exact_top_k(clustered_vectors, clustered_vectors[9], 5, SquaredEuclidean())
        result = index.search(clustered_vectors[9], 5)
        assert np.allclose(np.sort(result.scores), np.sort(reference.scores))

    def test_low_dimensional_search_is_selective(self):
        rng = np.random.default_rng(6)
        data = rng.random((2000, 3))
        index = RTreeIndex(data, leaf_capacity=32)
        result = index.search(data[10], 5)
        # In 3 dimensions the best-first search should touch a small minority of the nodes.
        assert result.nodes_visited < 0.3 * index.node_count

    def test_k_larger_than_collection(self):
        rng = np.random.default_rng(7)
        data = rng.random((20, 3))
        index = RTreeIndex(data)
        result = index.search(data[0], 50)
        assert result.k == 20

    def test_invalid_inputs(self):
        rng = np.random.default_rng(8)
        data = rng.random((20, 3))
        with pytest.raises(QueryError):
            RTreeIndex(np.zeros((0, 3)))
        with pytest.raises(QueryError):
            RTreeIndex(data, leaf_capacity=1)
        index = RTreeIndex(data)
        with pytest.raises(QueryError):
            index.search(np.zeros(5), 3)
        with pytest.raises(QueryError):
            index.search(data[0], 0)

    def test_charges_cost(self):
        rng = np.random.default_rng(9)
        data = rng.random((500, 6))
        index = RTreeIndex(data)
        result = index.search(data[0], 5)
        assert result.cost.bytes_read > 0
