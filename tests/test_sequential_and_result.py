"""Unit tests for the sequential-scan baselines and the result objects."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.result import PruningTrace, SearchResult
from repro.core.sequential import PartialAbandonScan, SequentialScan
from repro.errors import QueryError
from repro.metrics.euclidean import SquaredEuclidean
from repro.metrics.histogram import HistogramIntersection
from repro.storage.rowstore import RowStore
from repro.workload.ground_truth import exact_top_k, result_scores_match


class TestSequentialScan:
    def test_matches_brute_force_histogram(self, corel_rowstore, corel_histograms):
        scan = SequentialScan(corel_rowstore, metric=HistogramIntersection())
        result = scan.search(corel_histograms[4], 10)
        reference = exact_top_k(corel_histograms, corel_histograms[4], 10, HistogramIntersection())
        assert result_scores_match(result, reference)

    def test_matches_brute_force_euclidean(self, clustered_rowstore, clustered_vectors):
        scan = SequentialScan(clustered_rowstore, metric=SquaredEuclidean())
        result = scan.search(clustered_vectors[4], 10)
        reference = exact_top_k(clustered_vectors, clustered_vectors[4], 10, SquaredEuclidean())
        assert result_scores_match(result, reference)

    def test_reads_whole_table(self, corel_rowstore, corel_histograms):
        scan = SequentialScan(corel_rowstore, metric=HistogramIntersection())
        result = scan.search(corel_histograms[0], 5)
        assert result.cost.bytes_read >= corel_histograms.size * 8

    def test_small_batches_give_same_answer(self, corel_histograms):
        metric = HistogramIntersection()
        small = SequentialScan(RowStore(corel_histograms), metric=metric, batch_size=7)
        large = SequentialScan(RowStore(corel_histograms), metric=metric, batch_size=10_000)
        assert result_scores_match(
            small.search(corel_histograms[3], 10), large.search(corel_histograms[3], 10)
        )

    def test_invalid_k(self, corel_rowstore, corel_histograms):
        with pytest.raises(QueryError):
            SequentialScan(corel_rowstore).search(corel_histograms[0], -1)

    def test_query_dimensionality_checked(self, corel_rowstore):
        with pytest.raises(QueryError):
            SequentialScan(corel_rowstore).search(np.array([1.0]), 1)


class TestPartialAbandonScan:
    def test_matches_brute_force_histogram(self, corel_rowstore, corel_histograms):
        scan = PartialAbandonScan(corel_rowstore, metric=HistogramIntersection(), check_period=8)
        result = scan.search(corel_histograms[6], 10)
        reference = exact_top_k(corel_histograms, corel_histograms[6], 10, HistogramIntersection())
        assert result_scores_match(result, reference)

    def test_matches_brute_force_euclidean(self, clustered_rowstore, clustered_vectors):
        scan = PartialAbandonScan(clustered_rowstore, metric=SquaredEuclidean(), check_period=8)
        result = scan.search(clustered_vectors[6], 10)
        reference = exact_top_k(clustered_vectors, clustered_vectors[6], 10, SquaredEuclidean())
        assert result_scores_match(result, reference)

    def test_touches_fewer_values_than_full_scan(self, corel_rowstore, corel_histograms):
        scan = PartialAbandonScan(corel_rowstore, metric=HistogramIntersection(), check_period=8)
        result = scan.search(corel_histograms[6], 10)
        assert result.cost.tuples_scanned < corel_histograms.size

    def test_invalid_check_period(self, corel_rowstore):
        with pytest.raises(QueryError):
            PartialAbandonScan(corel_rowstore, check_period=0)


class TestPruningTrace:
    def test_record_and_arrays(self):
        trace = PruningTrace()
        trace.record(0, 100)
        trace.record(8, 40)
        dimensions, remaining = trace.as_arrays()
        assert list(dimensions) == [0, 8]
        assert list(remaining) == [100, 40]

    def test_pruned_at(self):
        trace = PruningTrace()
        trace.record(0, 100)
        trace.record(8, 40)
        trace.record(16, 10)
        assert trace.pruned_at(0, total=100) == 0
        assert trace.pruned_at(9, total=100) == 60
        assert trace.pruned_at(100, total=100) == 90


class TestSearchResult:
    def test_recall_against(self):
        first = SearchResult(oids=np.array([1, 2, 3]), scores=np.array([3.0, 2.0, 1.0]))
        second = SearchResult(oids=np.array([2, 3, 4]), scores=np.array([3.0, 2.0, 1.0]))
        assert first.recall_against(second) == pytest.approx(2 / 3)

    def test_recall_against_empty_reference(self):
        first = SearchResult(oids=np.array([1]), scores=np.array([1.0]))
        empty = SearchResult(oids=np.array([]), scores=np.array([]))
        assert first.recall_against(empty) == 1.0

    def test_k_property_and_oid_set(self):
        result = SearchResult(oids=np.array([5, 9]), scores=np.array([1.0, 0.5]))
        assert result.k == 2
        assert result.oid_set() == {5, 9}

    def test_arrays_coerced_to_types(self):
        result = SearchResult(oids=[1, 2], scores=[0.5, 0.25])
        assert result.oids.dtype == np.int64
        assert result.scores.dtype == np.float64
