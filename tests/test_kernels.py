"""Unit and property tests for the fused block-scan kernel layer.

The kernels' contract is *bitwise* equivalence with the per-dimension metric
path: every column of a contribution block, and every accumulated partial
score, must be bit-for-bit identical to what the seed loop computes — fusion
may only remove interpreter overhead, never change a float.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import accumulate, column_values

from repro.core.candidates import CandidateSet
from repro.errors import MetricError, StorageError
from repro.kernels import (
    GenericBlockKernel,
    HistogramIntersectionKernel,
    SquaredEuclideanKernel,
    WeightedSquaredEuclideanKernel,
    accumulate_columns,
    kernel_for,
)
from repro.metrics.base import Metric, MetricKind
from repro.metrics.euclidean import EuclideanSimilarity, SquaredEuclidean
from repro.metrics.histogram import HistogramIntersection
from repro.metrics.weighted import WeightedSquaredEuclidean
from repro.storage.decomposed import DecomposedStore


def _random_case(seed: int, rows: int = 60, dims: int = 12):
    rng = np.random.default_rng(seed)
    values = rng.random((rows, dims))
    query = rng.random(dims)
    weights = rng.uniform(0.1, 3.0, size=dims)
    dimensions = rng.permutation(dims).astype(np.int64)[:8]
    return values, query, weights, dimensions


def _metric_kernel_pairs(weights):
    return [
        (HistogramIntersection(require_normalized=False), HistogramIntersectionKernel()),
        (SquaredEuclidean(require_unit_box=False), SquaredEuclideanKernel()),
        (WeightedSquaredEuclidean(weights), WeightedSquaredEuclideanKernel(weights)),
    ]


class TestKernelDispatch:
    def test_kernel_for_known_metrics(self):
        assert isinstance(kernel_for(HistogramIntersection()), HistogramIntersectionKernel)
        assert isinstance(kernel_for(SquaredEuclidean()), SquaredEuclideanKernel)
        assert isinstance(kernel_for(EuclideanSimilarity()), SquaredEuclideanKernel)
        weighted = WeightedSquaredEuclidean(np.array([1.0, 2.0]))
        assert isinstance(kernel_for(weighted), WeightedSquaredEuclideanKernel)

    def test_kernel_for_custom_metric_falls_back(self):
        class Manhattan(Metric):
            name = "manhattan"

            @property
            def kind(self):
                return MetricKind.DISTANCE

            def contributions(self, column, query_value, *, dimension=None):
                return np.abs(np.asarray(column, dtype=np.float64) - float(query_value))

            def score(self, vectors, query):
                return np.abs(np.atleast_2d(vectors) - query[None, :]).sum(axis=1)

        kernel = kernel_for(Manhattan())
        assert isinstance(kernel, GenericBlockKernel)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_contribution_block_matches_per_dimension_contributions(seed):
    """Each block column is bit-for-bit the metric's per-dimension output."""
    values, query, weights, dimensions = _random_case(seed)
    block = values[:, dimensions]
    for metric, kernel in _metric_kernel_pairs(weights):
        fused = kernel.contribution_block(block, query[dimensions], dimensions)
        for position, dimension in enumerate(dimensions):
            expected = metric.contributions(
                block[:, position], query[int(dimension)], dimension=int(dimension)
            )
            assert np.array_equal(fused[:, position], expected), metric.name


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_accumulate_scan_matches_block_accumulation(seed):
    """The zero-copy column scan accumulates the exact same floats."""
    values, query, weights, dimensions = _random_case(seed)
    columns = [np.ascontiguousarray(values[:, int(d)]) for d in dimensions]
    block = values[:, dimensions]
    for metric, kernel in _metric_kernel_pairs(weights):
        expected = np.zeros(values.shape[0])
        accumulate_columns(
            expected, kernel.contribution_block(block, query[dimensions], dimensions)
        )
        scanned = np.zeros(values.shape[0])
        workspace = np.empty(values.shape[0])
        kernel.accumulate_scan(columns, query[dimensions], dimensions, scanned, workspace)
        assert np.array_equal(scanned, expected), metric.name


def test_generic_kernel_matches_metric():
    values, query, weights, dimensions = _random_case(3)
    metric = WeightedSquaredEuclidean(weights)
    generic = GenericBlockKernel(metric)
    specialised = WeightedSquaredEuclideanKernel(weights)
    block = values[:, dimensions]
    assert np.array_equal(
        generic.contribution_block(block, query[dimensions], dimensions),
        specialised.contribution_block(block, query[dimensions], dimensions),
    )


def test_accumulate_columns_is_left_to_right():
    block = np.array([[1e16, 1.0, -1e16], [1.0, 2.0, 3.0]])
    target = np.zeros(2)
    accumulate_columns(target, block)
    # ((0 + 1e16) + 1) + -1e16 == 0.0 exactly in float64; a pairwise or
    # reordered sum would produce 1.0.
    assert target[0] == ((0.0 + 1e16) + 1.0) + -1e16
    assert target[1] == 6.0


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("columns", [1, 8, 166])
@pytest.mark.parametrize("rows", [1, 2, 3, 257])
def test_accumulate_columns_is_the_per_column_left_fold(rows, columns, order):
    """The reduce-based fold adds exactly like ``target += block[:, j]`` per
    column, whatever the block layout.  One row is the trap: numpy reduces a
    contiguous axis pairwise, which differs in the low bits."""
    rng = np.random.default_rng(rows * 1000 + columns)
    for _ in range(20):
        # Magnitudes spanning 16 decades make any reassociation visible.
        block = rng.standard_normal((rows, columns)) * 10.0 ** rng.integers(-8, 8, (rows, columns))
        block = np.asarray(block, order=order)
        start = rng.standard_normal(rows)
        expected = start.copy()
        for position in range(columns):
            expected += block[:, position]
        folded = start.copy()
        accumulate_columns(folded, block)
        assert np.array_equal(folded, expected)


def test_accumulate_columns_rejects_misaligned_block():
    with pytest.raises(MetricError):
        accumulate_columns(np.zeros(3), np.zeros((4, 2)))


class TestCandidateWorkspace:
    def test_prune_compacts_in_place(self, corel_store):
        candidates = CandidateSet(corel_store, track_remaining_sums=True)
        scores_buffer = candidates.partial_scores.base
        keep = np.zeros(len(candidates), dtype=bool)
        keep[::7] = True
        candidates.prune(keep)
        # Same backing buffers after pruning: the workspace never reallocates.
        assert candidates.partial_scores.base is scores_buffer
        assert np.array_equal(candidates.oids, np.flatnonzero(keep))

    def test_block_values_match_column_values(self, corel_store):
        candidates = CandidateSet(corel_store)
        dimensions = np.array([5, 0, 3], dtype=np.int64)
        block = candidates.block_values(dimensions)
        for position, dimension in enumerate(dimensions):
            assert np.array_equal(
                block[:, position], column_values(corel_store, candidates, int(dimension))
            )

    def test_accumulate_block_matches_repeated_accumulate(self, corel_store):
        reference = CandidateSet(corel_store, track_partial_sums=True, track_remaining_sums=True)
        blocked = CandidateSet(corel_store, track_partial_sums=True, track_remaining_sums=True)
        dimensions = np.array([2, 7, 1], dtype=np.int64)
        block = blocked.block_values(dimensions)
        contributions = np.sqrt(block + 1.0)
        blocked.accumulate_block(contributions, block)
        for position, dimension in enumerate(dimensions):
            column = column_values(corel_store, reference, int(dimension))
            accumulate(reference, np.sqrt(column + 1.0), column)
        assert np.array_equal(blocked.partial_scores, reference.partial_scores)
        assert np.array_equal(blocked.partial_value_sums, reference.partial_value_sums)
        assert np.array_equal(blocked.remaining_value_sums, reference.remaining_value_sums)


class TestGatherBlock:
    def test_full_gather_matches_matrix(self, corel_store):
        dimensions = np.array([4, 1, 6], dtype=np.int64)
        block = corel_store.gather_block(dimensions)
        assert np.array_equal(block, corel_store.matrix[:, dimensions])

    def test_restricted_gather_matches_matrix(self, corel_store):
        dimensions = np.array([2, 5], dtype=np.int64)
        oids = np.array([3, 11, 47], dtype=np.int64)
        block = corel_store.gather_block(dimensions, oids=oids, charge="candidates")
        assert np.array_equal(block, corel_store.matrix[np.ix_(oids, dimensions)])

    def test_block_scan_cost_matches_per_dimension_scans(self, corel_histograms):
        blocked_store = DecomposedStore(corel_histograms[:100])
        loop_store = DecomposedStore(corel_histograms[:100])
        dimensions = np.array([0, 3, 7], dtype=np.int64)
        blocked_store.gather_block(dimensions)
        for dimension in dimensions:
            loop_store.fragment(int(dimension))
        assert blocked_store.cost.account.as_dict() == loop_store.cost.account.as_dict()

    def test_invalid_dimension_rejected(self, corel_store):
        with pytest.raises(StorageError):
            corel_store.gather_block(np.array([corel_store.dimensionality]))

    def test_invalid_charge_mode_rejected(self, corel_store):
        with pytest.raises(StorageError):
            corel_store.gather_block(np.array([0]), charge="bogus")
