"""Exact-equivalence suite for the compressed (filter-and-refine) searcher.

The contract under test: the fused interval-kernel filter, the per-dimension
reference of ``tests/oracle.py`` and the batched searcher all return
*bitwise identical* results (OIDs and scores, via ``np.array_equal``) at
identical accounted cost, pinned to counters recorded from the
per-dimension engine, and all of them return exactly the brute-force top-k
— including on data outside the unit hypercube (the corner-bound
regression) and across random quantisation grids (the no-false-dismissal
property).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle import (
    PerDimensionCompressedSearcher,
    SeedBondSearcher,
    bounded_fragment_for,
    value_bounds_at,
)

from repro.api import Index, Query
from repro.baselines.vafile import VAFile
from repro.core.batch import drive
from repro.core.compressed import (
    SAMPLE_STRIDE,
    CompressedBondSearcher,
    contribution_interval,
    kth_largest,
    kth_smallest,
)
from repro.core.planner import (
    FixedPeriodSchedule,
    GeometricSchedule,
    HandOffSchedule,
    MassAwareSchedule,
)
from repro.datasets.corel import make_corel_like
from repro.engine.cost import CostAccount
from repro.errors import QueryError, StorageError
from repro.kernels import interval as interval_kernels
from repro.kernels.interval import (
    TILE_ROWS,
    GenericIntervalKernel,
    HistogramIntersectionIntervalKernel,
    IntervalWorkspace,
    SquaredEuclideanIntervalKernel,
    WeightedSquaredEuclideanIntervalKernel,
    interval_kernel_for,
)
from repro.metrics.base import Metric, MetricKind
from repro.metrics.euclidean import EuclideanSimilarity, SquaredEuclidean
from repro.metrics.histogram import HistogramIntersection
from repro.metrics.weighted import WeightedSquaredEuclidean
from repro.storage.compressed import CompressedStore
from repro.storage.decomposed import DecomposedStore
from repro.workload.ground_truth import exact_top_k


def make_store(data: np.ndarray, bits: int = 8) -> CompressedStore:
    return CompressedStore(DecomposedStore(data), bits=bits)


def metrics_for(dimensionality: int) -> list[Metric]:
    rng = np.random.default_rng(99)
    return [
        HistogramIntersection(),
        SquaredEuclidean(),
        WeightedSquaredEuclidean(rng.uniform(0.1, 2.0, dimensionality)),
    ]


def results_bitwise_equal(left, right) -> bool:
    return bool(np.array_equal(left.oids, right.oids) and np.array_equal(left.scores, right.scores))


class TestFusedEqualsLoop:
    @pytest.mark.parametrize("metric_index", [0, 1, 2])
    def test_bitwise_identical_results_and_cost(self, corel_histograms, metric_index):
        metric = metrics_for(corel_histograms.shape[1])[metric_index]
        store = make_store(corel_histograms)
        loop = PerDimensionCompressedSearcher(store, metric=metric)
        fused = CompressedBondSearcher(store, metric=metric)
        for query_index in (3, 42, 800):
            query = corel_histograms[query_index]
            loop_result = loop.search(query, 10)
            fused_result = fused.search(query, 10)
            assert results_bitwise_equal(loop_result, fused_result)
            assert loop_result.cost.as_dict() == fused_result.cost.as_dict()
            assert loop_result.dimensions_processed == fused_result.dimensions_processed
            assert loop_result.full_scan_dimensions == fused_result.full_scan_dimensions
            trace_loop = loop_result.candidate_trace.as_arrays()
            trace_fused = fused_result.candidate_trace.as_arrays()
            assert np.array_equal(trace_loop[0], trace_fused[0])
            assert np.array_equal(trace_loop[1], trace_fused[1])

    def test_both_engines_match_brute_force(self, corel_histograms):
        """So does the VA-file over the same codes (OIDs and scores, bitwise)."""
        for metric in metrics_for(corel_histograms.shape[1]):
            store = make_store(corel_histograms)
            reference = exact_top_k(corel_histograms, corel_histograms[7], 10, metric)
            for searcher in (
                PerDimensionCompressedSearcher(store, metric=metric),
                CompressedBondSearcher(store, metric=metric),
                VAFile(store, metric=metric),
            ):
                assert results_bitwise_equal(searcher.search(corel_histograms[7], 10), reference)

    def test_kernel_selection(self, corel_histograms):
        assert isinstance(
            interval_kernel_for(HistogramIntersection()), HistogramIntersectionIntervalKernel
        )
        assert isinstance(interval_kernel_for(SquaredEuclidean()), SquaredEuclideanIntervalKernel)
        assert isinstance(
            interval_kernel_for(WeightedSquaredEuclidean(np.ones(4))),
            WeightedSquaredEuclideanIntervalKernel,
        )

        class ForeignMetric(Metric):
            @property
            def kind(self):
                return MetricKind.DISTANCE

            def contributions(self, column, query_value, *, dimension=None):
                return np.abs(np.asarray(column, dtype=np.float64) - query_value)

            def score(self, vectors, query):
                return np.abs(np.atleast_2d(vectors) - query).sum(axis=1)

        assert isinstance(interval_kernel_for(ForeignMetric()), GenericIntervalKernel)

    def test_generic_kernel_matches_loop(self, clustered_vectors):
        """A metric without a fused kernel still runs bitwise-identically."""

        class ManhattanLike(Metric):
            name = "manhattan"

            @property
            def kind(self):
                return MetricKind.DISTANCE

            def contributions(self, column, query_value, *, dimension=None):
                return np.abs(np.asarray(column, dtype=np.float64) - float(query_value))

            def score(self, vectors, query):
                vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
                return np.abs(vectors - query[None, :]).sum(axis=1)

        metric = ManhattanLike()
        store = make_store(clustered_vectors)
        loop = PerDimensionCompressedSearcher(store, metric=metric)
        fused = CompressedBondSearcher(store, metric=metric)
        assert isinstance(fused.interval_kernel, GenericIntervalKernel)
        query = clustered_vectors[11]
        assert results_bitwise_equal(loop.search(query, 8), fused.search(query, 8))


#: ``cost.as_dict()`` of one single HI search (k = 10, 8-bit codes over the
#: histogram fixture), in ``CostAccount.WIRE_FIELDS`` order, its pruning trace
#: and its full-height dimensions — recorded from the per-dimension engine,
#: whose counters the fused filter matched.
RECORDED_COMPRESSED_COSTS = {
    ("handoff", 3): ((22980, 15588, 33696, 1974, 1974, 1188, 12), [0, 4, 8, 12, 16], [1200, 672, 69, 33, 22], 12),
    ("handoff", 777): ((18156, 10764, 23424, 1332, 1332, 1164, 8), [0, 4, 8, 12], [1200, 105, 27, 22], 8),
    ("m8", 3): ((27128, 20744, 44960, 1348, 1348, 1544, 16), [0, 8, 16, 24, 32, 40, 48], [1200, 69, 22, 19, 19, 19, 19], 16),
    ("m8", 777): ((14880, 10848, 42240, 1284, 1284, 1248, 8), [0, 8, 16, 24, 32, 40, 48], [1200, 27, 19, 14, 12, 12, 12], 8),
}


@pytest.mark.parametrize(
    "case", sorted(RECORDED_COMPRESSED_COSTS), ids=lambda case: "-".join(map(str, case))
)
def test_charges_the_recorded_costs(case, corel_histograms):
    schedule_name, row = case
    cost, dimensions, remaining, full_scan = RECORDED_COMPRESSED_COSTS[case]
    for searcher_class in (CompressedBondSearcher, PerDimensionCompressedSearcher):
        schedule = HandOffSchedule() if schedule_name == "handoff" else FixedPeriodSchedule(8)
        searcher = searcher_class(make_store(corel_histograms), schedule=schedule)
        result = searcher.search(corel_histograms[row], 10)
        assert result.cost.as_dict() == dict(zip(CostAccount.WIRE_FIELDS, cost))
        assert result.candidate_trace.dimensions_processed == dimensions
        assert result.candidate_trace.candidates_remaining == remaining
        assert result.dimensions_processed == dimensions[-1]
        assert result.full_scan_dimensions == full_scan


class TestBatchedCompressedSearch:
    def test_batch_matches_single_queries_bitwise(self, corel_histograms):
        for metric in metrics_for(corel_histograms.shape[1]):
            store = make_store(corel_histograms)
            searcher = CompressedBondSearcher(store, metric=metric)
            queries = corel_histograms[[5, 77, 300, 901]]
            batch = searcher.search_batch(queries, 10)
            assert len(batch) == queries.shape[0]
            for query, batched_result in zip(queries, batch):
                single = searcher.search(query, 10)
                assert results_bitwise_equal(single, batched_result)

    def test_batch_matches_brute_force(self, corel_histograms):
        store = make_store(corel_histograms)
        searcher = CompressedBondSearcher(store, metric=HistogramIntersection())
        queries = corel_histograms[[1, 2, 3]]
        for query, result in zip(queries, searcher.search_batch(queries, 10)):
            assert results_bitwise_equal(result, exact_top_k(corel_histograms, query, 10, HistogramIntersection()))

    def test_batch_shares_fragment_reads(self, corel_histograms):
        store = make_store(corel_histograms)
        searcher = CompressedBondSearcher(store, metric=HistogramIntersection())
        queries = corel_histograms[[10, 11, 12, 13, 14, 15]]
        singles_bytes = sum(searcher.search(query, 10).cost.bytes_read for query in queries)
        checkpoint = store.cost.checkpoint()
        batch = searcher.search_batch(queries, 10)
        assert batch.cost.bytes_read < singles_bytes
        # the checkpoint/since accounting covers exactly the batch call
        assert store.cost.since(checkpoint).bytes_read == batch.cost.bytes_read

    def test_single_query_accepted_as_batch_of_one(self, corel_histograms):
        store = make_store(corel_histograms)
        searcher = CompressedBondSearcher(store, metric=HistogramIntersection())
        batch = searcher.search_batch(corel_histograms[4], 5)
        assert len(batch) == 1
        assert results_bitwise_equal(batch[0], searcher.search(corel_histograms[4], 5))


class TestOutOfUnitBoxRegression:
    """The corner bound must come from the stored value ranges, not [0, 1]."""

    @pytest.fixture(scope="class")
    def wide_data(self) -> np.ndarray:
        rng = np.random.default_rng(42)
        return rng.uniform(-3.0, 7.0, size=(800, 24))

    def test_no_false_dismissals_outside_unit_box(self, wide_data):
        metric = SquaredEuclidean(require_unit_box=False)
        store = make_store(wide_data)
        rng = np.random.default_rng(7)
        searcher = CompressedBondSearcher(store, metric=metric)
        for index in range(8):
            query = wide_data[index] + rng.normal(0.0, 0.5, wide_data.shape[1])
            result = searcher.search(query, 10)
            reference = exact_top_k(wide_data, query, 10, metric)
            assert results_bitwise_equal(result, reference)

    def test_weighted_metric_outside_unit_box_data(self, wide_data):
        # query inside [0, 1] (the weighted metric requires it) but data far
        # outside: exactly the case the old max(q, 1-q)^2 corner got wrong.
        weights = np.linspace(0.2, 3.0, wide_data.shape[1])
        metric = WeightedSquaredEuclidean(weights)
        store = make_store(wide_data)
        rng = np.random.default_rng(11)
        searcher = CompressedBondSearcher(store, metric=metric)
        for _ in range(5):
            query = rng.random(wide_data.shape[1])
            result = searcher.search(query, 10)
            reference = exact_top_k(wide_data, query, 10, metric)
            assert results_bitwise_equal(result, reference)

    def test_corner_uses_fragment_ranges(self, wide_data):
        """The distance prune must assume the farthest stored value, not 1."""
        store = make_store(wide_data)
        searcher = CompressedBondSearcher(store, metric=SquaredEuclidean(require_unit_box=False))
        query = np.zeros(wide_data.shape[1])
        order = np.arange(wide_data.shape[1], dtype=np.int64)
        # with nothing processed, kappa must bound the worst true distance
        mask = searcher._prune_mask(
            query,
            order,
            0,
            np.zeros(wide_data.shape[0]),
            np.zeros(wide_data.shape[0]),
            10,
            None,
        )
        assert bool(mask.all())


class TestEuclideanSimilarityPruneDirection:
    """EuclideanSimilarity accumulates distance-valued intervals, so the
    filter must prune in the distance direction despite the SIMILARITY kind."""

    def test_matches_brute_force(self, clustered_vectors):
        metric = EuclideanSimilarity()
        store = make_store(clustered_vectors)
        reference = exact_top_k(clustered_vectors, clustered_vectors[21], 10, metric)
        searcher = CompressedBondSearcher(store, metric=metric)
        assert results_bitwise_equal(searcher.search(clustered_vectors[21], 10), reference)
        vafile = VAFile(store, metric=metric)
        assert results_bitwise_equal(vafile.search(clustered_vectors[21], 10), reference)


class TestNoFalseDismissalProperty:
    """Random quantisation grids never lose a true top-k member."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_random_grids_match_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        cardinality = int(rng.integers(120, 500))
        dimensionality = int(rng.integers(6, 40))
        bits = int(rng.integers(2, 11))
        scale = float(rng.uniform(0.5, 10.0))
        offset = float(rng.uniform(-5.0, 5.0))
        data = rng.random((cardinality, dimensionality)) * scale + offset
        k = int(rng.integers(1, 20))
        metric = SquaredEuclidean(require_unit_box=False)
        store = make_store(data, bits=bits)
        query = rng.random(dimensionality) * scale + offset
        reference = exact_top_k(data, query, k, metric)
        searcher = CompressedBondSearcher(store, metric=metric)
        assert results_bitwise_equal(searcher.search(query, k), reference)

    @pytest.mark.parametrize("bits", [2, 4, 6, 8, 12])
    def test_histogram_grids_match_brute_force(self, corel_histograms, bits):
        metric = HistogramIntersection()
        store = make_store(corel_histograms, bits=bits)
        query = corel_histograms[123]
        reference = exact_top_k(corel_histograms, query, 10, metric)
        searcher = CompressedBondSearcher(store, metric=metric)
        assert results_bitwise_equal(searcher.search(query, 10), reference)


class FirstPruneOnly(FixedPeriodSchedule):
    """Blocks of ``period`` up to the first prune, then always finish."""

    def next_batch(self, **counts) -> int:
        return 0


def assert_oracle_answer(data: np.ndarray, query: np.ndarray, k: int, result) -> None:
    """The frozen seed search's OIDs, and the brute-force scores bitwise.

    The refinement scores a whole row at once, the seed search folds it
    dimension by dimension, so their scores agree to a few ulps only.
    """
    seed = SeedBondSearcher(data).search(query, k)
    assert np.array_equal(result.oids, seed.oids)
    np.testing.assert_allclose(result.scores, seed.scores, rtol=1e-12, atol=0.0)
    assert results_bitwise_equal(result, exact_top_k(data, query, k, HistogramIntersection()))


class TestHandOff:
    """The default compressed plan filters in full-height blocks of 4 until
    the first prune that leaves the candidate set positional (<= 5 % of the
    rows), runs one block of 4 over the survivors' codes, and hands the
    survivors to the exact refinement there."""

    def test_is_the_default_of_every_compressed_path(self, corel_histograms):
        store = make_store(corel_histograms)
        assert isinstance(CompressedBondSearcher(store)._schedule, HandOffSchedule)
        # A sharded index answers compressed queries with the same searcher.
        with Index.build(corel_histograms, shards=2) as index:
            index.answer(Query(corel_histograms[0], k=5, mode="compressed"))
            (searcher,) = index._epoch.searchers.values()
        assert isinstance(searcher, CompressedBondSearcher)
        assert isinstance(searcher._schedule, HandOffSchedule)

    def test_trace_ends_one_round_after_the_first_positional_prune(self, corel_histograms):
        store = make_store(corel_histograms)
        searcher = CompressedBondSearcher(store)
        threshold = 0.05 * store.cardinality
        handed_off, traces = 0, set()
        for query_index in range(0, corel_histograms.shape[0], 37):
            result = searcher.search(corel_histograms[query_index], 10)
            remaining = result.candidate_trace.candidates_remaining
            processed = result.candidate_trace.dimensions_processed
            # Blocks of 4 up to the end of the trace ...
            assert list(processed) == list(range(0, 4 * len(processed), 4))
            # ... full-height up to the first prune that leaves the set
            # positional ...
            assert all(count > threshold for count in remaining[:-2])
            assert remaining[-2] <= threshold
            # ... and one positional round after it.
            assert result.dimensions_processed == processed[-1]
            assert result.full_scan_dimensions == result.dimensions_processed - 4
            handed_off += result.dimensions_processed < corel_histograms.shape[1]
            traces.add(tuple(processed))
        assert handed_off > 20
        # A 4-column prune that leaves the set positional hands off at 8.
        assert (0, 4, 8) in traces

    def test_fused_equals_loop_and_batch_at_identical_cost(self, corel_histograms):
        store = make_store(corel_histograms)
        loop = PerDimensionCompressedSearcher(store)
        fused = CompressedBondSearcher(store)
        queries = corel_histograms[[3, 42, 148, 800]]
        batch = fused.search_batch(queries, 10)
        for query, batched in zip(queries, batch):
            loop_result, fused_result = loop.search(query, 10), fused.search(query, 10)
            assert results_bitwise_equal(loop_result, fused_result)
            assert results_bitwise_equal(fused_result, batched)
            assert loop_result.cost.as_dict() == fused_result.cost.as_dict()
            assert loop_result.full_scan_dimensions == fused_result.full_scan_dimensions
            assert_oracle_answer(corel_histograms, query, 10, fused_result)

    @pytest.mark.parametrize("side", ["just_under", "just_over"])
    def test_first_prune_at_the_threshold_matches_the_oracle(self, corel_histograms, side):
        """Pad the collection so the first (4-column) prune leaves just under
        (or just over) 5 % of the rows.  The padding repeats rows that prune
        already drops: the quantisation grid (per-dimension minimum and
        maximum) and the pruning threshold (the k-th best lower bound) stay
        as they were, so the survivors do too."""
        k = 10
        probe = CompressedBondSearcher(make_store(corel_histograms), schedule=FirstPruneOnly(4))
        for query_index in range(corel_histograms.shape[0]):
            query = corel_histograms[query_index]
            run = probe._plan(query, k)
            drive(probe, [run])
            if run.oids is not None and 0.05 * corel_histograms.shape[0] < run.alive <= 200:
                break
        else:
            pytest.fail("no query's first prune leaves 5-17 % of the rows")
        survivors = run.alive
        pruned = np.setdiff1d(np.arange(corel_histograms.shape[0]), run.oids)
        rows = 20 * survivors + (1 if side == "just_under" else -1)
        padding = corel_histograms[pruned[np.arange(rows - corel_histograms.shape[0]) % pruned.shape[0]]]
        data = np.vstack([corel_histograms, padding])
        store = make_store(data)

        result = CompressedBondSearcher(store).search(query, k)
        remaining = result.candidate_trace.candidates_remaining
        processed = result.candidate_trace.dimensions_processed
        assert remaining[1] == survivors
        if side == "just_under":
            # Positional at once: one round over the survivors, then refine.
            assert survivors / rows < 0.05
            assert list(processed) == [0, 4, 8]
            assert result.full_scan_dimensions == 4 and result.dimensions_processed == 8
        else:
            # Not yet positional: the next block still streams full height.
            assert survivors / rows > 0.05
            assert list(processed[:3]) == [0, 4, 8]
            assert result.full_scan_dimensions >= 8
            assert result.dimensions_processed == result.full_scan_dimensions + 4
        assert_oracle_answer(data, query, k, result)

    def test_contribution_interval_keeps_its_core_import_path(self):
        assert contribution_interval is interval_kernels.contribution_interval


class TestFullScanAccounting:
    def test_full_scan_dimensions_counts_only_full_fragment_reads(self, corel_histograms):
        store = make_store(corel_histograms)
        # The default hand-off plan runs no positional round; the mass-aware
        # plan keeps filtering over the survivors.
        searcher = CompressedBondSearcher(
            store, metric=HistogramIntersection(), schedule=MassAwareSchedule()
        )
        result = searcher.search(corel_histograms[9], 10)
        # pruning collapses the candidate set well before the order runs out,
        # so later rounds are positional fetches and must not be counted
        assert 0 < result.full_scan_dimensions < result.dimensions_processed

    def test_bounded_fragment_for_matches_sliced_bounded_fragment(self, corel_histograms):
        """The reference's dequantisation is the store's, sliced or not."""
        store = make_store(corel_histograms)
        oids = np.array([3, 77, 500, 1100], dtype=np.int64)
        full_lower, full_upper = store.bounded_fragment(5)
        part_lower, part_upper = bounded_fragment_for(store, 5, oids)
        assert np.array_equal(part_lower, full_lower[oids])
        assert np.array_equal(part_upper, full_upper[oids])
        all_lower, all_upper = value_bounds_at(store, 5)
        assert np.array_equal(all_lower, full_lower)
        assert np.array_equal(all_upper, full_upper)

    def test_bounded_fragment_for_charges_only_candidates(self, corel_histograms):
        store = make_store(corel_histograms)
        oids = np.array([1, 2, 3], dtype=np.int64)
        checkpoint = store.cost.checkpoint()
        bounded_fragment_for(store, 0, oids)
        delta = store.cost.since(checkpoint)
        assert delta.bytes_read == len(oids)  # 1 byte per candidate code
        assert delta.random_accesses == len(oids)

    def test_code_row_block_layout_and_charging(self, corel_histograms):
        store = make_store(corel_histograms)
        dimensions = np.array([4, 9, 0], dtype=np.int64)
        oids = np.array([10, 20, 30, 40], dtype=np.int64)
        checkpoint = store.cost.checkpoint()
        block = store.code_row_block(dimensions, oids)
        assert block.shape == (3, 4)
        for row, dimension in enumerate(dimensions):
            expected = store.fragment(int(dimension)).codes[oids]
            assert np.array_equal(block[row], expected)
        delta = store.cost.since(checkpoint)
        # 12 positional code fetches plus the explicit fragment() reads above
        assert delta.random_accesses == dimensions.size * oids.size

    def test_code_row_block_rejects_bad_modes(self, corel_histograms):
        store = make_store(corel_histograms)
        with pytest.raises(StorageError):
            store.code_row_block(np.array([0]), np.array([1]), charge="sideways")
        with pytest.raises(StorageError):
            store.code_row_block(np.array([9999]), np.array([1]))


class TestVAFileBatchAndDiagnostics:
    def test_batched_filter_matches_single_queries(self, corel_histograms):
        store = make_store(corel_histograms)
        vafile = VAFile(store, metric=HistogramIntersection())
        queries = corel_histograms[[2, 60, 400]]
        singles = [vafile.search(query, 10) for query in queries]
        batch = vafile.search_batch(queries, 10)
        for single, batched in zip(singles, batch):
            assert results_bitwise_equal(single, batched)

    def test_batched_filter_shares_the_approximation_pass(self, corel_histograms):
        store = make_store(corel_histograms)
        vafile = VAFile(store, metric=HistogramIntersection())
        queries = corel_histograms[[2, 60, 400, 800]]
        singles_bytes = sum(vafile.search(query, 10).cost.bytes_read for query in queries)
        batch = vafile.search_batch(queries, 10)
        assert batch.cost.bytes_read < singles_bytes

    def test_filter_candidate_count_is_side_effect_free(self, corel_histograms):
        store = make_store(corel_histograms)
        vafile = VAFile(store, metric=HistogramIntersection())
        before = store.cost.checkpoint().as_dict()
        survivors = vafile.filter_candidate_count(corel_histograms[33], 10)
        assert survivors >= 10
        assert store.cost.checkpoint().as_dict() == before

    def test_batch_rejects_bad_inputs(self, corel_histograms):
        store = make_store(corel_histograms)
        vafile = VAFile(store, metric=HistogramIntersection())
        with pytest.raises(QueryError):
            vafile.search_batch(corel_histograms[:2], 0)
        with pytest.raises(QueryError):
            vafile.search_batch(np.ones((2, 3)) / 3.0, 5)


class TestIntervalWorkspace:
    def test_buffers_grow_and_are_reused(self):
        workspace = IntervalWorkspace()
        lower, upper = workspace.value_buffers(100)
        assert lower.shape == (100,) and upper.shape == (100,)
        small_lower, _ = workspace.value_buffers(10)
        assert small_lower.base is lower.base  # same backing buffer
        bigger = workspace.values(200)
        assert bigger.shape == (200,) and bigger.dtype == np.complex128


class TestScheduleIndependence:
    """Compressed answers do not depend on the pruning schedule.

    The schedule only moves the pruning checkpoints: every candidate's
    interval scores are folded in the same dimension order wherever the
    checkpoints fall, no checkpoint drops a true top-k member, and the
    refinement scores the survivors exactly.  The survivor *count* may differ
    between schedules — and need not shrink as checkpoints are added — because
    a lower-bound contribution ``min - cell/2`` can be negative, so kappa
    (the k-th best lower bound) is not monotone in the processed dimensions.
    """

    SCHEDULES = (
        lambda: FixedPeriodSchedule(8),
        MassAwareSchedule,
        GeometricSchedule,
        HandOffSchedule,
    )

    @staticmethod
    def collection(seed: int, rows: int, dimensionality: int, duplicates: int, metric: str):
        rng = np.random.default_rng(seed)
        data = rng.random((rows, dimensionality))
        # A constant column: its cells have width 0.
        data[:, 1] = 0.0 if metric == "hq" else 0.5
        # Duplicated rows, so the k-th place ties.
        data = np.concatenate([data, data[:duplicates]])
        if metric == "hq":
            data /= data.sum(axis=1, keepdims=True)
        return data

    @staticmethod
    def make_metric(metric: str, dimensionality: int, seed: int) -> Metric:
        if metric == "hq":
            return HistogramIntersection()
        if metric == "euclidean":
            return SquaredEuclidean()
        weights = np.random.default_rng(seed).uniform(0.0, 2.0, dimensionality)
        weights[::3] = 0.0
        return WeightedSquaredEuclidean(weights)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        rows=st.integers(min_value=20, max_value=300),
        dimensionality=st.integers(min_value=2, max_value=40),
        duplicates=st.integers(min_value=1, max_value=20),
        bits=st.sampled_from([3, 8, 10]),
        metric=st.sampled_from(["hq", "euclidean", "weighted"]),
        k=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_answers_are_identical_under_every_schedule(
        self, seed, rows, dimensionality, duplicates, bits, metric, k
    ):
        data = self.collection(seed, rows, dimensionality, duplicates, metric)
        metric_ = self.make_metric(metric, dimensionality, seed)
        store = make_store(data, bits=bits)
        query = data[seed % data.shape[0]]
        reference = exact_top_k(data, query, k, metric_)
        answers = []
        for schedule in self.SCHEDULES:
            searcher = CompressedBondSearcher(store, metric=metric_, schedule=schedule())
            run = searcher._plan(query, k)
            drive(searcher, [run])
            survivors = np.arange(data.shape[0]) if run.oids is None else run.oids
            assert set(reference.oids.tolist()) <= set(survivors.tolist())
            answers.append(run.result)
        for answer in answers[1:]:
            assert results_bitwise_equal(answers[0], answer)


class ManhattanLike(Metric):
    """A metric without a fused interval formula (the generic kernel's case)."""

    name = "manhattan"

    @property
    def kind(self):
        return MetricKind.DISTANCE

    def contributions(self, column, query_value, *, dimension=None):
        return np.abs(np.asarray(column, dtype=np.float64) - float(query_value))

    def score(self, vectors, query):
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        return np.abs(vectors - query[None, :]).sum(axis=1)


class TestKernelCallShapes:
    """Every way into an interval kernel accumulates the same floats."""

    @pytest.mark.parametrize("bits", [8, 10])
    @pytest.mark.parametrize(
        "metric",
        [
            HistogramIntersection(),
            SquaredEuclidean(),
            EuclideanSimilarity(),
            WeightedSquaredEuclidean(np.tile([0.0, 0.5, 1.7], 16)),
            ManhattanLike(),
        ],
        ids=lambda metric: type(metric).__name__,
    )
    def test_every_call_shape_is_bitwise_identical(self, corel_histograms, metric, bits):
        store = make_store(corel_histograms, bits=bits)
        kernel = interval_kernel_for(metric)
        dimensions = np.array([5, 0, 17, 3, 40, 11], dtype=np.int64)
        query = corel_histograms[9]
        grids = (store.minimums[dimensions], store.cell_widths[dimensions])
        count = store.cardinality

        reference_lower, reference_upper = np.zeros(count), np.zeros(count)
        for dimension in dimensions:
            value_lower, value_upper = store.fragment(int(dimension)).value_bounds()
            lower, upper = contribution_interval(
                metric, value_lower, value_upper, query[dimension], dimension=int(dimension)
            )
            reference_lower += lower
            reference_upper += upper

        columns = store.code_columns(dimensions, charge=False)
        split_lower, split_upper = np.zeros(count), np.zeros(count)
        kernel.accumulate_block(
            columns, *grids, query[dimensions], dimensions,
            split_lower, split_upper, IntervalWorkspace(),
        )
        # The searcher's path: one interleaved accumulator, 2**bits-long tables.
        interleaved = np.zeros(count, dtype=np.complex128)
        kernel.accumulate_block(
            columns, *grids, query[dimensions], dimensions,
            interleaved, None, IntervalWorkspace(), levels=1 << bits,
        )
        assert np.array_equal(split_lower, reference_lower)
        assert np.array_equal(split_upper, reference_upper)
        assert np.array_equal(interleaved.real, reference_lower)
        assert np.array_equal(interleaved.imag, reference_upper)

        # Gathered codes: every row (a table lookup) and a few rows (fewer
        # values than codes, so the codes are evaluated directly).
        for oids in (np.arange(count), np.array([4, 99, 1000, 7], dtype=np.int64)):
            rows = np.zeros(oids.shape[0], dtype=np.complex128)
            kernel.accumulate_row_block(
                store.code_row_block(dimensions, oids, charge=None), *grids,
                query[dimensions], dimensions, rows, None, IntervalWorkspace(),
                levels=1 << bits,
            )
            assert np.array_equal(rows.real, reference_lower[oids])
            assert np.array_equal(rows.imag, reference_upper[oids])


class TestBatchMemory:
    def test_batch_peak_does_not_grow_with_the_batch(self):
        """Every run scans into the searcher's one full-height accumulator
        and keeps only its survivors past its first prune, so a batch of 16
        peaks below two full-height accumulators' worth (16 B a row each):
        one more per run, even for a moment, would show."""
        collection = make_corel_like(cardinality=20_000, dimensionality=64, seed=5)
        searcher = CompressedBondSearcher(make_store(collection))
        queries = collection[np.arange(0, 20_000, 1_250)]
        searcher.search(queries[0], 10)  # allocate the searcher's buffers

        def traced_peak(call) -> int:
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        batch = traced_peak(lambda: searcher.search_batch(queries, 10))
        assert len(queries) == 16
        assert batch < 2 * 16 * collection.shape[0]


class TestRowTiles:
    """A full-height block folds tile by tile; every row still receives its
    columns left to right, bitwise as folding whole columns would."""

    @pytest.mark.parametrize("width", [1, 2, 4, 7])
    def test_tiles_fold_like_whole_columns(self, width):
        rng = np.random.default_rng(width)
        count = 2 * TILE_ROWS + 123
        columns = [rng.integers(0, 16, count, dtype=np.uint8) for _ in range(width)]
        grids = (np.linspace(0.0, 0.3, width), np.full(width, 1 / 16), np.full(width, 0.4))
        dimensions = np.arange(width)
        kernel = HistogramIntersectionIntervalKernel()

        tiled = np.zeros(count, dtype=np.complex128)
        kernel.accumulate_block(
            columns, *grids, dimensions, tiled, None, IntervalWorkspace(), levels=16
        )
        tables = kernel.contributions(np.arange(16, dtype=np.uint8), *grids, dimensions)
        whole = np.zeros(count, dtype=np.complex128)
        for table, codes in zip(tables, columns):
            whole += table[codes]
        assert np.array_equal(tiled.view(np.int64), whole.view(np.int64))


def bits(value) -> bytes:
    return np.float64(value).tobytes()


@st.composite
def selection_inputs(draw):
    """Scores with ties, duplicates, negatives and both signed zeros, and a
    k below n / SAMPLE_STRIDE (the sampled path), anywhere up to n, or n."""
    n = draw(st.integers(1, 1500))
    k = draw(
        st.one_of(
            st.integers(1, max(1, n // SAMPLE_STRIDE)), st.integers(1, n), st.just(n)
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    palette = [-2.5, -1.0, -0.0, 0.0, 0.25, 0.5, 1.0, 3.0]
    kind = draw(st.sampled_from(["palette", "periodic", "continuous", "mixed"]))
    if kind == "palette":
        values = rng.choice(palette, n, p=rng.dirichlet(np.ones(len(palette))))
    elif kind == "periodic":
        values = np.resize(rng.choice(palette, draw(st.integers(1, 6))), n)
    elif kind == "continuous":
        values = rng.normal(size=n)
    else:
        values = np.where(rng.random(n) < 0.5, rng.choice(palette, n), rng.normal(size=n))
    return values, k


class TestSelection:
    """The first prune's threshold is selected from a small pool, bitwise as
    the whole partition would select it."""

    @settings(max_examples=300, deadline=None)
    @given(selection_inputs())
    # A partition of the pool and one of the whole set can put different
    # signed zeros at the same rank.
    @example((np.resize([-0.0, 0.0, 1.0], 64), 1))
    @example((np.resize([-0.0, 0.0, -1.0], 64), 1))
    def test_kth_largest_and_smallest_are_the_partition_picks(self, inputs):
        values, k = inputs
        n = values.shape[0]
        # The searcher selects over the real or imaginary half of its
        # interleaved accumulator: a strided view.
        interleaved = np.empty(n, dtype=np.complex128)
        interleaved.real = values
        for view in (values, interleaved.real):
            assert bits(kth_largest(view, k)) == bits(np.partition(values, n - k)[n - k])
            assert bits(kth_smallest(view, k)) == bits(np.partition(values, k - 1)[k - 1])


class TestSharedAccumulator:
    """Every run of a searcher scans into one reused full-height
    accumulator: no run may see another's scores, batched or single, fused
    or per-dimension, wherever the prunes fall."""

    @staticmethod
    def check(data: np.ndarray, queries: np.ndarray, k: int) -> list:
        store = make_store(data)
        loop = PerDimensionCompressedSearcher(store)
        fused = CompressedBondSearcher(store)
        batch = fused.search_batch(queries, k)
        singles = []
        for query, batched in zip(queries, batch):
            single, loop_result = fused.search(query, k), loop.search(query, k)
            assert results_bitwise_equal(single, batched)
            assert results_bitwise_equal(single, loop_result)
            assert loop_result.cost.as_dict() == single.cost.as_dict()
            assert_oracle_answer(data, query, k, single)
            singles.append(single)
        return singles

    @pytest.mark.parametrize("extra", [0, 7])
    def test_k_at_least_n(self, corel_histograms, extra):
        data = corel_histograms[:40]
        for result in self.check(data, data[[0, 13, 39]], 40 + extra):
            assert result.oids.shape == (40,)

    def test_identical_rows_never_prune(self, corel_histograms):
        data = np.tile(corel_histograms[3], (300, 1))
        for result in self.check(data, corel_histograms[[3, 10, 500]], 10):
            assert set(result.candidate_trace.candidates_remaining) == {300}

    @pytest.mark.parametrize("dimensionality", [1, 2, 3, 4])
    def test_few_dimensions(self, dimensionality):
        raw = np.random.default_rng(dimensionality).random((600, dimensionality)) ** 3
        data = raw / raw.sum(axis=1, keepdims=True)
        self.check(data, data[[0, 1, 250, 599]], 5)

    def test_a_batch_in_which_one_run_never_prunes(self, corel_histograms):
        # An all-zero column: a query with all its mass there scores every row
        # 0, so its run keeps every row at every prune, while its neighbours
        # in the batch prune and scan into the shared accumulator after it.
        data = np.hstack([corel_histograms, np.zeros((corel_histograms.shape[0], 1))])
        blind = np.zeros(data.shape[1])
        blind[-1] = 1.0
        queries = np.vstack([data[5], blind, data[77], data[400]])
        results = self.check(data, queries, 10)
        count = data.shape[0]
        assert set(results[1].candidate_trace.candidates_remaining) == {count}
        for result in (results[0], results[2], results[3]):
            assert result.candidate_trace.candidates_remaining[-1] < count

    def test_a_warmed_single_search_peaks_below_16_bytes_a_row(self):
        """The accumulator and the first prune's bounds and keep mask are the
        searcher's, reused by every search.  A search still allocates a
        tile's index conversion (8 B a row of the tile) and the threshold
        selection's 1 B-a-row mask, but no full-height accumulator."""
        collection = make_corel_like(cardinality=20_000, dimensionality=64, seed=5)
        searcher = CompressedBondSearcher(make_store(collection))
        searcher.search(collection[0], 10)  # warm the searcher's buffers
        tracemalloc.start()
        try:
            searcher.search(collection[0], 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * collection.shape[0]
