"""Exact-equivalence suite for the compressed (filter-and-refine) engines.

The contract under test: the fused interval-kernel engine, the per-dimension
reference loop and the batched engine all return *bitwise identical* results
(OIDs and scores, via ``np.array_equal``) at identical accounted cost, and
all of them return exactly the brute-force top-k — including on data outside
the unit hypercube (the corner-bound regression) and across random
quantisation grids (the no-false-dismissal property).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import SeedBondSearcher

from repro.baselines.vafile import VAFile
from repro.core.batch import drive
from repro.cluster.executor import EngineSpec
from repro.core.compressed import CompressedBondSearcher, contribution_interval
from repro.core.parallel import ShardedBondSearcher
from repro.core.planner import (
    FixedPeriodSchedule,
    GeometricSchedule,
    HandOffSchedule,
    MassAwareSchedule,
)
from repro.datasets.corel import make_corel_like
from repro.errors import QueryError, StorageError
from repro.kernels import interval as interval_kernels
from repro.kernels.interval import (
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
from repro.storage.sharding import ShardPlan
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
        loop = CompressedBondSearcher(store, metric=metric, engine="loop")
        fused = CompressedBondSearcher(store, metric=metric, engine="fused")
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
                CompressedBondSearcher(store, metric=metric, engine="loop"),
                CompressedBondSearcher(store, metric=metric, engine="fused"),
                VAFile(store, metric=metric),
            ):
                assert results_bitwise_equal(searcher.search(corel_histograms[7], 10), reference)

    def test_invalid_engine_rejected(self, corel_histograms):
        with pytest.raises(QueryError):
            CompressedBondSearcher(make_store(corel_histograms), engine="turbo")

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
        loop = CompressedBondSearcher(store, metric=metric, engine="loop")
        fused = CompressedBondSearcher(store, metric=metric, engine="fused")
        assert isinstance(fused.interval_kernel, GenericIntervalKernel)
        query = clustered_vectors[11]
        assert results_bitwise_equal(loop.search(query, 8), fused.search(query, 8))


class TestBatchedCompressedSearch:
    def test_batch_matches_single_queries_bitwise(self, corel_histograms):
        for metric in metrics_for(corel_histograms.shape[1]):
            store = make_store(corel_histograms)
            searcher = CompressedBondSearcher(store, metric=metric, engine="fused")
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
        for engine in ("loop", "fused"):
            searcher = CompressedBondSearcher(store, metric=metric, engine=engine)
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
        for engine in ("loop", "fused"):
            searcher = CompressedBondSearcher(store, metric=metric, engine=engine)
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
        for engine in ("loop", "fused"):
            searcher = CompressedBondSearcher(store, metric=metric, engine=engine)
            result = searcher.search(clustered_vectors[21], 10)
            assert results_bitwise_equal(result, reference)
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
        for engine in ("loop", "fused"):
            searcher = CompressedBondSearcher(store, metric=metric, engine=engine)
            assert results_bitwise_equal(searcher.search(query, k), reference)

    @pytest.mark.parametrize("bits", [2, 4, 6, 8, 12])
    def test_histogram_grids_match_brute_force(self, corel_histograms, bits):
        metric = HistogramIntersection()
        store = make_store(corel_histograms, bits=bits)
        query = corel_histograms[123]
        reference = exact_top_k(corel_histograms, query, 10, metric)
        for engine in ("loop", "fused"):
            searcher = CompressedBondSearcher(store, metric=metric, engine=engine)
            assert results_bitwise_equal(searcher.search(query, 10), reference)


class FirstPruneOnly(FixedPeriodSchedule):
    """The paper's m = 8 up to the first prune, then always finish."""

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
    """The default compressed plan filters at m = 8 until the first prune
    that leaves the candidate set positional (<= 5 % of the rows) and hands
    the survivors to the exact refinement there."""

    def test_is_the_default_of_every_compressed_path(self, corel_histograms):
        store = make_store(corel_histograms)
        assert isinstance(CompressedBondSearcher(store)._schedule, HandOffSchedule)
        with ShardedBondSearcher(store, shards=2) as sharded:
            for searcher in sharded.shard_searchers:
                assert isinstance(searcher._schedule, HandOffSchedule)
        # A process shard builds its searcher from the same spec.
        spec = EngineSpec.for_store(store, metric=HistogramIntersection())
        worker = spec.shard_searcher(
            store.exact, store, ShardPlan.balanced(store.cardinality, 2), 1
        )
        assert isinstance(worker._schedule, HandOffSchedule)

    @pytest.mark.parametrize("engine", ["loop", "fused"])
    def test_trace_ends_at_the_first_positional_prune(self, corel_histograms, engine):
        store = make_store(corel_histograms)
        searcher = CompressedBondSearcher(store, engine=engine)
        threshold = 0.05 * store.cardinality
        handed_off = 0
        for query_index in range(0, corel_histograms.shape[0], 37):
            result = searcher.search(corel_histograms[query_index], 10)
            remaining = result.candidate_trace.candidates_remaining
            processed = result.candidate_trace.dimensions_processed
            # Full-height blocks of m = 8 up to the end of the trace ...
            assert list(processed) == list(range(0, 8 * len(processed), 8))
            assert all(count > threshold for count in remaining[:-1])
            # ... which is the first prune that leaves the set positional.
            assert remaining[-1] <= threshold
            assert result.dimensions_processed == processed[-1]
            assert result.full_scan_dimensions == result.dimensions_processed
            handed_off += result.dimensions_processed < corel_histograms.shape[1]
        assert handed_off > 20

    def test_fused_equals_loop_and_batch_at_identical_cost(self, corel_histograms):
        store = make_store(corel_histograms)
        loop = CompressedBondSearcher(store, engine="loop")
        fused = CompressedBondSearcher(store, engine="fused")
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
        """Pad the collection so the first prune leaves just under (or just
        over) 5 % of the rows.  The padding repeats rows that prune already
        drops: the quantisation grid (per-dimension minimum and maximum) and
        the pruning threshold (the k-th best lower bound) stay as they were,
        so the survivors do too."""
        k = 10
        probe = CompressedBondSearcher(make_store(corel_histograms), schedule=FirstPruneOnly(8))
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
        assert remaining[1] == survivors
        if side == "just_under":
            assert survivors / rows < 0.05
            assert list(remaining) == [rows, survivors]
            assert result.full_scan_dimensions == result.dimensions_processed == 8
        else:
            assert result.dimensions_processed > 8
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
        store = make_store(corel_histograms)
        oids = np.array([3, 77, 500, 1100], dtype=np.int64)
        full_lower, full_upper = store.bounded_fragment(5)
        part_lower, part_upper = store.bounded_fragment_for(5, oids)
        assert np.array_equal(part_lower, full_lower[oids])
        assert np.array_equal(part_upper, full_upper[oids])

    def test_bounded_fragment_for_charges_only_candidates(self, corel_histograms):
        store = make_store(corel_histograms)
        oids = np.array([1, 2, 3], dtype=np.int64)
        checkpoint = store.cost.checkpoint()
        store.bounded_fragment_for(0, oids)
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
        """A run allocates its full-height accumulator at its first scan and
        shrinks it at its first prune, so a batch holds one at a time."""
        collection = make_corel_like(cardinality=20_000, dimensionality=64, seed=5)
        searcher = CompressedBondSearcher(make_store(collection))
        queries = collection[np.arange(0, 20_000, 1_250)]
        searcher.search(queries[0], 10)  # warm the workspace

        def traced_peak(call) -> int:
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        single = traced_peak(lambda: searcher.search(queries[0], 10))
        batch = traced_peak(lambda: searcher.search_batch(queries, 10))
        assert len(queries) == 16
        assert batch < 3 * single
