"""Unit and integration tests for the BOND searcher (Algorithm 2)."""

from __future__ import annotations

import numpy as np
import pytest
from oracle import SeedBondSearcher

from repro.bounds.euclidean import EqBound, EvBound
from repro.bounds.histogram import HhBound, HqBound
from repro.core.bond import BondSearcher, default_bound_for
from repro.core.compressed import CompressedBondSearcher
from repro.core.ordering import IncreasingQueryOrdering, RandomOrdering
from repro.core.parallel import ShardedBondSearcher
from repro.core.planner import FixedPeriodSchedule, GeometricSchedule, HandOffSchedule
from repro.core.sequential import SequentialScan
from repro.errors import MetricError, QueryError
from repro.metrics.euclidean import EuclideanSimilarity, SquaredEuclidean
from repro.metrics.histogram import HistogramIntersection
from repro.metrics.weighted import WeightedSquaredEuclidean
from repro.storage.compressed import CompressedStore
from repro.storage.decomposed import DecomposedStore
from repro.storage.rowstore import RowStore
from repro.workload.ground_truth import exact_top_k, result_scores_match


class TestDefaults:
    def test_default_metric_is_histogram_intersection(self, corel_store):
        searcher = BondSearcher(corel_store)
        assert isinstance(searcher.metric, HistogramIntersection)
        assert isinstance(searcher.bound, HqBound)

    def test_default_bound_for_each_metric(self):
        from repro.bounds.weighted import WeightedEuclideanBound

        assert isinstance(default_bound_for(HistogramIntersection()), HqBound)
        assert isinstance(default_bound_for(SquaredEuclidean()), EvBound)
        assert isinstance(
            default_bound_for(WeightedSquaredEuclidean(np.ones(3))), WeightedEuclideanBound
        )

    def test_default_bound_unknown_metric_rejected(self):
        with pytest.raises(QueryError):
            default_bound_for(EuclideanSimilarity())


class TestValidation:
    def test_k_must_be_positive(self, corel_store, corel_histograms):
        searcher = BondSearcher(corel_store)
        with pytest.raises(QueryError):
            searcher.search(corel_histograms[0], 0)

    def test_query_dimensionality_checked(self, corel_store):
        searcher = BondSearcher(corel_store)
        bad_query = np.full(corel_store.dimensionality + 1, 1.0 / (corel_store.dimensionality + 1))
        with pytest.raises(QueryError):
            searcher.search(bad_query, 5)

    def test_k_clamped_to_collection(self, corel_store, corel_histograms):
        searcher = BondSearcher(corel_store)
        result = searcher.search(corel_histograms[0], corel_store.cardinality + 50)
        assert result.k == corel_store.cardinality

    @pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "build",
        [
            lambda data: BondSearcher(DecomposedStore(data)),
            lambda data: CompressedBondSearcher(CompressedStore(DecomposedStore(data))),
            lambda data: ShardedBondSearcher(DecomposedStore(data), shards=2, workers=1),
            lambda data: SequentialScan(RowStore(data)),
        ],
        ids=["bond", "compressed", "sharded", "scan"],
    )
    def test_non_finite_query_rejected_on_the_direct_path(
        self, corel_histograms, build, bad_value
    ):
        """NaN compares False with everything, so it used to pass the
        histogram normalisation check and come back as a confident wrong
        answer (the highest OIDs, or nothing at all)."""
        searcher = build(corel_histograms[:200])
        bad_query = corel_histograms[3].copy()
        bad_query[7] = bad_value
        with pytest.raises(MetricError):
            searcher.search(bad_query, 5)
        with pytest.raises(MetricError):
            searcher.search_batch(np.stack([corel_histograms[4], bad_query]), 5)


class TestCorrectness:
    @pytest.mark.parametrize("bound_class", [HqBound, HhBound])
    def test_matches_sequential_scan_histogram(self, corel_histograms, bound_class):
        store = DecomposedStore(corel_histograms)
        searcher = BondSearcher(store, metric=HistogramIntersection(), bound=bound_class())
        scan = SequentialScan(RowStore(corel_histograms), metric=HistogramIntersection())
        for query_index in (0, 17, 333):
            bond_result = searcher.search(corel_histograms[query_index], 10)
            scan_result = scan.search(corel_histograms[query_index], 10)
            assert result_scores_match(bond_result, scan_result)

    @pytest.mark.parametrize("bound_factory", [EqBound, EvBound])
    def test_matches_sequential_scan_euclidean(self, clustered_vectors, bound_factory):
        store = DecomposedStore(clustered_vectors)
        searcher = BondSearcher(store, metric=SquaredEuclidean(), bound=bound_factory())
        scan = SequentialScan(RowStore(clustered_vectors), metric=SquaredEuclidean())
        for query_index in (3, 42, 999):
            bond_result = searcher.search(clustered_vectors[query_index], 10)
            scan_result = scan.search(clustered_vectors[query_index], 10)
            assert result_scores_match(bond_result, scan_result)

    def test_member_query_is_its_own_nearest_neighbour(self, corel_store, corel_histograms):
        searcher = BondSearcher(corel_store)
        result = searcher.search(corel_histograms[123], 1)
        assert result.oids[0] == 123
        assert result.scores[0] == pytest.approx(1.0)

    def test_non_member_query(self, corel_store, corel_histograms):
        rng = np.random.default_rng(0)
        query = rng.random(corel_store.dimensionality)
        query = query / query.sum()
        result = searcher_result = BondSearcher(corel_store).search(query, 5)
        reference = exact_top_k(corel_histograms, query, 5, HistogramIntersection())
        assert result_scores_match(searcher_result, reference)

    def test_correct_for_every_ordering(self, corel_histograms):
        store = DecomposedStore(corel_histograms)
        reference = exact_top_k(corel_histograms, corel_histograms[9], 10, HistogramIntersection())
        for ordering in (RandomOrdering(seed=1), IncreasingQueryOrdering()):
            searcher = BondSearcher(
                store, metric=HistogramIntersection(), bound=HqBound(), ordering=ordering
            )
            assert result_scores_match(searcher.search(corel_histograms[9], 10), reference)

    def test_correct_for_adaptive_schedule(self, corel_histograms):
        store = DecomposedStore(corel_histograms)
        searcher = BondSearcher(
            store,
            metric=HistogramIntersection(),
            bound=HqBound(),
            schedule=GeometricSchedule(initial_period=4),
        )
        reference = exact_top_k(corel_histograms, corel_histograms[2], 10, HistogramIntersection())
        assert result_scores_match(searcher.search(corel_histograms[2], 10), reference)

    @pytest.mark.parametrize("candidate_mode", ["auto", "bitmap", "positional"])
    def test_correct_for_every_candidate_mode(self, corel_histograms, candidate_mode):
        store = DecomposedStore(corel_histograms)
        searcher = BondSearcher(
            store, metric=HistogramIntersection(), bound=HqBound(), candidate_mode=candidate_mode
        )
        reference = exact_top_k(corel_histograms, corel_histograms[77], 10, HistogramIntersection())
        assert result_scores_match(searcher.search(corel_histograms[77], 10), reference)

    @pytest.mark.parametrize("k", [1, 3, 25, 100])
    def test_correct_for_various_k(self, corel_histograms, k):
        store = DecomposedStore(corel_histograms)
        searcher = BondSearcher(store, metric=HistogramIntersection(), bound=HqBound())
        reference = exact_top_k(corel_histograms, corel_histograms[31], k, HistogramIntersection())
        assert result_scores_match(searcher.search(corel_histograms[31], k), reference)

    def test_correct_on_uniform_data(self, uniform_vectors):
        """Uniform data is the hard case: little pruning, but results must stay exact."""
        store = DecomposedStore(uniform_vectors)
        searcher = BondSearcher(store, metric=SquaredEuclidean(), bound=EvBound())
        reference = exact_top_k(uniform_vectors, uniform_vectors[5], 10, SquaredEuclidean())
        assert result_scores_match(searcher.search(uniform_vectors[5], 10), reference)

    def test_results_ordered_best_first(self, corel_store, corel_histograms):
        result = BondSearcher(corel_store).search(corel_histograms[0], 20)
        assert np.all(np.diff(result.scores) <= 1e-12)


class TestWorkAvoidance:
    def test_prunes_most_of_the_collection(self, corel_store, corel_histograms):
        searcher = BondSearcher(corel_store, metric=HistogramIntersection(), bound=HqBound())
        result = searcher.search(corel_histograms[50], 10)
        _, remaining = result.candidate_trace.as_arrays()
        assert remaining[-1] <= max(10, 0.05 * corel_store.cardinality)

    def test_reads_fewer_bytes_than_scan(self, corel_histograms):
        store = DecomposedStore(corel_histograms)
        row_store = RowStore(corel_histograms)
        bond_result = BondSearcher(store, metric=HistogramIntersection(), bound=HqBound()).search(
            corel_histograms[50], 10
        )
        scan_result = SequentialScan(row_store, metric=HistogramIntersection()).search(
            corel_histograms[50], 10
        )
        assert bond_result.cost.bytes_read < scan_result.cost.bytes_read / 2

    def test_trace_is_monotone_decreasing(self, corel_store, corel_histograms):
        result = BondSearcher(corel_store).search(corel_histograms[8], 10)
        _, remaining = result.candidate_trace.as_arrays()
        assert np.all(np.diff(remaining) <= 0)

    def test_dimensions_processed_reported(self, corel_store, corel_histograms):
        result = BondSearcher(corel_store).search(corel_histograms[8], 10)
        assert 0 < result.dimensions_processed <= corel_store.dimensionality
        assert result.full_scan_dimensions <= result.dimensions_processed

    def test_subspace_query_never_touches_other_fragments(self, clustered_vectors):
        store = DecomposedStore(clustered_vectors)
        metric = WeightedSquaredEuclidean.for_subspace(clustered_vectors.shape[1], [0, 1, 2, 3])
        searcher = BondSearcher(store, metric=metric)
        result = searcher.search(clustered_vectors[0], 5)
        assert result.dimensions_processed <= 4


class TestAdaptiveDefaultPlan:
    """The default schedule against the paper's fixed m = 8: identical
    answers, fewer rounds, fewer bytes.  Counters repeat exactly, so the
    thresholds are plain numbers, not tolerances."""

    @pytest.fixture(scope="class")
    def collection(self) -> np.ndarray:
        from repro.datasets.corel import make_corel_like

        return make_corel_like(cardinality=4_000, dimensionality=64, seed=7)

    def test_fewer_rounds_and_fewer_bytes_than_fixed_eight(self, collection):
        from repro.core.planner import MassAwareSchedule

        adaptive = BondSearcher(DecomposedStore(collection))
        assert isinstance(adaptive._schedule, MassAwareSchedule)
        fixed = BondSearcher(DecomposedStore(collection), schedule=FixedPeriodSchedule(8))
        rounds = {"adaptive": [], "fixed": []}
        bytes_read = {"adaptive": 0, "fixed": 0}
        for row in range(0, 4_000, 125):
            query = collection[row]
            for label, searcher in (("adaptive", adaptive), ("fixed", fixed)):
                result = searcher.search(query, 10)
                rounds[label].append(len(result.candidate_trace.candidates_remaining) - 1)
                bytes_read[label] += result.cost.bytes_read
                if label == "adaptive":
                    mine = result
            assert np.array_equal(mine.oids, result.oids)
            assert np.array_equal(mine.scores, result.scores)
        assert np.mean(rounds["adaptive"]) <= 6
        assert np.mean(rounds["adaptive"]) < np.mean(rounds["fixed"])
        assert bytes_read["adaptive"] < bytes_read["fixed"]

    def test_search_reuses_its_candidate_workspace(self, corel_store, corel_histograms):
        searcher = BondSearcher(corel_store)
        searcher.search(corel_histograms[0], 5)
        workspace = searcher._search_candidates
        scores_buffer = workspace._scores_buffer
        first = searcher.search(corel_histograms[1], 5)
        again = searcher.search(corel_histograms[1], 5)
        assert searcher._search_candidates is workspace
        assert workspace._scores_buffer is scores_buffer
        assert np.array_equal(first.oids, again.oids)
        assert np.array_equal(first.scores, again.scores)
        assert first.cost.as_dict() == again.cost.as_dict()

    def test_a_warm_query_allocates_nothing_collection_sized(self):
        """One query, alone or as a batch of one, runs in the searcher's own
        scratch: less than one float64 column of fresh memory at its peak
        (the fixed few tens of KB of a search need a collection this tall to
        stay below that)."""
        import tracemalloc

        from repro.datasets.corel import make_corel_like

        collection = make_corel_like(cardinality=16_000, dimensionality=64, seed=7)
        searcher = BondSearcher(DecomposedStore(collection))
        query = collection[17]
        searcher.search(query, 10)  # warm the scratch
        column_bytes = 8 * collection.shape[0]
        for call in (
            lambda: searcher.search(query, 10),
            lambda: searcher.search_batch(query[None], 10),
        ):
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < column_bytes


class FinishAfter(FixedPeriodSchedule):
    """The paper's m = 8 for ``attempts`` checkpoints, then "finish" (0)."""

    def __init__(self, attempts: int) -> None:
        super().__init__(8)
        self._attempts = attempts
        self._seen = 0

    def first_batch(self, dimensionality, prefix_mass=None) -> int:
        self._seen = 0
        return super().first_batch(dimensionality, prefix_mass)

    def next_batch(self, **counts) -> int:
        self._seen += 1
        return 0 if self._seen >= self._attempts else super().next_batch(**counts)


class TestScheduleEndsTheScan:
    """A schedule returning 0 retires an exact run through ``_finish``: the
    survivors are completed on the unprocessed dimensions, so the answer is
    still the frozen seed search's, bitwise."""

    @pytest.mark.parametrize("metric", [HistogramIntersection(), SquaredEuclidean()])
    @pytest.mark.parametrize("attempts", [1, 2])
    def test_zero_retires_the_run_with_the_oracle_answer(self, corel_histograms, metric, attempts):
        seed = SeedBondSearcher(corel_histograms, metric)
        loop, fused = (
            BondSearcher(
                DecomposedStore(corel_histograms),
                metric=metric,
                schedule=FinishAfter(attempts),
                engine=engine,
            )
            for engine in ("loop", "fused")
        )
        queries = corel_histograms[[3, 150, 777]]
        batch = fused.search_batch(queries, 7)
        for query, batched in zip(queries, batch):
            expected = seed.search(query, 7)
            loop_result, fused_result = loop.search(query, 7), fused.search(query, 7)
            for result in (loop_result, fused_result, batched):
                assert np.array_equal(result.oids, expected.oids)
                assert np.array_equal(result.scores, expected.scores)
            assert loop_result.cost.as_dict() == fused_result.cost.as_dict()
            # The scan stopped at the schedule's word, not at the end.
            for result in (loop_result, fused_result):
                assert result.dimensions_processed == 8 * attempts
                assert list(result.candidate_trace.dimensions_processed) == [
                    8 * n for n in range(attempts + 1)
                ]

    def test_hand_off_schedule_on_the_exact_engine(self, corel_histograms):
        seed = SeedBondSearcher(corel_histograms)
        searcher = BondSearcher(DecomposedStore(corel_histograms), schedule=HandOffSchedule())
        for row in (5, 400, 1100):
            result = searcher.search(corel_histograms[row], 10)
            expected = seed.search(corel_histograms[row], 10)
            assert np.array_equal(result.oids, expected.oids)
            assert np.array_equal(result.scores, expected.scores)
            assert result.full_scan_dimensions == result.dimensions_processed
