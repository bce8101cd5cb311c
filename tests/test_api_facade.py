"""Facade equivalence: ``Index.answer(Query(...))`` must be bitwise identical
to the corresponding direct searcher call for every registered backend and
mode, plus Query validation and the keyword-only construction surface."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.api import Index, Query, Searcher
from repro.baselines.rtree import RTreeIndex
from repro.baselines.vafile import VAFile
from repro.core.bond import BondSearcher
from repro.core.compressed import CompressedBondSearcher
from repro.core.result import PruningTrace
from repro.core.sequential import SequentialScan
from repro.errors import QueryError
from repro.metrics.euclidean import SquaredEuclidean
from repro.metrics.histogram import HistogramIntersection
from repro.metrics.weighted import WeightedSquaredEuclidean
from repro.storage.compressed import CompressedStore
from repro.storage.decomposed import DecomposedStore
from repro.storage.rowstore import RowStore


def results_identical(a, b) -> bool:
    return np.array_equal(a.oids, b.oids) and np.array_equal(a.scores, b.scores)


def batches_identical(a, b) -> bool:
    return len(a) == len(b) and all(results_identical(x, y) for x, y in zip(a, b))


@pytest.fixture(scope="module")
def corel_index(corel_histograms) -> Index:
    return Index.build(corel_histograms, name="facade-corel")


@pytest.fixture(scope="module")
def clustered_index(clustered_vectors) -> Index:
    return Index.build(clustered_vectors, name="facade-clustered")


class TestExactEquivalence:
    def test_bond_histogram_single(self, corel_index, corel_histograms):
        query = corel_histograms[7]
        facade = corel_index.answer(Query(query, k=10, metric="histogram"))
        direct = BondSearcher(
            DecomposedStore(corel_histograms), metric=HistogramIntersection()
        ).search(query, 10)
        assert results_identical(facade, direct)

    def test_bond_euclidean_single(self, clustered_index, clustered_vectors):
        query = clustered_vectors[3]
        facade = clustered_index.answer(Query(query, k=10, metric="euclidean"))
        direct = BondSearcher(
            DecomposedStore(clustered_vectors), metric=SquaredEuclidean()
        ).search(query, 10)
        assert results_identical(facade, direct)

    def test_bond_batched(self, corel_index, corel_histograms):
        queries = corel_histograms[:6]
        facade = corel_index.answer(Query(queries, k=8))
        direct = BondSearcher(DecomposedStore(corel_histograms)).search_batch(queries, 8)
        assert batches_identical(facade, direct)

    def test_sequential_scan_pinned(self, corel_index, corel_histograms):
        query = corel_histograms[11]
        facade = corel_index.answer(Query(query, k=10, backend="sequential_scan"))
        direct = SequentialScan(RowStore(corel_histograms), metric=HistogramIntersection()).search(
            query, 10
        )
        assert results_identical(facade, direct)

    def test_sequential_scan_batched(self, corel_index, corel_histograms):
        queries = corel_histograms[4:9]
        facade = corel_index.answer(Query(queries, k=7, backend="sequential_scan"))
        direct = SequentialScan(RowStore(corel_histograms)).search_batch(queries, 7)
        assert batches_identical(facade, direct)

    def test_rtree_pinned(self, clustered_index, clustered_vectors):
        query = clustered_vectors[9]
        facade = clustered_index.answer(Query(query, k=5, metric="euclidean", backend="rtree"))
        direct = RTreeIndex(clustered_vectors).search(query, 5)
        assert results_identical(facade, direct)

    def test_rtree_batched(self, clustered_index, clustered_vectors):
        queries = clustered_vectors[:3]
        facade = clustered_index.answer(Query(queries, k=4, metric="euclidean", backend="rtree"))
        direct = RTreeIndex(clustered_vectors).search_batch(queries, 4)
        assert batches_identical(facade, direct)


class TestCompressedEquivalence:
    def test_compressed_bond_single(self, corel_index, corel_histograms):
        query = corel_histograms[13]
        facade = corel_index.answer(Query(query, k=10, mode="compressed"))
        store = CompressedStore(DecomposedStore(corel_histograms))
        direct = CompressedBondSearcher(store, metric=HistogramIntersection()).search(query, 10)
        assert results_identical(facade, direct)

    def test_compressed_bond_batched(self, corel_index, corel_histograms):
        queries = corel_histograms[10:14]
        facade = corel_index.answer(Query(queries, k=6, mode="compressed"))
        store = CompressedStore(DecomposedStore(corel_histograms))
        direct = CompressedBondSearcher(store, metric=HistogramIntersection()).search_batch(
            queries, 6
        )
        assert batches_identical(facade, direct)

    def test_vafile_pinned(self, corel_index, corel_histograms):
        query = corel_histograms[17]
        facade = corel_index.answer(Query(query, k=10, mode="compressed", backend="vafile"))
        store = CompressedStore(DecomposedStore(corel_histograms))
        direct = VAFile(store, metric=HistogramIntersection()).search(query, 10)
        assert results_identical(facade, direct)

    def test_vafile_batched(self, corel_index, corel_histograms):
        queries = corel_histograms[20:23]
        facade = corel_index.answer(Query(queries, k=5, mode="compressed", backend="vafile"))
        store = CompressedStore(DecomposedStore(corel_histograms))
        direct = VAFile(store, metric=HistogramIntersection()).search_batch(queries, 5)
        assert batches_identical(facade, direct)


class TestWeightedSubspaceEquivalence:
    @staticmethod
    def direct(vectors, metric) -> BondSearcher:
        return BondSearcher(DecomposedStore(vectors), metric=metric)

    def test_weighted_matches_the_direct_searcher(self, clustered_index, clustered_vectors):
        rng = np.random.default_rng(5)
        weights = rng.random(clustered_vectors.shape[1]) + 0.1
        query = clustered_vectors[21]
        facade = clustered_index.answer(Query(query, k=10, metric="euclidean", weights=weights))
        metric = WeightedSquaredEuclidean(weights, normalize_to_dimensionality=True)
        direct = self.direct(clustered_vectors, metric).search(query, 10)
        assert results_identical(facade, direct)

    def test_weighted_unnormalized(self, clustered_index, clustered_vectors):
        weights = np.ones(clustered_vectors.shape[1]) * 3.0
        query = clustered_vectors[2]
        facade = clustered_index.answer(
            Query(query, k=5, weights=weights, normalize_weights=False)
        )
        metric = WeightedSquaredEuclidean(weights, normalize_to_dimensionality=False)
        direct = self.direct(clustered_vectors, metric).search(query, 5)
        assert results_identical(facade, direct)

    def test_weighted_batched(self, clustered_index, clustered_vectors):
        rng = np.random.default_rng(9)
        weights = rng.random(clustered_vectors.shape[1]) + 0.05
        queries = clustered_vectors[:4]
        facade = clustered_index.answer(Query(queries, k=6, weights=weights))
        metric = WeightedSquaredEuclidean(weights, normalize_to_dimensionality=True)
        direct = self.direct(clustered_vectors, metric).search_batch(queries, 6)
        assert batches_identical(facade, direct)

    def test_subspace_matches_the_direct_searcher(self, clustered_index, clustered_vectors):
        dimensions = [1, 4, 7, 20]
        query = clustered_vectors[30]
        facade = clustered_index.answer(Query(query, k=10, subspace=dimensions))
        metric = WeightedSquaredEuclidean.for_subspace(
            clustered_vectors.shape[1], np.asarray(dimensions)
        )
        direct = self.direct(clustered_vectors, metric).search(query, 10)
        assert results_identical(facade, direct)

    def test_weighted_scan_pinned(self, clustered_index, clustered_vectors):
        """The metric-generic scan serves weighted queries through score()."""
        weights = np.linspace(0.1, 2.0, clustered_vectors.shape[1])
        query = clustered_vectors[14]
        facade = clustered_index.answer(
            Query(query, k=5, weights=weights, backend="sequential_scan")
        )
        metric = clustered_index.resolved_metric(Query(query, k=5, weights=weights))
        direct = SequentialScan(RowStore(clustered_vectors), metric=metric).search(query, 5)
        assert results_identical(facade, direct)


class TestConcurrentAnswers:
    """Threads sharing one index share its cached searchers; each searcher
    serialises its own calls, so concurrent answers are the sequential ones."""

    ROWS = list(range(0, 1200, 20))

    @pytest.mark.parametrize(
        "index_options,query_options",
        [
            ({}, {}),
            ({}, {"mode": "compressed"}),
            ({"shards": 2}, {"backend": "sharded_bond"}),
        ],
        ids=["bond", "compressed_bond", "sharded_bond"],
    )
    def test_threads_get_the_sequential_answers(
        self, corel_histograms, index_options, query_options
    ):
        with Index.build(corel_histograms, **index_options) as index:
            queries = {row: Query(corel_histograms[row], k=6, **query_options) for row in self.ROWS}
            expected = {row: index.answer(query) for row, query in queries.items()}
            wrong, failures = [], []

            def drive(offset: int) -> None:
                try:
                    for row in self.ROWS[offset:] + self.ROWS[:offset]:
                        if not results_identical(index.answer(queries[row]), expected[row]):
                            wrong.append(row)
                except Exception as exc:  # reported below, on the test thread
                    failures.append(exc)

            switch_interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=drive, args=(offset,)) for offset in (0, 20, 40)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(switch_interval)
            assert not any(thread.is_alive() for thread in threads)
        assert not failures and not wrong


class TestFacadeSurface:
    def test_every_backend_satisfies_searcher_protocol(self, corel_index, corel_histograms):
        """Protocol totality: the retrofit gave every backend search + search_batch."""
        for name, metric_alias, mode in [
            ("bond", "histogram", "exact"),
            ("sequential_scan", "histogram", "exact"),
            ("rtree", "euclidean", "exact"),
            ("compressed_bond", "histogram", "compressed"),
            ("vafile", "histogram", "compressed"),
            ("ivf", "euclidean", "approx"),
        ]:
            query = Query(corel_histograms[0], k=3, metric=metric_alias, mode=mode, backend=name)
            plan = corel_index.plan(query)
            searcher = corel_index.searcher_for(plan.backend, query, plan.metric)
            assert isinstance(searcher, Searcher), name

    def test_searcher_cache_reuses_instances(self, corel_index, corel_histograms):
        query = Query(corel_histograms[0], k=3)
        plan = corel_index.plan(query)
        first = corel_index.searcher_for(plan.backend, query, plan.metric)
        second = corel_index.searcher_for(plan.backend, query, plan.metric)
        assert first is second

    def test_trace_request(self, corel_index, corel_histograms):
        result = corel_index.answer(Query(corel_histograms[1], k=5, trace=True))
        dims, remaining = result.candidate_trace.as_arrays()
        assert dims.shape[0] >= 2 and remaining[0] == corel_index.cardinality

    def test_trace_keyword_accepted_by_scan_and_vafile(self, corel_histograms):
        """The normalised trace keyword: no more TypeError on trace=None."""
        scan = SequentialScan(RowStore(corel_histograms))
        trace = PruningTrace()
        result = scan.search(corel_histograms[0], 5, trace=trace)
        assert result.candidate_trace is trace
        assert trace.candidates_remaining[-1] == corel_histograms.shape[0]

        vafile = VAFile(CompressedStore(DecomposedStore(corel_histograms)),
                        metric=HistogramIntersection())
        trace = PruningTrace()
        result = vafile.search(corel_histograms[0], 5, trace=trace)
        assert result.candidate_trace is trace
        assert trace.candidates_remaining[0] == corel_histograms.shape[0]

    def test_rtree_batch_matches_single(self, clustered_vectors):
        tree = RTreeIndex(clustered_vectors[:400])
        queries = clustered_vectors[:3]
        batch = tree.search_batch(queries, 4)
        singles = [tree.search(query, 4) for query in queries]
        assert batches_identical(batch, singles)

    def test_save_open_round_trip(self, corel_index, corel_histograms, tmp_path):
        path = corel_index.save(tmp_path / "persisted")
        reopened = Index.open(path)
        assert reopened.name == corel_index.name
        query = Query(corel_histograms[3], k=8)
        assert results_identical(reopened.answer(query), corel_index.answer(query))

    def test_open_restores_bits(self, corel_histograms, tmp_path):
        index = Index.build(corel_histograms[:200], bits=6)
        path = index.save(tmp_path / "bits6")
        reopened = Index.open(path)
        assert reopened.compressed.bits == 6


class TestQueryValidation:
    def test_rejects_bad_mode(self, corel_histograms):
        with pytest.raises(QueryError):
            Query(corel_histograms[0], mode="telepathy")

    def test_rejects_bad_k(self, corel_histograms):
        with pytest.raises(QueryError):
            Query(corel_histograms[0], k=0)

    def test_rejects_weights_plus_subspace(self, clustered_vectors):
        with pytest.raises(QueryError):
            Query(
                clustered_vectors[0],
                weights=np.ones(clustered_vectors.shape[1]),
                subspace=[0, 1],
            )

    def test_rejects_batch_false_for_matrix(self, corel_histograms):
        with pytest.raises(QueryError):
            Query(corel_histograms[:3], batch=False)

    def test_batch_true_promotes_single_vector(self, corel_histograms):
        query = Query(corel_histograms[0], batch=True)
        assert query.is_batch and query.batch_size == 1

    def test_rejects_unknown_metric_alias(self, corel_histograms):
        with pytest.raises(QueryError):
            Query(corel_histograms[0], metric="manhattan").resolve_metric()

    def test_rejects_out_of_range_subspace(self, clustered_vectors):
        with pytest.raises(QueryError):
            Query(clustered_vectors[0], subspace=[clustered_vectors.shape[1]])

    def test_rejects_explicit_histogram_with_weights(self, clustered_vectors):
        """An explicitly requested histogram metric must not be silently
        replaced by the weighted Euclidean distance (opposite semantics)."""
        with pytest.raises(QueryError):
            Query(
                clustered_vectors[0],
                metric="histogram",
                weights=np.ones(clustered_vectors.shape[1]),
            )
        with pytest.raises(QueryError):
            Query(clustered_vectors[0], metric="histogram_intersection", subspace=[0, 1])

    def test_euclidean_alias_composes_with_weights(self, clustered_vectors):
        query = Query(
            clustered_vectors[0],
            metric="euclidean",
            weights=np.ones(clustered_vectors.shape[1]),
        )
        assert query.resolve_metric().name == "weighted_squared_euclidean"

    def test_fresh_metric_instances_share_one_cache_entry(self, clustered_vectors):
        """Built-in metric instances key by configuration, not identity, so a
        per-request instance cannot rebuild expensive searchers (the R-tree)
        or grow the caches without bound."""
        index = Index.build(clustered_vectors[:300])
        first = Query(clustered_vectors[0], k=3, metric=SquaredEuclidean(), backend="rtree")
        second = Query(clustered_vectors[1], k=3, metric=SquaredEuclidean(), backend="rtree")
        assert first.metric_spec_key() == second.metric_spec_key()
        plan = index.plan(first)
        tree_one = index.searcher_for(plan.backend, first, plan.metric)
        plan_two = index.plan(second)
        tree_two = index.searcher_for(plan_two.backend, second, plan_two.metric)
        assert tree_one is tree_two

    def test_rejects_metric_instance_with_weights(self, clustered_vectors):
        with pytest.raises(QueryError):
            Query(
                clustered_vectors[0],
                metric=SquaredEuclidean(),
                weights=np.ones(clustered_vectors.shape[1]),
            )

    def test_query_is_frozen(self, corel_histograms):
        query = Query(corel_histograms[0], k=5)
        with pytest.raises(AttributeError):
            query.k = 6


class TestDeprecationShims:
    """The positional shims are gone: searcher configuration is keyword-only."""

    def test_too_many_positionals_is_an_error(self, corel_histograms):
        store = CompressedStore(DecomposedStore(corel_histograms[:100]))
        with pytest.raises(TypeError):
            VAFile(store, HistogramIntersection(), None)
