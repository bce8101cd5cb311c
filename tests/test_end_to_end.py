"""End-to-end integration tests exercising the public API as a user would."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import (
    BondSearcher,
    CompressedBondSearcher,
    CompressedStore,
    DecomposedStore,
    HistogramIntersection,
    RowStore,
    SequentialScan,
    SquaredEuclidean,
    VAFile,
    exact_top_k,
    make_clustered,
    make_corel_like,
    sample_queries,
)
from repro.workload.ground_truth import result_scores_match


class TestPublicApi:
    def test_version_and_exports(self):
        assert repro.__version__
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing export {name}"

    def test_readme_quickstart_flow(self):
        histograms = make_corel_like(cardinality=800, dimensionality=64, seed=1)
        store = DecomposedStore(histograms)
        searcher = BondSearcher(store, metric=HistogramIntersection())
        result = searcher.search(histograms[42], k=10)
        assert result.k == 10
        assert result.oids[0] == 42
        assert result.scores[0] == pytest.approx(1.0)
        assert result.cost.bytes_read > 0

    def test_image_retrieval_pipeline_consistency(self):
        """BOND, compressed BOND, the VA-file and the scan all agree end to end."""
        histograms = make_corel_like(cardinality=700, dimensionality=48, seed=2)
        workload = sample_queries(histograms, 5, seed=4)
        store = DecomposedStore(histograms)
        compressed = CompressedStore(store)
        metric = HistogramIntersection()
        searchers = [
            BondSearcher(store, metric=metric),
            CompressedBondSearcher(compressed, metric=metric),
            VAFile(compressed, metric=metric),
            SequentialScan(RowStore(histograms), metric=metric),
        ]
        for query in workload:
            results = [searcher.search(query, 10) for searcher in searchers]
            for other in results[1:]:
                assert result_scores_match(results[0], other)

    def test_euclidean_pipeline_consistency(self):
        vectors = make_clustered(cardinality=700, dimensionality=32, seed=5)
        store = DecomposedStore(vectors)
        metric = SquaredEuclidean()
        bond_result = BondSearcher(store, metric=metric).search(vectors[17], 10)
        reference = exact_top_k(vectors, vectors[17], 10, metric)
        assert result_scores_match(bond_result, reference)

    def test_weighted_and_subspace_round_trip(self):
        vectors = make_clustered(cardinality=500, dimensionality=24, seed=6)
        index = repro.Index.build(vectors)
        weights = np.zeros(24)
        weights[[2, 3, 5, 7]] = 1.0
        weighted_result = index.answer(
            repro.Query(vectors[9], k=5, weights=weights, normalize_weights=False)
        )
        subspace_result = index.answer(repro.Query(vectors[9], k=5, subspace=[2, 3, 5, 7]))
        assert np.allclose(np.sort(weighted_result.scores), np.sort(subspace_result.scores))
        index.close()

    def test_updates_then_search(self):
        histograms = make_corel_like(cardinality=400, dimensionality=32, seed=7)
        extra = make_corel_like(cardinality=10, dimensionality=32, seed=8)
        index = repro.Index.build(histograms)
        assert index.insert(extra).tolist() == list(range(400, 410))
        index.delete([0])
        query = repro.Query(extra[3], k=1, metric="histogram")
        live = index.answer(query)
        assert live.oids.tolist() == [403]
        assert index.reorganize() == 1
        assert index.cardinality == 409
        # Reorganisation compacts the deleted OID 0 away.
        result = index.answer(query)
        assert result.oids.tolist() == [402]
        assert result.scores[0] == pytest.approx(1.0)
        assert np.array_equal(result.scores, live.scores)

    def test_cost_model_isolation_between_queries(self):
        histograms = make_corel_like(cardinality=400, dimensionality=32, seed=9)
        store = DecomposedStore(histograms)
        searcher = BondSearcher(store, metric=HistogramIntersection())
        first = searcher.search(histograms[1], 5)
        second = searcher.search(histograms[2], 5)
        # Each result's cost covers only its own query (checkpoint-based accounting).
        assert abs(first.cost.bytes_read - second.cost.bytes_read) < first.cost.bytes_read
        assert store.cost.account.bytes_read >= first.cost.bytes_read + second.cost.bytes_read
