"""Exact-equivalence tests for the fused engine and the batched query APIs.

The contract of this PR's performance work: the fused block-scan engine and
``search_batch`` may change *how* storage is touched, but every returned
(OIDs, scores) pair must be **bitwise identical** to the seed per-dimension
path (``engine="loop"``) — for all three metrics and both candidate
representations.  ``np.array_equal`` (not ``allclose``) everywhere.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bond import BondSearcher
from repro.core.planner import FixedPeriodSchedule, GeometricSchedule
from repro.core.result import BatchSearchResult
from repro.core.sequential import SequentialScan
from repro.errors import QueryError
from repro.metrics.euclidean import SquaredEuclidean
from repro.metrics.histogram import HistogramIntersection
from repro.metrics.weighted import WeightedSquaredEuclidean
from repro.storage.decomposed import DecomposedStore
from repro.storage.rowstore import RowStore


def _collection(rows: int, columns: int, seed: int, *, normalized: bool):
    rng = np.random.default_rng(seed)
    data = rng.random((rows, columns)) + 1e-9
    if normalized:
        data = data / data.sum(axis=1, keepdims=True)
    return data, rng


def _metric_for(name: str, columns: int, rng):
    if name == "histogram":
        return HistogramIntersection(), True
    if name == "euclidean":
        return SquaredEuclidean(), False
    weights = rng.uniform(0.1, 4.0, size=columns)
    weights[rng.random(columns) < 0.2] = 0.0
    if not np.any(weights > 0.0):
        weights[0] = 1.0
    return WeightedSquaredEuclidean(weights), False


def _assert_identical(result, reference):
    assert np.array_equal(result.oids, reference.oids)
    assert np.array_equal(result.scores, reference.scores)


@settings(max_examples=12, deadline=None)
@given(
    rows=st.integers(30, 150),
    columns=st.integers(6, 24),
    seed=st.integers(0, 10_000),
    k=st.integers(1, 12),
    period=st.integers(1, 10),
)
@pytest.mark.parametrize("metric_name", ["histogram", "euclidean", "weighted"])
@pytest.mark.parametrize("candidate_mode", ["auto", "bitmap", "positional"])
def test_fused_and_batched_match_loop_exactly(
    metric_name, candidate_mode, rows, columns, seed, k, period
):
    data, rng = _collection(rows, columns, seed, normalized=metric_name == "histogram")
    metric, _ = _metric_for(metric_name, columns, rng)
    queries = data[rng.choice(rows, size=4, replace=False)]
    store = DecomposedStore(data)
    schedule = FixedPeriodSchedule(period)
    loop = BondSearcher(
        store, metric=metric, schedule=schedule, candidate_mode=candidate_mode, engine="loop"
    )
    fused = BondSearcher(
        store, metric=metric, schedule=schedule, candidate_mode=candidate_mode, engine="fused"
    )

    references = [loop.search(query, k) for query in queries]
    for query, reference in zip(queries, references):
        _assert_identical(fused.search(query, k), reference)
    batch = fused.search_batch(queries, k)
    assert isinstance(batch, BatchSearchResult)
    assert len(batch) == len(queries)
    for result, reference in zip(batch, references):
        _assert_identical(result, reference)


@settings(max_examples=10, deadline=None)
@given(rows=st.integers(40, 140), columns=st.integers(6, 20), seed=st.integers(0, 10_000))
def test_batch_matches_loop_with_adaptive_schedule(rows, columns, seed):
    """Per-query schedule state must not leak between batched queries."""
    data, rng = _collection(rows, columns, seed, normalized=True)
    queries = data[rng.choice(rows, size=5, replace=False)]
    store = DecomposedStore(data)
    loop = BondSearcher(store, schedule=GeometricSchedule(2), engine="loop")
    fused = BondSearcher(store, schedule=GeometricSchedule(2), engine="fused")
    references = [loop.search(query, 5) for query in queries]
    for result, reference in zip(fused.search_batch(queries, 5), references):
        _assert_identical(result, reference)


@settings(max_examples=10, deadline=None)
@given(
    rows=st.integers(30, 200),
    columns=st.integers(4, 16),
    seed=st.integers(0, 10_000),
    k=st.integers(1, 10),
)
def test_sequential_scan_batch_matches_single(rows, columns, seed, k):
    data, rng = _collection(rows, columns, seed, normalized=True)
    queries = data[rng.choice(rows, size=3, replace=False)]
    scan = SequentialScan(RowStore(data), batch_size=64)
    references = [scan.search(query, k) for query in queries]
    batch = scan.search_batch(queries, k)
    assert len(batch) == 3
    for result, reference in zip(batch, references):
        _assert_identical(result, reference)


def test_batch_of_one_matches_search():
    data, rng = _collection(80, 12, 5, normalized=True)
    store = DecomposedStore(data)
    searcher = BondSearcher(store)
    query = data[7]
    reference = searcher.search(query, 3)
    batch = searcher.search_batch(query, 3)
    assert batch.batch_size == 1
    _assert_identical(batch[0], reference)


def test_batch_shares_fragment_reads():
    """The whole point: one pass over a column serves every query."""
    data, rng = _collection(400, 16, 11, normalized=True)
    queries = data[:6]

    single_store = DecomposedStore(data)
    singles = BondSearcher(single_store, engine="fused")
    for query in queries:
        singles.search(query, 5)
    single_bytes = single_store.cost.account.bytes_read

    batch_store = DecomposedStore(data)
    batched = BondSearcher(batch_store, engine="fused")
    batch = batched.search_batch(queries, 5)
    assert batch.cost.bytes_read < single_bytes

    scan_store = RowStore(data)
    scan = SequentialScan(scan_store, batch_size=128)
    for query in queries:
        scan.search(query, 5)
    scan_single_bytes = scan_store.cost.account.bytes_read
    scan_batch_store = RowStore(data)
    scan_batch = SequentialScan(scan_batch_store, batch_size=128).search_batch(queries, 5)
    # One table pass instead of six.
    assert scan_batch.cost.bytes_read * 5 < scan_single_bytes


def test_loop_and_fused_charge_identical_costs():
    """Fusion changes how work is issued, not how much is accounted."""
    data, rng = _collection(300, 20, 3, normalized=True)
    queries = data[:4]
    loop_store = DecomposedStore(data)
    fused_store = DecomposedStore(data)
    loop = BondSearcher(loop_store, engine="loop")
    fused = BondSearcher(fused_store, engine="fused")
    for query in queries:
        loop_result = loop.search(query, 5)
        fused_result = fused.search(query, 5)
        assert loop_result.cost.as_dict() == fused_result.cost.as_dict()


def test_batch_with_deleted_vectors():
    data, rng = _collection(120, 10, 9, normalized=True)
    store = DecomposedStore(data)
    store.delete([0, 5, 17])
    searcher = BondSearcher(store, engine="fused")
    loop = BondSearcher(store, engine="loop")
    queries = data[[2, 30]]
    references = [loop.search(query, 4) for query in queries]
    for result, reference in zip(searcher.search_batch(queries, 4), references):
        _assert_identical(result, reference)
        assert not set(result.oids) & {0, 5, 17}


@pytest.mark.parametrize("k", [4, 110, 500])
@pytest.mark.parametrize("engine", ["fused", "loop"])
@pytest.mark.parametrize("metric_name", ["histogram", "euclidean"])
def test_exclude_matches_a_search_over_the_compacted_rows(metric_name, engine, k):
    """``exclude=`` over a store with its own deletes answers like a search
    over the rows left, even when excluded rows would set the pruning
    threshold or tie a live one at the k-th place.  ``k = 110`` lies between
    the live and the stored row counts, so the threshold is infinite and only
    the forced ``keep`` removes the tombstones; ``k = 500`` exceeds the
    collection: the run never prunes, so ``_finish`` drops them."""
    data, rng = _collection(120, 10, 13, normalized=True)
    metric, _ = _metric_for(metric_name, 10, rng)
    # The first query is peaked, unlike every other row, and four excluded
    # rows copy it: were they to keep their bounds, they would set the first
    # pruning threshold and prune the live answer.
    copies = [40, 41, 42, 43]
    data[[2, *copies]] = 0.1 / 9
    data[[2, *copies], 0] = 0.9
    queries = data[[2, 30, 64]]
    # Among the other live rows, the first query's 4th best gets a twin at
    # the bottom of its ranking; the twin with the smaller OID wins the tie.
    rest = [
        int(oid)
        for oid in metric.best_first(metric.score(data, queries[0]))
        if oid not in {0, 2, 5, 17, *copies}
    ]
    winner, survivor = sorted([rest[3], rest[-1]])
    data[[winner, survivor]] = data[rest[3]]
    store = DecomposedStore(data)
    store.delete([0, 5, 17])
    # Tombstones: the copies, the first query's own row, the tie's winner,
    # a row the store already deleted, and a handful more.
    others = np.setdiff1d(rest, [winner, survivor])
    exclude = np.unique(
        [*copies, 2, winner, 5, *rng.choice(others, size=6, replace=False).tolist()]
    )
    kept = np.setdiff1d(np.arange(120), np.union1d(exclude, [0, 5, 17]))
    reference = BondSearcher(DecomposedStore(data[kept]), metric=metric)
    searcher = BondSearcher(store, metric=metric, engine=engine)

    expected = [reference.search(query, k) for query in queries]
    singles = [searcher.search(query, k, exclude=exclude) for query in queries]
    for results in (singles, searcher.search_batch(queries, k, exclude=exclude).results):
        for result, wanted in zip(results, expected):
            assert np.array_equal(result.oids, kept[wanted.oids])
            assert np.array_equal(result.scores, wanted.scores)
    # The live twin takes the excluded one's place at the k-th slot.
    assert survivor in singles[0].oids.tolist()


def test_engine_argument_validated():
    data, _ = _collection(20, 5, 0, normalized=True)
    with pytest.raises(QueryError):
        BondSearcher(DecomposedStore(data), engine="turbo")


def test_batch_rejects_bad_shapes():
    data, _ = _collection(20, 5, 0, normalized=True)
    searcher = BondSearcher(DecomposedStore(data))
    with pytest.raises(QueryError):
        searcher.search_batch(np.full((2, 3), 1.0 / 3.0), 2)
    with pytest.raises(QueryError):
        searcher.search_batch(data[:2] / data[:2].sum(axis=1, keepdims=True), 0)


def test_weighted_bound_ulp_regression():
    """Seed bug: with one remaining dimension the weighted bounds invert by
    one ULP and the true nearest neighbour prunes itself (empty result)."""
    rng = np.random.default_rng(321)
    data = rng.random((20, 9))
    weights = rng.uniform(0.1, 5.0, size=9)
    metric = WeightedSquaredEuclidean(weights)
    store = DecomposedStore(data)
    searcher = BondSearcher(store, metric=metric)
    result = searcher.search(data[1], 1)
    assert result.k == 1
    assert result.oids[0] == 1
    assert result.scores[0] == 0.0
