"""Exact-equivalence tests for the fused engine and the batched query APIs.

``search`` and ``search_batch`` may change *how* storage is touched, but
every returned (OIDs, scores) pair must be **bitwise identical** to the
column-at-a-time references of ``tests/oracle.py`` — the frozen seed search
and ``PerDimensionBondSearcher`` — for all three metrics and any pruning
period.  ``np.array_equal`` (not ``allclose``) everywhere.  What the fused
engine is charged equals the per-dimension reference's counters, pinned to
literals recorded from the per-dimension engine it replaced
(``test_charges_the_recorded_costs``).
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle import PerDimensionBondSearcher, SeedBondSearcher

from repro.core.bond import BondSearcher
from repro.core.candidates import CandidateSet
from repro.core.compressed import CompressedBondSearcher
from repro.core.planner import FixedPeriodSchedule, GeometricSchedule, MassAwareSchedule
from repro.core.result import BatchSearchResult
from repro.core.sequential import SequentialScan
from repro.engine.cost import CostAccount
from repro.errors import QueryError
from repro.metrics.euclidean import SquaredEuclidean
from repro.metrics.histogram import HistogramIntersection
from repro.metrics.weighted import WeightedSquaredEuclidean
from repro.storage.compressed import CompressedStore
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
# Weighted, one dimension left at the last prune: the seed search's weighted
# bound inverts by an ulp there and prunes the answer; the product does not.
@example(rows=90, columns=6, seed=0, k=1, period=1)
@pytest.mark.parametrize("metric_name", ["histogram", "euclidean", "weighted"])
def test_search_and_batch_match_the_per_dimension_reference(
    metric_name, rows, columns, seed, k, period
):
    data, rng = _collection(rows, columns, seed, normalized=metric_name == "histogram")
    metric, _ = _metric_for(metric_name, columns, rng)
    queries = data[rng.choice(rows, size=4, replace=False)]
    searcher, reference = (
        searcher_class(DecomposedStore(data), metric=metric, schedule=FixedPeriodSchedule(period))
        for searcher_class in (BondSearcher, PerDimensionBondSearcher)
    )

    references = [reference.search(query, k) for query in queries]
    for query, wanted in zip(queries, references):
        result = searcher.search(query, k)
        _assert_identical(result, wanted)
        assert result.cost.as_dict() == wanted.cost.as_dict()
        assert result.candidate_trace == wanted.candidate_trace
    batch = searcher.search_batch(queries, k)
    assert isinstance(batch, BatchSearchResult)
    assert len(batch) == len(queries)
    for result, wanted in zip(batch, references):
        _assert_identical(result, wanted)


@settings(max_examples=10, deadline=None)
@given(rows=st.integers(40, 140), columns=st.integers(6, 20), seed=st.integers(0, 10_000))
def test_batch_matches_the_seed_with_adaptive_schedule(rows, columns, seed):
    """Per-query schedule state must not leak between batched queries."""
    data, rng = _collection(rows, columns, seed, normalized=True)
    queries = data[rng.choice(rows, size=5, replace=False)]
    searcher = BondSearcher(DecomposedStore(data), schedule=GeometricSchedule(2))
    oracle = SeedBondSearcher(data)
    references = [oracle.search(query, 5) for query in queries]
    for result, reference in zip(searcher.search_batch(queries, 5), references):
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
    singles = BondSearcher(single_store)
    for query in queries:
        singles.search(query, 5)
    single_bytes = single_store.cost.account.bytes_read

    batch_store = DecomposedStore(data)
    batched = BondSearcher(batch_store)
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


#: ``cost.as_dict()`` of one single-query search, in ``CostAccount.WIRE_FIELDS``
#: order, its pruning trace and its full-height dimensions — recorded from
#: the per-dimension engine (whose counters the fused engine matched) on the
#: shared ``corel_histograms`` / ``clustered_vectors`` fixtures, k = 10.  A change to any of them is a change to the
#: accounting, to be made on purpose.
RECORDED_EXACT_COSTS = {
    ("Hq", "mass", 3): ((129344, 16168, 20640, 1522, 1532, 136, 37), [0, 5, 13, 21, 37], [1200, 282, 26, 14, 10], 13),
    ("Hq", "mass", 777): ((119152, 14894, 14792, 1332, 1342, 142, 36), [0, 4, 12, 20, 36], [1200, 99, 22, 11, 10], 12),
    ("Hq", "m8", 3): ((84256, 10532, 23522, 1289, 1299, 220, 32), [0, 8, 16, 24, 32], [1200, 60, 18, 11, 10], 8),
    ("Hq", "m8", 777): ((81624, 10203, 22836, 1242, 1252, 267, 24), [0, 8, 16, 24], [1200, 27, 15, 10], 8),
    ("euclidean", "mass", 3): ((156456, 19557, 63388, 2438, 2448, 21, 32), [0, 8, 16, 24, 32], [1200, 1196, 21, 21, 10], 16),
    ("euclidean", "mass", 777): ((157576, 19697, 63908, 2458, 2468, 33, 32), [0, 8, 16, 24, 32], [1200, 1200, 33, 25, 10], 16),
    ("euclidean", "m8", 3): ((156456, 19557, 63388, 2438, 2448, 21, 32), [0, 8, 16, 24, 32], [1200, 1196, 21, 21, 10], 16),
    ("euclidean", "m8", 777): ((157576, 19697, 63908, 2458, 2468, 33, 32), [0, 8, 16, 24, 32], [1200, 1200, 33, 25, 10], 16),
    ("weighted", "mass", 3): ((155112, 19389, 82314, 2421, 2431, 21, 24), [0, 8, 16, 24], [1200, 1200, 21, 10], 16),
    ("weighted", "mass", 777): ((155400, 19425, 82450, 2425, 2435, 25, 24), [0, 8, 16, 24], [1200, 1200, 25, 10], 16),
    ("weighted", "m8", 3): ((155112, 19389, 82314, 2421, 2431, 21, 24), [0, 8, 16, 24], [1200, 1200, 21, 10], 16),
    ("weighted", "m8", 777): ((155400, 19425, 82450, 2425, 2435, 25, 24), [0, 8, 16, 24], [1200, 1200, 25, 10], 16),
}


def assert_recorded(result, recorded) -> None:
    """One search's counters, trace and full-height count equal a record."""
    cost, dimensions, remaining, full_scan = recorded
    assert result.cost.as_dict() == dict(zip(CostAccount.WIRE_FIELDS, cost))
    assert result.candidate_trace.dimensions_processed == dimensions
    assert result.candidate_trace.candidates_remaining == remaining
    assert result.dimensions_processed == dimensions[-1]
    assert result.full_scan_dimensions == full_scan


@pytest.mark.parametrize("case", sorted(RECORDED_EXACT_COSTS), ids=lambda case: "-".join(map(str, case)))
def test_charges_the_recorded_costs(case, corel_histograms, clustered_vectors):
    """Fusion changes how work is issued, not how much is accounted: HI on
    the histogram fixture; squared Euclidean and a skewed weighted metric
    (a quarter of the weights zero) on the clustered one."""
    metric_name, schedule_name, row = case
    if metric_name == "Hq":
        data, metric = corel_histograms, HistogramIntersection()
    elif metric_name == "euclidean":
        data, metric = clustered_vectors, SquaredEuclidean()
    else:
        weights = np.random.default_rng(5).uniform(0.0, 1.0, 32) ** 4 * 8.0
        weights[::4] = 0.0
        data, metric = clustered_vectors, WeightedSquaredEuclidean(weights)
    for searcher_class in (BondSearcher, PerDimensionBondSearcher):
        schedule = MassAwareSchedule() if schedule_name == "mass" else FixedPeriodSchedule(8)
        searcher = searcher_class(DecomposedStore(data), metric=metric, schedule=schedule)
        assert_recorded(searcher.search(data[row], 10), RECORDED_EXACT_COSTS[case])


def test_batch_with_deleted_vectors():
    data, rng = _collection(120, 10, 9, normalized=True)
    deleted = np.array([0, 5, 17])
    kept = np.setdiff1d(np.arange(120), deleted)
    searcher = BondSearcher(DecomposedStore(data))
    oracle = SeedBondSearcher(data[kept])
    queries = data[[2, 30]]
    for query, result in zip(queries, searcher.search_batch(queries, 4, exclude=deleted)):
        reference = oracle.search(query, 4)
        assert np.array_equal(result.oids, kept[reference.oids])
        assert np.array_equal(result.scores, reference.scores)
        assert not set(result.oids) & {0, 5, 17}


@pytest.mark.parametrize("k", [4, 110, 500])
@pytest.mark.parametrize("metric_name", ["histogram", "euclidean"])
def test_exclude_matches_a_search_over_the_compacted_rows(metric_name, k):
    """``exclude=`` answers like a search over the rows left, even when
    excluded rows would set the pruning threshold or tie a live one at the
    k-th place.  ``k = 110`` lies between the live and the stored row
    counts, so the threshold is infinite and only the forced ``keep``
    removes the tombstones; ``k = 500`` exceeds the collection: the run
    never prunes, so ``_finish`` drops them."""
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
    # Tombstones: rows 0, 5 and 17, the copies, the first query's own row,
    # the tie's winner, and a handful more.
    others = np.setdiff1d(rest, [winner, survivor])
    exclude = np.unique(
        [0, 5, 17, *copies, 2, winner, *rng.choice(others, size=6, replace=False).tolist()]
    )
    kept = np.setdiff1d(np.arange(120), exclude)
    assert kept.shape[0] < 110 < store.cardinality
    reference = BondSearcher(DecomposedStore(data[kept]), metric=metric)
    searcher = BondSearcher(store, metric=metric)

    expected = [reference.search(query, k) for query in queries]
    singles = [searcher.search(query, k, exclude=exclude) for query in queries]
    for results in (singles, searcher.search_batch(queries, k, exclude=exclude).results):
        for result, wanted in zip(results, expected):
            assert np.array_equal(result.oids, kept[wanted.oids])
            assert np.array_equal(result.scores, wanted.scores)
    # The live twin takes the excluded one's place at the k-th slot.
    assert survivor in singles[0].oids.tolist()


def test_construction_surface_is_pinned():
    """One engine per searcher and one candidate-set policy: a new option
    must change this test on purpose."""

    def keywords(callable_) -> set[str]:
        return {
            name
            for name, parameter in inspect.signature(callable_).parameters.items()
            if parameter.kind is inspect.Parameter.KEYWORD_ONLY
        }

    assert keywords(BondSearcher) == {"metric", "bound", "ordering", "schedule"}
    assert keywords(CompressedBondSearcher) == {"metric", "ordering", "schedule"}
    assert keywords(CandidateSet) == {"track_partial_sums", "track_remaining_sums"}
    data, _ = _collection(20, 5, 0, normalized=True)
    store = DecomposedStore(data)
    for retired in ({"engine": "loop"}, {"candidate_mode": "bitmap"}, {"switch_selectivity": 0.5}):
        with pytest.raises(TypeError):
            BondSearcher(store, **retired)
    with pytest.raises(TypeError):
        CompressedBondSearcher(CompressedStore(store), engine="loop")
    for retired in ({"mode": "positional"}, {"switch_selectivity": 0.5}):
        with pytest.raises(TypeError):
            CandidateSet(store, **retired)


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
