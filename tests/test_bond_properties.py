"""Property-based tests: BOND always returns exactly the brute-force top-k.

Whatever the data distribution, query, metric, k, pruning period or candidate
representation, BOND must return the same score multiset as a brute-force
scan — pruning is only allowed to remove vectors that provably cannot be in
the top k.  Hypothesis drives randomised collections and search parameters
through every metric/bound pairing.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds.euclidean import EqBound, EvBound
from repro.bounds.histogram import HhBound, HqBound
from repro.bounds.weighted import WeightedEuclideanBound
from repro.core.bond import BondSearcher
from repro.core.compressed import CompressedBondSearcher
from repro.core.planner import FixedPeriodSchedule, MassAwareSchedule
from repro.metrics.euclidean import SquaredEuclidean
from repro.metrics.histogram import HistogramIntersection
from repro.metrics.weighted import WeightedSquaredEuclidean
from repro.storage.compressed import CompressedStore
from repro.storage.decomposed import DecomposedStore
from repro.workload.ground_truth import exact_top_k, result_scores_match


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(20, 120),
    columns=st.integers(4, 24),
    seed=st.integers(0, 10_000),
    k=st.integers(1, 25),
    period=st.integers(1, 12),
)
@pytest.mark.parametrize("bound_class", [HqBound, HhBound])
def test_bond_equals_brute_force_histogram(bound_class, rows, columns, seed, k, period):
    rng = np.random.default_rng(seed)
    data = rng.random((rows, columns)) ** 3 + 1e-9  # cubing adds per-row skew
    data = data / data.sum(axis=1, keepdims=True)
    query = data[seed % rows]
    store = DecomposedStore(data)
    searcher = BondSearcher(
        store,
        metric=HistogramIntersection(),
        bound=bound_class(),
        schedule=FixedPeriodSchedule(period),
    )
    result = searcher.search(query, k)
    reference = exact_top_k(data, query, k, HistogramIntersection())
    assert result_scores_match(result, reference)


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(20, 120),
    columns=st.integers(4, 24),
    seed=st.integers(0, 10_000),
    k=st.integers(1, 25),
    period=st.integers(1, 12),
)
@pytest.mark.parametrize("bound_factory", [EqBound, EvBound])
def test_bond_equals_brute_force_euclidean(bound_factory, rows, columns, seed, k, period):
    rng = np.random.default_rng(seed)
    data = rng.random((rows, columns))
    query = data[seed % rows]
    store = DecomposedStore(data)
    searcher = BondSearcher(
        store,
        metric=SquaredEuclidean(),
        bound=bound_factory(),
        schedule=FixedPeriodSchedule(period),
    )
    result = searcher.search(query, k)
    reference = exact_top_k(data, query, k, SquaredEuclidean())
    assert result_scores_match(result, reference)


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(20, 100),
    columns=st.integers(4, 20),
    seed=st.integers(0, 10_000),
    k=st.integers(1, 15),
    zero_fraction=st.floats(0.0, 0.6),
)
def test_weighted_bond_equals_brute_force(rows, columns, seed, k, zero_fraction):
    rng = np.random.default_rng(seed)
    data = rng.random((rows, columns))
    weights = rng.uniform(0.1, 5.0, size=columns)
    zeroed = rng.random(columns) < zero_fraction
    if zeroed.all():
        zeroed[0] = False
    weights[zeroed] = 0.0
    metric = WeightedSquaredEuclidean(weights)
    query = data[seed % rows]
    store = DecomposedStore(data)
    searcher = BondSearcher(store, metric=metric, bound=WeightedEuclideanBound())
    result = searcher.search(query, k)
    reference = exact_top_k(data, query, k, metric)
    assert result_scores_match(result, reference)


@settings(max_examples=20, deadline=None)
@given(
    rows=st.integers(30, 100),
    columns=st.integers(4, 16),
    seed=st.integers(0, 10_000),
    k=st.integers(1, 10),
    bits=st.integers(3, 10),
)
def test_compressed_bond_equals_brute_force(rows, columns, seed, k, bits):
    """Filter-and-refine over quantised fragments never loses a true neighbour."""
    from repro.core.compressed import CompressedBondSearcher
    from repro.storage.compressed import CompressedStore

    rng = np.random.default_rng(seed)
    data = rng.random((rows, columns)) + 1e-9
    data = data / data.sum(axis=1, keepdims=True)
    query = data[seed % rows]
    compressed = CompressedStore(DecomposedStore(data), bits=bits)
    searcher = CompressedBondSearcher(compressed, metric=HistogramIntersection())
    result = searcher.search(query, k)
    reference = exact_top_k(data, query, k, HistogramIntersection())
    assert result_scores_match(result, reference)


@settings(max_examples=20, deadline=None)
@given(
    rows=st.integers(30, 100),
    columns=st.integers(4, 16),
    seed=st.integers(0, 10_000),
    k=st.integers(1, 10),
)
def test_vafile_equals_brute_force(rows, columns, seed, k):
    """The VA-file filter step never loses a true neighbour either."""
    from repro.baselines.vafile import VAFile
    from repro.storage.compressed import CompressedStore

    rng = np.random.default_rng(seed)
    data = rng.random((rows, columns))
    query = data[seed % rows]
    compressed = CompressedStore(DecomposedStore(data), bits=8)
    searcher = VAFile(compressed, metric=SquaredEuclidean())
    result = searcher.search(query, k)
    reference = exact_top_k(data, query, k, SquaredEuclidean())
    assert result_scores_match(result, reference)


# -- the adaptive default plan changes block boundaries, never answers ----------


def _histogram_rows(rng, rows, columns, duplicates):
    data = rng.random((rows, columns)) ** 3 + 1e-9
    data = data / data.sum(axis=1, keepdims=True)
    if duplicates:
        # Rows drawn from a small pool: exact duplicates, hence exact score
        # ties — including at the k-th position.
        data = data[rng.integers(0, max(2, rows // 4), size=rows)]
    return data


def _dominant(columns, position):
    """One dimension holding 0.9 of the mass: it alone exceeds the schedule's
    mass share, so the first block is clamped from below."""
    if columns == 1:
        return np.ones(1)
    query = np.full(columns, 0.1 / (columns - 1))
    query[position % columns] = 0.9
    return query


def _plan_setup(bound_name, rng, rows, columns, duplicates):
    """(data, metric, bound factory, three queries) for one bound family."""
    if bound_name in ("Hq", "Hh"):
        data = _histogram_rows(rng, rows, columns, duplicates)
        metric = HistogramIntersection(require_normalized=False)
        bound_factory = HqBound if bound_name == "Hq" else HhBound
        queries = np.stack(
            [data[int(rng.integers(rows))], _dominant(columns, int(rng.integers(columns))), np.zeros(columns)]
        )
        return data, metric, bound_factory, queries
    data = rng.random((rows, columns))
    if duplicates:
        data = data[rng.integers(0, max(2, rows // 4), size=rows)]
    queries = np.stack(
        [data[int(rng.integers(rows))], _dominant(columns, int(rng.integers(columns))), rng.random(columns)]
    )
    if bound_name == "Ev":
        return data, SquaredEuclidean(), EvBound, queries
    weights = rng.uniform(0.1, 5.0, size=columns)
    weights[rng.random(columns) < 0.3] = 0.0
    if not weights.any():
        weights[0] = 1.0
    return data, WeightedSquaredEuclidean(weights), WeightedEuclideanBound, queries


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(2, 300),
    columns=st.integers(1, 40),
    seed=st.integers(0, 10_000),
    # Small k lets the candidate set collapse to positional (where the block
    # sizes start doubling); large k covers k >= n.
    k=st.one_of(st.integers(1, 4), st.integers(1, 350)),
    duplicates=st.booleans(),
    deletions=st.booleans(),
)
@pytest.mark.parametrize("bound_name", ["Hq", "Hh", "Ev", "weighted"])
def test_default_plan_is_bitwise_the_fixed_period_plan(
    bound_name, rows, columns, seed, k, duplicates, deletions
):
    """Every exact path under the default (mass-aware) schedule returns the
    OIDs and scores of ``FixedPeriodSchedule(8)``, bit for bit: per-row scores
    are folded in the query's own dimension order wherever the block
    boundaries fall.  And under either schedule a single query *is* a batch
    of one — same answer, same trace, same accounted cost — for the exact and
    the compressed searcher alike."""
    from repro.core.parallel import ShardedBondSearcher

    rng = np.random.default_rng(seed)
    data, metric, bound_factory, queries = _plan_setup(bound_name, rng, rows, columns, duplicates)
    store = DecomposedStore(data)
    exclude = None
    if deletions and rows > 2:
        exclude = np.sort(rng.choice(rows, size=max(1, rows // 5), replace=False))

    fixed = BondSearcher(
        store, metric=metric, bound=bound_factory(), schedule=FixedPeriodSchedule(8)
    )
    references = [fixed.search(query, k, exclude=exclude) for query in queries]

    def check(results):
        for result, reference in zip(results, references):
            assert np.array_equal(result.oids, reference.oids)
            assert np.array_equal(result.scores, reference.scores)

    for engine in ("loop", "fused"):
        searcher = BondSearcher(store, metric=metric, bound=bound_factory(), engine=engine)
        check([searcher.search(query, k, exclude=exclude) for query in queries])
        check(searcher.search_batch(queries, k, exclude=exclude).results)
    if exclude is None:  # only BondSearcher takes tombstones
        with ShardedBondSearcher(
            store, metric=metric, bound=bound_factory(), shards=2, executor="thread"
        ) as sharded:
            check([sharded.search(query, k) for query in queries])
            check(sharded.search_batch(queries, k).results)

    def assert_single_is_batch_of_one(searcher, **options):
        answers = []
        for query in queries:
            single = searcher.search(query, k, **options)
            batch = searcher.search_batch(query[None], k, **options)
            assert np.array_equal(single.oids, batch[0].oids)
            assert np.array_equal(single.scores, batch[0].scores)
            assert single.candidate_trace == batch[0].candidate_trace
            assert single.dimensions_processed == batch[0].dimensions_processed
            assert single.full_scan_dimensions == batch[0].full_scan_dimensions
            assert single.cost.as_dict() == batch.cost.as_dict()
            answers.append(single)
        return answers

    compressed_answers = []
    for schedule in (MassAwareSchedule(), FixedPeriodSchedule(8)):
        check(
            assert_single_is_batch_of_one(
                BondSearcher(store, metric=metric, bound=bound_factory(), schedule=schedule),
                exclude=exclude,
            )
        )
        if exclude is None:  # only BondSearcher takes tombstones
            compressed_answers.append(
                assert_single_is_batch_of_one(
                    CompressedBondSearcher(
                        CompressedStore(store), metric=metric, schedule=schedule
                    )
                )
            )
    for mass_aware, fixed_period in zip(*compressed_answers):
        assert np.array_equal(mass_aware.oids, fixed_period.oids)
        assert np.array_equal(mass_aware.scores, fixed_period.scores)

