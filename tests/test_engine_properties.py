"""Property-based tests for the engine operators and metric invariants.

These complement the example-based unit tests with randomised checks of the
algebraic identities the searchers silently rely on: selections agree with
a numpy filter, kfetch agrees with a full sort, gathers agree with fancy
indexing, per-dimension contributions always sum to the full metric score,
and the candidate-set bookkeeping stays consistent under arbitrary pruning
sequences.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.candidates import CandidateSet
from repro.engine.bat import BAT
from repro.engine.operators import kfetch, materialize, reverse_join, uselect
from repro.metrics.euclidean import SquaredEuclidean
from repro.metrics.histogram import HistogramIntersection
from repro.metrics.weighted import WeightedSquaredEuclidean
from repro.storage.decomposed import DecomposedStore

unit_columns = arrays(np.float64, st.integers(1, 200), elements=st.floats(0.0, 1.0))


@settings(max_examples=50, deadline=None)
@given(values=unit_columns, low=st.floats(0.0, 1.0), high=st.floats(0.0, 1.0))
def test_uselect_agrees_with_numpy(values, low, high):
    """uselect and a plain numpy filter select the same OIDs."""
    low, high = min(low, high), max(low, high)
    selected = uselect(BAT.dense(values), low, high).tail
    expected = np.nonzero((values >= low) & (values <= high))[0]
    assert np.array_equal(np.sort(selected), expected)


@settings(max_examples=50, deadline=None)
@given(values=unit_columns, k=st.integers(1, 50), largest=st.booleans())
def test_kfetch_agrees_with_sorting(values, k, largest):
    bat = BAT.dense(values)
    expected_order = np.sort(values)[::-1] if largest else np.sort(values)
    expected = expected_order[min(k, len(values)) - 1]
    assert kfetch(bat, k, largest=largest) == expected


@settings(max_examples=50, deadline=None)
@given(values=unit_columns, seed=st.integers(0, 1_000))
def test_gather_operators_agree_with_fancy_indexing(values, seed):
    rng = np.random.default_rng(seed)
    oids = rng.integers(0, len(values), size=min(len(values), 17))
    fragment = BAT.dense(values)
    candidates = BAT.dense(oids.astype(np.int64))
    assert np.array_equal(reverse_join(candidates, fragment).tail, values[oids])
    assert np.array_equal(materialize(fragment, oids), values[oids])


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(2, 60),
    columns=st.integers(2, 20),
    seed=st.integers(0, 10_000),
)
def test_contributions_always_sum_to_the_full_score(rows, columns, seed):
    """The column-wise decomposition of every metric is exact."""
    rng = np.random.default_rng(seed)
    data = rng.random((rows, columns)) + 1e-9
    histograms = data / data.sum(axis=1, keepdims=True)
    weights = rng.uniform(0.0, 3.0, size=columns)
    if not np.any(weights > 0):
        weights[0] = 1.0
    cases = [
        (HistogramIntersection(), histograms, histograms[seed % rows]),
        (SquaredEuclidean(require_unit_box=False), data, data[seed % rows]),
        (WeightedSquaredEuclidean(weights), data, data[seed % rows]),
    ]
    for metric, matrix, query in cases:
        accumulated = np.zeros(rows)
        for dimension in range(columns):
            accumulated += metric.contributions(
                matrix[:, dimension], query[dimension], dimension=dimension
            )
        assert np.allclose(accumulated, metric.score(matrix, query), atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(5, 80),
    columns=st.integers(2, 10),
    seed=st.integers(0, 10_000),
    prune_rounds=st.integers(1, 4),
)
def test_candidate_set_stays_consistent_under_arbitrary_pruning(rows, columns, seed, prune_rounds):
    """OIDs, scores and bookkeeping arrays stay aligned through any prune sequence."""
    rng = np.random.default_rng(seed)
    data = rng.random((rows, columns))
    store = DecomposedStore(data)
    candidates = CandidateSet(store, track_partial_sums=True, track_remaining_sums=True)
    metric = SquaredEuclidean(require_unit_box=False)
    query = data[seed % rows]

    processed_columns = []
    for round_index in range(prune_rounds):
        dimension = round_index % columns
        column = candidates.column_values(dimension)
        candidates.accumulate(metric.contributions(column, query[dimension]), column)
        processed_columns.append(dimension)
        keep = rng.random(len(candidates)) < 0.7
        if not keep.any():
            keep[0] = True
        candidates.prune(keep)

        oids = candidates.oids
        expected_scores = np.zeros(len(oids))
        expected_processed_sum = np.zeros(len(oids))
        for processed_dimension in processed_columns:
            expected_scores += metric.contributions(
                data[oids, processed_dimension], query[processed_dimension]
            )
            expected_processed_sum += data[oids, processed_dimension]
        assert np.allclose(candidates.partial_scores, expected_scores)
        assert np.allclose(candidates.partial_value_sums, expected_processed_sum)
        assert np.allclose(
            candidates.remaining_value_sums, data[oids].sum(axis=1) - expected_processed_sum
        )
