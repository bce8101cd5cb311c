"""Unit tests for the pruning bounds (Hq, Hh, Eq, Ev, weighted)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bounds.base import PartialState, PruningBound, RemainingBounds
from repro.bounds.euclidean import EqBound, EvBound, lemma1_upper_bound, lemma2_lower_bound
from repro.bounds.histogram import HhBound, HqBound
from repro.bounds.weighted import WeightedEuclideanBound
from repro.errors import BoundError
from repro.metrics.euclidean import SquaredEuclidean
from repro.metrics.histogram import HistogramIntersection
from repro.metrics.weighted import WeightedSquaredEuclidean


def make_state(
    data: np.ndarray,
    query: np.ndarray,
    num_processed: int,
    *,
    metric=None,
    weights: np.ndarray | None = None,
    track_partial_sums: bool = False,
    track_remaining_sums: bool = False,
) -> PartialState:
    """Build a PartialState by actually accumulating the first m dimensions."""
    metric = metric if metric is not None else HistogramIntersection()
    order = np.argsort(-(query if weights is None else weights * query * query), kind="stable")
    partial = np.zeros(data.shape[0])
    for dimension in order[:num_processed]:
        partial += metric.contributions(data[:, dimension], query[dimension], dimension=int(dimension))
    return PartialState(
        query=query,
        order=order.astype(np.int64),
        num_processed=num_processed,
        partial_scores=partial,
        partial_value_sums=data[:, order[:num_processed]].sum(axis=1) if track_partial_sums else None,
        remaining_value_sums=data[:, order[num_processed:]].sum(axis=1) if track_remaining_sums else None,
        weights=weights,
    )


class TestPartialState:
    def test_processed_and_remaining_split(self):
        state = PartialState(
            query=np.array([0.5, 0.3, 0.2]),
            order=np.array([2, 0, 1]),
            num_processed=1,
            partial_scores=np.zeros(4),
        )
        assert list(state.processed_dimensions) == [2]
        assert list(state.remaining_dimensions) == [0, 1]
        assert state.remaining_query == pytest.approx([0.5, 0.3])

    def test_validate_rejects_bad_order(self):
        state = PartialState(
            query=np.array([0.5, 0.5]),
            order=np.array([0]),
            num_processed=0,
            partial_scores=np.zeros(2),
        )
        with pytest.raises(BoundError):
            state.validate()

    def test_validate_rejects_misaligned_bookkeeping(self):
        state = PartialState(
            query=np.array([0.5, 0.5]),
            order=np.array([0, 1]),
            num_processed=1,
            partial_scores=np.zeros(3),
            partial_value_sums=np.zeros(2),
        )
        with pytest.raises(BoundError):
            state.validate()

    def test_validate_rejects_bad_num_processed(self):
        state = PartialState(
            query=np.array([0.5, 0.5]),
            order=np.array([0, 1]),
            num_processed=5,
            partial_scores=np.zeros(2),
        )
        with pytest.raises(BoundError):
            state.validate()

    def test_remaining_bounds_broadcast(self):
        bounds = RemainingBounds(lower=0.0, upper=1.0)
        lower, upper = bounds.as_arrays(3)
        assert lower.shape == (3,) and upper.shape == (3,)


class TestHqBound:
    def test_paper_example(self):
        """The worked example of Section 4.2 (Table 2): Hq prunes h1, h2, h4, h8."""
        collection = np.array(
            [
                [0.05, 0.9, 0.05, 0.0],
                [0.05, 0.05, 0.9, 0.0],
                [0.8, 0.1, 0.05, 0.05],
                [0.2, 0.6, 0.1, 0.1],
                [0.7, 0.15, 0.15, 0.0],
                [0.925, 0.0, 0.0, 0.075],
                [0.55, 0.2, 0.15, 0.1],
                [0.05, 0.1, 0.05, 0.8],
                [0.45, 0.5, 0.05, 0.0],
            ]
        )
        # Normalise the rows exactly (the paper's h6/h9 rows are slightly off).
        collection = collection / collection.sum(axis=1, keepdims=True)
        query = np.array([0.7, 0.15, 0.1, 0.05])
        state = make_state(collection, query, num_processed=2)
        lower, upper = HqBound().total_bounds(state)
        kappa = np.sort(lower)[::-1][2]  # k = 3
        pruned = set(np.nonzero(upper < kappa)[0])
        assert pruned == {0, 1, 3, 7}

    def test_bounds_constant_across_candidates(self, corel_histograms):
        query = corel_histograms[0]
        state = make_state(corel_histograms, query, num_processed=8)
        remaining = HqBound().remaining_bounds(state)
        assert np.isscalar(remaining.lower) or np.ndim(remaining.lower) == 0
        assert remaining.upper == pytest.approx(float(np.sort(query)[::-1][8:].sum()))

    def test_pruning_worthwhile_rule(self, corel_histograms):
        query = corel_histograms[0]
        early = make_state(corel_histograms, query, num_processed=0)
        assert not HqBound().pruning_worthwhile(early)
        late = make_state(corel_histograms, query, num_processed=corel_histograms.shape[1])
        assert HqBound().pruning_worthwhile(late)

    def test_all_dimensions_processed_bounds_are_tight(self, corel_histograms):
        query = corel_histograms[3]
        state = make_state(corel_histograms, query, num_processed=corel_histograms.shape[1])
        lower, upper = HqBound().total_bounds(state)
        actual = HistogramIntersection().score(corel_histograms, query)
        assert np.allclose(lower, actual)
        assert np.allclose(upper, actual)


class TestHhBound:
    def test_requires_partial_sums(self, corel_histograms):
        state = make_state(corel_histograms, corel_histograms[0], num_processed=4)
        with pytest.raises(BoundError):
            HhBound().remaining_bounds(state)

    def test_tighter_than_hq(self, corel_histograms):
        query = corel_histograms[0]
        state = make_state(corel_histograms, query, num_processed=8, track_partial_sums=True)
        hq_lower, hq_upper = HqBound().total_bounds(state)
        hh_lower, hh_upper = HhBound().total_bounds(state)
        assert np.all(hh_upper <= hq_upper + 1e-12)
        assert np.all(hh_lower >= hq_lower - 1e-12)

    def test_sound_against_actual_scores(self, corel_histograms):
        metric = HistogramIntersection()
        query = corel_histograms[5]
        state = make_state(corel_histograms, query, num_processed=12, track_partial_sums=True)
        lower, upper = HhBound().total_bounds(state)
        actual = metric.score(corel_histograms, query)
        assert np.all(lower <= actual + 1e-9)
        assert np.all(upper >= actual - 1e-9)


class TestLemmas:
    def test_lemma1_is_exact_maximum_two_dimensions(self):
        """Brute-force the 2-d case of the Lemma 1 proof sketch."""
        query = np.array([0.8, 0.3])
        for total in (0.0, 0.4, 1.0, 1.3, 2.0):
            bound = lemma1_upper_bound(query, np.array([total]))[0]
            best = 0.0
            for first in np.linspace(0.0, 1.0, 201):
                second = total - first
                if 0.0 <= second <= 1.0:
                    best = max(best, (first - query[0]) ** 2 + (second - query[1]) ** 2)
            assert bound == pytest.approx(best, abs=1e-3)

    def test_lemma2_is_exact_minimum_two_dimensions(self):
        query = np.array([0.8, 0.3])
        for total in (0.2, 0.9, 1.5):
            bound = lemma2_lower_bound(query, np.array([total]))[0]
            best = np.inf
            for first in np.linspace(0.0, 1.0, 401):
                second = total - first
                if 0.0 <= second <= 1.0:
                    best = min(best, (first - query[0]) ** 2 + (second - query[1]) ** 2)
            assert bound <= best + 1e-6

    def test_lemma1_empty_remaining(self):
        assert lemma1_upper_bound(np.array([]), np.array([0.3, 0.5])) == pytest.approx([0.0, 0.0])

    def test_lemma1_clips_out_of_range_sums(self):
        query = np.array([0.5, 0.5])
        high = lemma1_upper_bound(query, np.array([10.0]))[0]
        assert high == pytest.approx(2 * 0.25)


class TestEqBound:
    def test_corner_bound(self, clustered_vectors):
        metric = SquaredEuclidean()
        query = clustered_vectors[0]
        state = make_state(clustered_vectors, query, num_processed=4, metric=metric)
        remaining = EqBound().remaining_bounds(state)
        expected = float(np.sum(np.maximum(state.remaining_query, 1 - state.remaining_query) ** 2))
        assert remaining.upper == pytest.approx(expected)
        assert remaining.lower == 0.0

    def test_capped_variant_is_tighter_and_sound(self, corel_histograms):
        metric = SquaredEuclidean()
        query = corel_histograms[0]
        state = make_state(corel_histograms, query, num_processed=8, metric=metric)
        plain = EqBound().remaining_bounds(state)
        capped = EqBound(remaining_sum_cap=1.0).remaining_bounds(state)
        assert capped.upper <= plain.upper + 1e-12
        actual = metric.score(corel_histograms, query)
        _, upper = EqBound(remaining_sum_cap=1.0).total_bounds(state)
        assert np.all(upper >= actual - 1e-9)

    def test_negative_cap_rejected(self):
        with pytest.raises(BoundError):
            EqBound(remaining_sum_cap=-1.0)


class TestEvBound:
    def test_requires_remaining_sums(self, clustered_vectors):
        metric = SquaredEuclidean()
        state = make_state(clustered_vectors, clustered_vectors[0], num_processed=4, metric=metric)
        with pytest.raises(BoundError):
            EvBound().remaining_bounds(state)

    def test_sound_against_actual_distances(self, clustered_vectors):
        metric = SquaredEuclidean()
        query = clustered_vectors[7]
        state = make_state(
            clustered_vectors, query, num_processed=10, metric=metric, track_remaining_sums=True
        )
        lower, upper = EvBound().total_bounds(state)
        actual = metric.score(clustered_vectors, query)
        assert np.all(lower <= actual + 1e-9)
        assert np.all(upper >= actual - 1e-9)

    def test_no_remaining_dimensions_bounds_tight(self, clustered_vectors):
        metric = SquaredEuclidean()
        query = clustered_vectors[2]
        state = make_state(
            clustered_vectors, query, num_processed=clustered_vectors.shape[1],
            metric=metric, track_remaining_sums=True,
        )
        lower, upper = EvBound().total_bounds(state)
        actual = metric.score(clustered_vectors, query)
        assert np.allclose(lower, actual)
        assert np.allclose(upper, actual)


class TestWeightedBound:
    def test_requires_weights_and_sums(self, clustered_vectors):
        metric = SquaredEuclidean()
        state = make_state(clustered_vectors, clustered_vectors[0], num_processed=4, metric=metric,
                           track_remaining_sums=True)
        with pytest.raises(BoundError):
            WeightedEuclideanBound().remaining_bounds(state)

    def test_sound_against_actual_distances(self, clustered_vectors):
        rng = np.random.default_rng(9)
        weights = rng.uniform(0.1, 3.0, size=clustered_vectors.shape[1])
        metric = WeightedSquaredEuclidean(weights)
        query = clustered_vectors[11]
        state = make_state(
            clustered_vectors, query, num_processed=10, metric=metric,
            weights=weights, track_remaining_sums=True,
        )
        lower, upper = WeightedEuclideanBound().total_bounds(state)
        actual = metric.score(clustered_vectors, query)
        assert np.all(lower <= actual + 1e-9)
        assert np.all(upper >= actual - 1e-9)

    def test_zero_weight_dimension_gives_zero_lower_bound(self):
        lower = WeightedEuclideanBound._lower_bound(
            np.array([0.5, 0.5]), np.array([0.0, 1.0]), np.array([1.7])
        )
        assert lower[0] == 0.0

    def test_uniform_weights_match_unweighted_lemmas(self, clustered_vectors):
        weights = np.ones(clustered_vectors.shape[1])
        metric = WeightedSquaredEuclidean(weights)
        query = clustered_vectors[4]
        state = make_state(
            clustered_vectors, query, num_processed=8, metric=metric,
            weights=weights, track_remaining_sums=True,
        )
        weighted = WeightedEuclideanBound().remaining_bounds(state)
        unweighted_lower = lemma2_lower_bound(state.remaining_query, state.remaining_value_sums)
        assert np.allclose(weighted.lower, unweighted_lower)

    def test_paper_equation14_available(self):
        query = np.array([0.6, 0.2])
        weights = np.array([1.0, 1.0])
        bound = WeightedEuclideanBound.paper_equation14(query, weights, np.array([0.5]))
        expected = lemma1_upper_bound(query, np.array([0.5]))
        assert bound[0] == pytest.approx(expected[0])


class TestTotalBoundsScalarShortcut:
    """Ordered scalar remaining bounds skip the clamp pass; the arrays must be
    bitwise what the clamped computation produces."""

    class Scripted(PruningBound):
        def __init__(self, lower, upper):
            self._bounds = RemainingBounds(lower=lower, upper=upper)

        def remaining_bounds(self, state):
            return self._bounds

    @staticmethod
    def state(scores) -> PartialState:
        return PartialState(
            query=np.full(4, 0.25),
            order=np.arange(4),
            num_processed=2,
            partial_scores=np.asarray(scores, dtype=np.float64),
        )

    @pytest.mark.parametrize(
        "lower,upper",
        [(0.0, 0.3), (0.0, 0.0), (0.1, 0.1 + 1e-17), (0.3, 0.1), (0.0, float("nan"))],
    )
    def test_equals_the_clamped_reference(self, lower, upper):
        rng = np.random.default_rng(3)
        scores = np.concatenate([rng.random(500), [0.0, 1.0, 1e-300, 0.7 - 1e-16]])
        bound = self.Scripted(lower, upper)
        expected_lower = scores + lower
        expected_upper = np.maximum(scores + upper, expected_lower)
        for out in (None, (np.empty_like(scores), np.empty_like(scores))):
            got_lower, got_upper = bound.total_bounds(self.state(scores), out=out)
            assert np.array_equal(got_lower, expected_lower, equal_nan=True)
            assert np.array_equal(got_upper, expected_upper, equal_nan=True)

    def test_array_bounds_still_clamp(self):
        scores = np.array([0.2, 0.4])
        bound = self.Scripted(np.array([0.1, 0.3]), np.array([0.3, 0.1]))
        _, upper = bound.total_bounds(self.state(scores))
        assert np.array_equal(upper, [0.5, 0.7])

    def test_total_bounds_validates_and_delegates_to_totals(self):
        state = self.state([0.1, 0.2])
        bound = self.Scripted(0.0, 0.1)
        lower, upper = bound.total_bounds(state)
        direct_lower, direct_upper = bound.remaining_bounds(state).totals(state.partial_scores)
        assert np.array_equal(lower, direct_lower) and np.array_equal(upper, direct_upper)
        state.num_processed = 99  # inconsistent on purpose
        with pytest.raises(BoundError):
            bound.total_bounds(state)
