"""The differential oracle for exact BOND: the seed's search path, frozen.

This module vendors the search loop exactly as it existed at the seed commit,
*before* the fused block-scan kernels, the contiguous fragment layout, the
adaptive schedule and the allocation-free pruning landed:

* dimension fragments are strided views into the row-major matrix (the seed's
  ``BAT.dense(matrix[:, dim])`` kept the view, so every fragment access paid
  row-store locality);
* one Python round trip per dimension: fetch the candidates' column, compute
  its contributions, accumulate;
* a pruning attempt every ``period`` dimensions (the paper's m = 8);
* candidate state is reallocated on every prune (boolean fancy indexing);
* pruning bounds are broadcast into fresh per-candidate arrays per attempt.

``tests/test_oracle.py`` requires every live exact path to return this
searcher's top-k bitwise.  Do not optimise or "fix" this file — it is the
reference, not the product.
"""

from __future__ import annotations

import numpy as np

from repro.bounds.base import PartialState, PruningBound
from repro.core.bond import default_bound_for
from repro.core.ordering import DecreasingQueryOrdering
from repro.core.result import SearchResult
from repro.errors import QueryError
from repro.metrics.base import Metric, MetricKind
from repro.metrics.histogram import HistogramIntersection
from repro.metrics.weighted import WeightedSquaredEuclidean


class SeedBondSearcher:
    """The seed's ``BondSearcher.search``, frozen as the reference answer.

    Only the pieces that decide the answer are reproduced; the cost-model
    bookkeeping of the seed is omitted (the counter accounting of the live
    engines is checked for equality elsewhere in the test suite).
    """

    def __init__(
        self,
        vectors: np.ndarray,
        metric: Metric | None = None,
        bound: PruningBound | None = None,
        *,
        period: int = 8,
        switch_selectivity: float = 0.05,
    ) -> None:
        self._matrix = np.asarray(vectors, dtype=np.float64)
        self._metric = metric if metric is not None else HistogramIntersection()
        self._bound = bound if bound is not None else default_bound_for(self._metric)
        self._ordering = DecreasingQueryOrdering()
        self._period = period
        self._switch_selectivity = switch_selectivity
        # The seed's fragments: strided column views of the row-major matrix.
        self._columns = [self._matrix[:, dim] for dim in range(self._matrix.shape[1])]
        self._row_sums = (
            self._matrix.sum(axis=1) if self._bound.needs_remaining_value_sums else None
        )

    def search(self, query: np.ndarray, k: int) -> SearchResult:
        metric = self._metric
        query = metric.validate_query(query)
        cardinality, dimensionality = self._matrix.shape
        if query.shape[0] != dimensionality:
            raise QueryError("query dimensionality does not match the collection")
        if k <= 0:
            raise QueryError("k must be at least 1")
        k = min(k, cardinality)

        weights = metric.weights if isinstance(metric, WeightedSquaredEuclidean) else None
        order = self._ordering.order(query, weights=weights)
        if weights is not None:
            order = order[weights[order] > 0.0]
        full_order = self._full_order(order, dimensionality)
        total_dimensions = int(order.shape[0])
        schedule_length = dimensionality if weights is None else total_dimensions

        oids = np.arange(cardinality, dtype=np.int64)
        partial_scores = np.zeros(cardinality, dtype=np.float64)
        partial_value_sums = (
            np.zeros(cardinality, dtype=np.float64)
            if self._bound.needs_partial_value_sums
            else None
        )
        remaining_value_sums = (
            self._row_sums.copy() if self._bound.needs_remaining_value_sums else None
        )
        bitmap_mode = True

        processed = 0
        next_attempt = min(self._period, schedule_length)
        while processed < total_dimensions and len(oids) > k:
            dimension = int(order[processed])
            if bitmap_mode:
                column = self._columns[dimension][oids]
            else:
                column = self._matrix[oids, dimension]
            contributions = metric.contributions(column, query[dimension], dimension=dimension)
            partial_scores += contributions
            if partial_value_sums is not None:
                partial_value_sums += column
            if remaining_value_sums is not None:
                remaining_value_sums -= column
            processed += 1

            if processed >= next_attempt or processed == total_dimensions:
                if len(oids) > k:
                    state = PartialState(
                        query=query,
                        order=full_order,
                        num_processed=processed,
                        partial_scores=partial_scores,
                        partial_value_sums=partial_value_sums,
                        remaining_value_sums=remaining_value_sums,
                        weights=weights,
                    )
                    if self._bound.pruning_worthwhile(state):
                        remaining = self._bound.remaining_bounds(state)
                        lower, upper = remaining.as_arrays(len(oids))
                        lower = partial_scores + lower
                        upper = partial_scores + upper
                        if metric.kind is MetricKind.SIMILARITY:
                            kappa = float(
                                np.partition(lower, len(lower) - k)[len(lower) - k]
                            )
                            keep = upper >= kappa
                        else:
                            kappa = float(np.partition(upper, k - 1)[k - 1])
                            keep = lower <= kappa
                        oids = oids[keep]
                        partial_scores = partial_scores[keep]
                        if partial_value_sums is not None:
                            partial_value_sums = partial_value_sums[keep]
                        if remaining_value_sums is not None:
                            remaining_value_sums = remaining_value_sums[keep]
                        if (
                            bitmap_mode
                            and len(oids) / cardinality <= self._switch_selectivity
                        ):
                            bitmap_mode = False
                next_attempt = processed + min(
                    self._period, schedule_length - processed
                )

        remaining_order = order[processed:]
        if remaining_order.shape[0] and len(oids):
            values = self._matrix[np.ix_(oids, remaining_order)]
            for position, dimension in enumerate(remaining_order):
                partial_scores += metric.contributions(
                    values[:, position], query[int(dimension)], dimension=int(dimension)
                )

        best = metric.best_first(partial_scores)[:k]
        return SearchResult(
            oids=oids[best],
            scores=partial_scores[best],
            dimensions_processed=processed,
        )

    @staticmethod
    def _full_order(order: np.ndarray, dimensionality: int) -> np.ndarray:
        if order.shape[0] == dimensionality:
            return order
        missing = np.setdiff1d(
            np.arange(dimensionality, dtype=np.int64), order, assume_unique=True
        )
        return np.concatenate([order, missing])
