"""The differential oracles: the seed's exact search, frozen, and the
per-dimension references the fused engines are checked against.

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

Below it sit the column-at-a-time pieces of Section 6.1 that the product
folds a whole pruning period at a time: one candidate column and its fold
(:func:`column_values`, :func:`accumulate`), one compressed fragment's
value bounds (:func:`value_bounds_at`, :func:`bounded_fragment_for`), and
the two searchers built from them, :class:`PerDimensionBondSearcher` and
:class:`PerDimensionCompressedSearcher` — whose answers, traces and
``cost.as_dict()`` the fused searchers must equal bitwise.
"""

from __future__ import annotations

import numpy as np

from repro.bounds.base import PartialState, PruningBound
from repro.core.batch import CompressedQueryRun, QueryRun
from repro.core.bond import BondSearcher, default_bound_for
from repro.core.candidates import CandidateMode, CandidateSet
from repro.core.compressed import CompressedBondSearcher
from repro.core.ordering import DecreasingQueryOrdering
from repro.core.result import SearchResult
from repro.engine.cost import COMPRESSED_BYTES
from repro.errors import QueryError
from repro.kernels.interval import contribution_interval
from repro.metrics.base import Metric, MetricKind
from repro.metrics.histogram import HistogramIntersection
from repro.metrics.weighted import WeightedSquaredEuclidean
from repro.storage.compressed import CompressedStore
from repro.storage.decomposed import DecomposedStore


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


# -- the per-dimension references ---------------------------------------------


def column_values(
    store: DecomposedStore, candidates: CandidateSet, dimension: int, *, charge: bool = True
) -> np.ndarray:
    """The candidates' float64 values of one dimension, charging the right cost.

    Through a bitmap the whole fragment is read sequentially; once positional
    only the candidates' values are fetched, charged as a sequential scan of
    the materialised (restricted) fragment.  One column of
    :meth:`CandidateSet.block_values`, at one m-th of its accounted cost
    (nothing with ``charge=False``).
    """
    if candidates.mode is CandidateMode.BITMAP:
        fragment = store.fragment(dimension, charge=charge)
        return np.asarray(fragment.tail[candidates.oids], dtype=np.float64)
    if charge:
        store.cost.charge_scan(len(candidates), store.coefficient_bytes)
    return np.asarray(store.fragment_tail(dimension)[candidates.oids], dtype=np.float64)


def accumulate(candidates: CandidateSet, contributions: np.ndarray, column: np.ndarray) -> None:
    """Fold one dimension's contributions and values into the candidates'
    state (in place, through the live views)."""
    scores = candidates.partial_scores
    scores += contributions
    if candidates.partial_value_sums is not None:
        partial_sums = candidates.partial_value_sums
        partial_sums += column
    if candidates.remaining_value_sums is not None:
        remaining_sums = candidates.remaining_value_sums
        remaining_sums -= column


class PerDimensionBondSearcher(BondSearcher):
    """The exact searcher folding one fragment column at a time.

    Only the scan differs from the product: each dimension of a block is
    fetched with :func:`column_values`, turned into contributions by the
    metric and folded in by :func:`accumulate`, left to right.  Planning, the
    checkpoints (with the product's bounds), the round driver and the
    completion are the product's own, so answers, traces and
    ``cost.as_dict()`` must match it bitwise — including where
    :class:`SeedBondSearcher`'s bounds are off by an ulp (the weighted bound
    with one dimension left, see ``test_weighted_bound_ulp_regression``).
    """

    def _scan_block(
        self, run: QueryRun, block_dimensions: np.ndarray, *, charge_storage: bool
    ) -> None:
        candidates = run.candidates
        for dimension in block_dimensions.tolist():
            # A positional run pays for its own values; the driver charged the
            # round's shared full-height read otherwise.
            column = column_values(self.store, candidates, dimension, charge=charge_storage)
            contributions = self.metric.contributions(
                column, run.query[dimension], dimension=dimension
            )
            self.store.cost.charge_arithmetic(len(column) * self.metric.arithmetic_ops_per_value())
            accumulate(candidates, contributions, column)


def value_bounds_at(
    store: CompressedStore, dimension: int, oids: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) bounds of one dimension's true values at ``oids`` (all
    rows for ``None``), uncharged: the codes are sliced before they are
    dequantised, and every step is elementwise, so this is bitwise
    ``store.bounded_fragment(dimension)`` sliced at ``oids``."""
    codes = store.code_columns([dimension], charge=False)[0]
    if oids is not None:
        codes = codes[oids]
    width = store.cell_widths[dimension]
    approx = store.minimums[dimension] + codes.astype(np.float64) * width
    half = width / 2.0
    return approx - half, approx + half


def bounded_fragment_for(
    store: CompressedStore, dimension: int, oids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Value bounds of one dimension at the candidates' OIDs, charged as one
    positional code fetch per candidate."""
    oids = np.asarray(oids, dtype=np.int64)
    store.cost.charge_random_access(len(oids), COMPRESSED_BYTES)
    return value_bounds_at(store, dimension, oids)


class PerDimensionCompressedSearcher(CompressedBondSearcher):
    """The compressed filter folding one dequantised column at a time.

    Only the scan differs from the product: each dimension of a block is
    dequantised into (lower, upper) value bounds, turned into a contribution
    interval by :func:`~repro.kernels.interval.contribution_interval` and
    added to the run's interval scores, left to right.  Planning, the
    checkpoints, the round driver and the refinement are the product's own,
    so answers, traces and ``cost.as_dict()`` must match it bitwise.
    """

    def _scan_block(
        self,
        run: CompressedQueryRun,
        block_dimensions: np.ndarray,
        *,
        charge_storage: bool,
    ) -> None:
        store = self.store
        scores = self._scores(run)
        active = self._active_block(run, block_dimensions)
        for dimension in active.tolist():
            if charge_storage:
                # A positional run pays for its candidates' codes; the driver
                # charged the round's shared full-height read otherwise.
                value_lower, value_upper = bounded_fragment_for(store, dimension, run.oids)
            else:
                value_lower, value_upper = value_bounds_at(store, dimension, run.oids)
            contribution_lower, contribution_upper = contribution_interval(
                self.metric, value_lower, value_upper, run.query[dimension], dimension=dimension
            )
            store.cost.charge_arithmetic(2 * run.alive * self.metric.arithmetic_ops_per_value())
            scores.real += contribution_lower
            scores.imag += contribution_upper
