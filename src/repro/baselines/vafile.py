"""The Vector-Approximation File (VA-file) of Weber, Schek & Blott.

The VA-file accepts that sequential scan is the realistic access pattern in
high dimensions and shrinks what has to be scanned: every coefficient is
replaced by a small (here: 8-bit) cell number on a per-dimension grid.  A
query is answered in two steps:

1. **Filter** — scan the approximation of *every* vector (all dimensions),
   computing per-vector lower and upper bounds of its score from the cell
   boundaries; vectors whose best case cannot beat the k-th best worst case
   are dropped.
2. **Refine** — fetch the exact vectors of the survivors, compute exact
   scores, return the top k.

The filter step is cheap because it reads one byte instead of eight per
coefficient; the refinement step is cheap because few vectors survive.  BOND
applied to the same approximations (Section 7.4) reads *fewer of the
approximate fragments* because it prunes dimension-wise, which is where its
3-5x advantage in Table 4 comes from; both methods return identical candidate
sets semantics-wise (no false dismissals).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.compressed import contribution_interval
from repro.core.result import BatchSearchResult, PruningTrace, SearchResult
from repro.errors import QueryError
from repro.metrics.base import Metric
from repro.metrics.euclidean import SquaredEuclidean
from repro.storage.compressed import CompressedStore


class VAFile:
    """Filter-and-refine search over per-dimension scalar quantisation."""

    def __init__(self, store: CompressedStore, *, metric: Metric | None = None) -> None:
        self._store = store
        self._metric = metric if metric is not None else SquaredEuclidean()

    @property
    def store(self) -> CompressedStore:
        """The compressed store holding the approximations and the exact data."""
        return self._store

    @property
    def metric(self) -> Metric:
        """The similarity / distance metric in use."""
        return self._metric

    def search(
        self, query: np.ndarray, k: int, *, trace: PruningTrace | None = None
    ) -> SearchResult:
        """Return the exact k nearest neighbours via the two-step VA-file plan.

        ``trace`` optionally receives the filter's two-point pruning curve
        (everything in, survivors out), matching the uniform
        :class:`repro.api.Searcher` signature.
        """
        started = time.perf_counter()
        query = self._metric.validate_query(query)
        if query.shape[0] != self._store.dimensionality:
            raise QueryError("query dimensionality does not match the store")
        if k <= 0:
            raise QueryError("k must be at least 1")
        k = min(k, self._store.cardinality)
        cost = self._store.cost
        checkpoint = cost.checkpoint()

        lower_scores, upper_scores = self._filter_bounds(query)
        candidates = self._select_candidates(lower_scores, upper_scores, k)
        oids, scores = self._refine(query, candidates, k)

        return SearchResult(
            oids=oids,
            scores=scores,
            dimensions_processed=self._store.dimensionality,
            full_scan_dimensions=self._store.dimensionality,
            candidate_trace=self._filter_trace(candidates, into=trace),
            cost=cost.since(checkpoint),
            elapsed_seconds=time.perf_counter() - started,
        )

    def search_batch(self, queries: np.ndarray, k: int) -> BatchSearchResult:
        """Answer a whole batch of queries with one shared approximation pass.

        The filter step of the VA-file reads every approximate coefficient
        regardless of the query, so a batch needs the approximation scanned
        only *once*: per dimension, the (lower, upper) value bounds are
        materialised from the cell boundaries one time and every query's
        contribution interval is accumulated from them.  Each per-query
        result is bitwise identical to :meth:`search`; only the storage
        accounting differs (the shared scan is charged once instead of once
        per query).

        Parameters
        ----------
        queries:
            ``(batch, N)`` matrix of query vectors (a single 1-D query is
            accepted and treated as a batch of one).
        k:
            Number of neighbours per query; clamped to the collection size.

        Returns
        -------
        A :class:`~repro.core.result.BatchSearchResult` with one result per
        query in submission order; cost and wall-clock time are accounted at
        batch level because the approximation pass is shared.
        """
        started = time.perf_counter()
        query_matrix = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if query_matrix.ndim != 2:
            raise QueryError(f"queries must form a 2-D matrix, got shape {query_matrix.shape}")
        validated = [self._metric.validate_query(query) for query in query_matrix]
        for query in validated:
            if query.shape[0] != self._store.dimensionality:
                raise QueryError("query dimensionality does not match the store")
        if k <= 0:
            raise QueryError("k must be at least 1")
        k = min(k, self._store.cardinality)
        cost = self._store.cost
        checkpoint = cost.checkpoint()

        lower_scores, upper_scores = self._filter_bounds_batch(validated)
        results = []
        for index, query in enumerate(validated):
            candidates = self._select_candidates(lower_scores[index], upper_scores[index], k)
            oids, scores = self._refine(query, candidates, k)
            results.append(
                SearchResult(
                    oids=oids,
                    scores=scores,
                    dimensions_processed=self._store.dimensionality,
                    full_scan_dimensions=self._store.dimensionality,
                    candidate_trace=self._filter_trace(candidates),
                )
            )
        return BatchSearchResult(
            results=results,
            cost=cost.since(checkpoint),
            elapsed_seconds=time.perf_counter() - started,
        )

    def filter_candidate_count(self, query: np.ndarray, k: int) -> int:
        """Number of vectors surviving the filter step (for Table 4 style reports).

        A diagnostic probe: the filter runs against the shared cost model, so
        its charges are rolled back afterwards and reported experiment
        counters stay untouched.
        """
        query = self._metric.validate_query(query)
        k = min(max(k, 1), self._store.cardinality)
        cost = self._store.cost
        checkpoint = cost.checkpoint()
        try:
            lower_scores, upper_scores = self._filter_bounds(query)
            return int(self._select_candidates(lower_scores, upper_scores, k).shape[0])
        finally:
            cost.restore(checkpoint)

    # -- internals ----------------------------------------------------------------

    def _filter_trace(self, candidates: np.ndarray, *, into: PruningTrace | None = None) -> PruningTrace:
        """The VA-file's two-point pruning curve: everything in, survivors out.

        Recording the filter's survivor count on the result lets Table 4
        style reports read it for free instead of re-running the filter via
        :meth:`filter_candidate_count`.  ``into`` records the curve into a
        caller-supplied trace instead of a fresh one.
        """
        trace = into if into is not None else PruningTrace()
        trace.record(0, self._store.cardinality)
        trace.record(self._store.dimensionality, int(candidates.shape[0]))
        return trace

    def _filter_bounds(self, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-vector lower/upper score bounds from the full approximation scan."""
        cost = self._store.cost
        cardinality = self._store.cardinality
        lower_scores = np.zeros(cardinality, dtype=np.float64)
        upper_scores = np.zeros(cardinality, dtype=np.float64)
        for dimension in range(self._store.dimensionality):
            value_lower, value_upper = self._store.bounded_fragment(dimension)
            contribution_lower, contribution_upper = contribution_interval(
                self._metric, value_lower, value_upper, query[dimension], dimension=dimension
            )
            cost.charge_arithmetic(2 * cardinality * self._metric.arithmetic_ops_per_value())
            lower_scores += contribution_lower
            upper_scores += contribution_upper
        return lower_scores, upper_scores

    def _filter_bounds_batch(
        self, queries: "list[np.ndarray]"
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-query score bounds from a single shared approximation pass.

        Each dimension's value bounds are materialised from the cell
        boundaries once and consumed by every query of the batch; the
        per-query accumulation applies the same operations in the same order
        as :meth:`_filter_bounds`, so the resulting bounds are bitwise
        identical to running the single-query filter per query.
        """
        cost = self._store.cost
        cardinality = self._store.cardinality
        batch_size = len(queries)
        lower_scores = np.zeros((batch_size, cardinality), dtype=np.float64)
        upper_scores = np.zeros((batch_size, cardinality), dtype=np.float64)
        for dimension in range(self._store.dimensionality):
            value_lower, value_upper = self._store.bounded_fragment(dimension)
            for index, query in enumerate(queries):
                contribution_lower, contribution_upper = contribution_interval(
                    self._metric, value_lower, value_upper, query[dimension], dimension=dimension
                )
                cost.charge_arithmetic(2 * cardinality * self._metric.arithmetic_ops_per_value())
                lower_scores[index] += contribution_lower
                upper_scores[index] += contribution_upper
        return lower_scores, upper_scores

    def _select_candidates(
        self, lower_scores: np.ndarray, upper_scores: np.ndarray, k: int
    ) -> np.ndarray:
        """OIDs that may still belong to the top k given the score bounds."""
        cost = self._store.cost
        count = lower_scores.shape[0]
        cost.charge_heap(count)
        cost.charge_comparisons(count)
        # The test direction follows the accumulated bounds, not the metric
        # kind (EuclideanSimilarity accumulates distance-valued intervals).
        if not self._metric.contributions_are_distances:
            kappa = float(np.partition(lower_scores, count - k)[count - k])
            mask = upper_scores >= kappa
        else:
            kappa = float(np.partition(upper_scores, k - 1)[k - 1])
            mask = lower_scores <= kappa
        return np.nonzero(mask)[0].astype(np.int64)

    def _refine(
        self, query: np.ndarray, candidates: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact scores of the filter survivors."""
        if candidates.shape[0] == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        exact = self._store.exact
        vectors = exact.gather_matrix(candidates)
        scores = self._metric.score(vectors, query)
        exact.cost.charge_arithmetic(vectors.size * self._metric.arithmetic_ops_per_value())
        best = self._metric.best_first(scores)[:k]
        return candidates[best], scores[best]
