"""Sequential-scan baselines (Algorithm 1; SSH and SSE in Section 7.4).

The baseline the paper measures BOND against is an optimised sequential scan
of a single horizontal table: for every vector it computes the complete
similarity (or distance) to the query and maintains a heap of the k best
matches seen so far.  The histogram-intersection and Euclidean versions are
called SSH and SSE.

Footnote 6 describes a "more sophisticated" scan that regularly compares the
partial score of the current vector against the k-th best score found so far
and abandons the vector once it cannot reach it; that variant turned out to
be *slower* on average because of the extra comparisons and because a
row-ordered scan cannot choose to see the promising dimensions first.
:class:`PartialAbandonScan` implements it so the comparison can be repeated.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.result import BatchSearchResult, PruningTrace, SearchResult
from repro.errors import QueryError
from repro.metrics.base import Metric, MetricKind
from repro.metrics.histogram import HistogramIntersection
from repro.storage.rowstore import RowStore


class SequentialScan:
    """Algorithm 1: full scan with a k-best heap (the SSH / SSE baselines)."""

    def __init__(
        self,
        store: RowStore,
        *,
        metric: Metric | None = None,
        batch_size: int = 4096,
    ) -> None:
        self._store = store
        self._metric = metric if metric is not None else HistogramIntersection()
        self._batch_size = batch_size

    @property
    def store(self) -> RowStore:
        """The row store being scanned."""
        return self._store

    @property
    def metric(self) -> Metric:
        """The similarity / distance metric in use."""
        return self._metric

    def search(
        self, query: np.ndarray, k: int, *, trace: PruningTrace | None = None
    ) -> SearchResult:
        """Return the k nearest neighbours of ``query`` by scanning everything.

        Implemented as a batch of one so there is exactly one copy of the
        scan loop; the per-query result inherits the batch's cost account and
        wall-clock time.  ``trace`` optionally receives the (trivial) pruning
        curve of the scan — nothing is ever pruned — so the scan satisfies
        the uniform :class:`repro.api.Searcher` signature.
        """
        started = time.perf_counter()
        query = self._metric.validate_query(query)
        batch = self.search_batch(query[None, :], k)
        result = batch[0]
        if trace is not None:
            for dimensions, remaining in zip(*result.candidate_trace.as_arrays()):
                trace.record(int(dimensions), int(remaining))
            result.candidate_trace = trace
        result.cost = batch.cost
        result.elapsed_seconds = time.perf_counter() - started
        return result

    def search_batch(self, queries: np.ndarray, k: int) -> BatchSearchResult:
        """Answer a batch of queries with a single pass over the table.

        The scan is the shared resource: every row batch is read (and
        charged) once and scored against all queries before the next batch is
        fetched, so the table crosses the storage boundary once per *batch*
        instead of once per query.  Scoring and heap maintenance run per
        query exactly as in :meth:`search`, so each per-query result is
        bitwise identical to the single-query scan.
        """
        started = time.perf_counter()
        query_matrix = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if query_matrix.ndim != 2:
            raise QueryError(f"queries must form a 2-D matrix, got shape {query_matrix.shape}")
        validated = [self._metric.validate_query(query) for query in query_matrix]
        for query in validated:
            if query.shape[0] != self._store.dimensionality:
                raise QueryError(
                    f"query has {query.shape[0]} dimensions, the store has "
                    f"{self._store.dimensionality}"
                )
        if k <= 0:
            raise QueryError("k must be at least 1")
        k = min(k, self._store.cardinality)
        cost_checkpoint = self._store.cost.checkpoint()

        batch_size = len(validated)
        best_oids: list[np.ndarray | None] = [None] * batch_size
        best_scores: list[np.ndarray | None] = [None] * batch_size
        for oids, rows in self._store.scan_rows(self._batch_size):
            # One row batch, read once, scored against every query.
            for position, query in enumerate(validated):
                scores = self._metric.score(rows, query)
                self._store.cost.charge_arithmetic(
                    rows.size * self._metric.arithmetic_ops_per_value()
                )
                self._store.cost.charge_heap(rows.shape[0])
                pool_oids, pool_scores = oids, scores
                if best_oids[position] is not None:
                    pool_oids = np.concatenate([best_oids[position], oids])
                    pool_scores = np.concatenate([best_scores[position], scores])
                # The stack's one tie-break, so equal scores rank by OID
                # however the table is cut into row batches.
                best_oids[position], best_scores[position] = self._metric.merge_top_k(
                    pool_oids, pool_scores, k
                )

        results = []
        for position in range(batch_size):
            trace = PruningTrace()
            trace.record(self._store.dimensionality, self._store.cardinality)
            results.append(
                SearchResult(
                    oids=best_oids[position],
                    scores=best_scores[position],
                    dimensions_processed=self._store.dimensionality,
                    full_scan_dimensions=self._store.dimensionality,
                    candidate_trace=trace,
                )
            )
        return BatchSearchResult(
            results=results,
            cost=self._store.cost.since(cost_checkpoint),
            elapsed_seconds=time.perf_counter() - started,
        )


class PartialAbandonScan:
    """The footnote-6 variant: abandon a vector once it cannot reach the top k.

    The scan processes vectors one by one; every ``check_period`` dimensions
    it compares the vector's best achievable score against the k-th best
    complete score found so far and abandons the vector when it cannot win.
    The bound used is the trivial one of criterion Hq / Eq (the remaining
    dimensions can contribute at most ``T(q⁺)`` for histogram intersection,
    at least 0 for distances), because a row-ordered scan has no per-vector
    bookkeeping to do better.
    """

    def __init__(
        self,
        store: RowStore,
        *,
        metric: Metric | None = None,
        check_period: int = 16,
    ) -> None:
        if check_period < 1:
            raise QueryError("check_period must be at least 1")
        self._store = store
        self._metric = metric if metric is not None else HistogramIntersection()
        self._check_period = check_period

    @property
    def store(self) -> RowStore:
        """The row store being scanned."""
        return self._store

    @property
    def metric(self) -> Metric:
        """The similarity / distance metric in use."""
        return self._metric

    def search(
        self, query: np.ndarray, k: int, *, trace: PruningTrace | None = None
    ) -> SearchResult:
        """Return the k nearest neighbours, abandoning hopeless vectors early."""
        started = time.perf_counter()
        query = self._metric.validate_query(query)
        if query.shape[0] != self._store.dimensionality:
            raise QueryError("query dimensionality does not match the store")
        if k <= 0:
            raise QueryError("k must be at least 1")
        k = min(k, self._store.cardinality)
        cost_checkpoint = self._store.cost.checkpoint()
        similarity = self._metric.kind is MetricKind.SIMILARITY

        dimensionality = self._store.dimensionality
        # Remaining-contribution upper bound per prefix length (suffix sums of
        # the query mass for similarities; zero lower bound for distances).
        if similarity:
            suffix_query_mass = np.concatenate([np.cumsum(query[::-1])[::-1], [0.0]])

        matrix = self._store.matrix
        best_oids: list[int] = []
        best_scores: list[float] = []
        threshold: float | None = None
        values_touched = 0
        survivors = 0

        for oid in range(self._store.cardinality):
            row = matrix[oid]
            score = 0.0
            abandoned = False
            for start in range(0, dimensionality, self._check_period):
                stop = min(start + self._check_period, dimensionality)
                block = row[start:stop]
                if similarity:
                    score += float(np.sum(np.minimum(block, query[start:stop])))
                else:
                    score += float(np.sum((block - query[start:stop]) ** 2))
                values_touched += stop - start
                if threshold is not None:
                    if similarity:
                        if score + suffix_query_mass[stop] < threshold:
                            abandoned = True
                            break
                    else:
                        if score > threshold:
                            abandoned = True
                            break
            if abandoned:
                continue
            survivors += 1
            best_oids.append(oid)
            best_scores.append(score)
            if len(best_scores) > k:
                kept_oids, kept_scores = self._metric.merge_top_k(
                    np.asarray(best_oids), np.asarray(best_scores), k
                )
                best_oids, best_scores = kept_oids.tolist(), kept_scores.tolist()
            if len(best_scores) == k:
                threshold = min(best_scores) if similarity else max(best_scores)

        self._store.cost.charge_scan(values_touched)
        self._store.cost.charge_arithmetic(values_touched * self._metric.arithmetic_ops_per_value())
        self._store.cost.charge_comparisons(values_touched // self._check_period + 1)

        oids, scores = self._metric.merge_top_k(
            np.asarray(best_oids, dtype=np.int64), np.asarray(best_scores, dtype=np.float64), k
        )
        trace = trace if trace is not None else PruningTrace()
        trace.record(0, self._store.cardinality)
        trace.record(self._store.dimensionality, survivors)
        return SearchResult(
            oids=oids,
            scores=scores,
            dimensions_processed=self._store.dimensionality,
            full_scan_dimensions=self._store.dimensionality,
            candidate_trace=trace,
            cost=self._store.cost.since(cost_checkpoint),
            elapsed_seconds=time.perf_counter() - started,
        )

    def score_rows(self, queries: np.ndarray, columns: np.ndarray) -> np.ndarray:
        """The ``(n_queries, n_rows)`` scores of rows held outside the store,
        given as ``(dimensions, n_rows)`` columns: the blocked sums, in the
        scan's block order, that :meth:`search` gives a row it does not
        abandon.  Nothing is charged."""
        query_matrix = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        similarity = self._metric.kind is MetricKind.SIMILARITY
        dimensionality = columns.shape[0]
        scores = np.empty((query_matrix.shape[0], columns.shape[1]), dtype=np.float64)
        for position, query in enumerate(query_matrix):
            query = self._metric.validate_query(query)
            for row_number, row in enumerate(columns.T):
                score = 0.0
                for start in range(0, dimensionality, self._check_period):
                    stop = min(start + self._check_period, dimensionality)
                    if similarity:
                        score += float(np.sum(np.minimum(row[start:stop], query[start:stop])))
                    else:
                        score += float(np.sum((row[start:stop] - query[start:stop]) ** 2))
                scores[position, row_number] = score
        return scores

    def search_batch(self, queries: np.ndarray, k: int) -> BatchSearchResult:
        """Answer a batch of queries with a per-query loop.

        The partial-abandon scan keeps a per-vector running score against
        *one* threshold, so there is nothing to share between queries — the
        abandonment decision of one query tells another query nothing.  The
        batch entry point exists so the searcher satisfies the uniform
        :class:`repro.api.Searcher` protocol; each per-query result is
        exactly what :meth:`search` returns.
        """
        started = time.perf_counter()
        query_matrix = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if query_matrix.ndim != 2:
            raise QueryError(f"queries must form a 2-D matrix, got shape {query_matrix.shape}")
        cost_checkpoint = self._store.cost.checkpoint()
        results = [self.search(query, k) for query in query_matrix]
        return BatchSearchResult(
            results=results,
            cost=self._store.cost.since(cost_checkpoint),
            elapsed_seconds=time.perf_counter() - started,
        )
