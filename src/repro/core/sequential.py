"""Sequential-scan baselines (Algorithm 1; SSH and SSE in Section 7.4).

The baseline the paper measures BOND against is an optimised sequential scan
of a single horizontal table: for every vector it computes the complete
similarity (or distance) to the query and maintains a heap of the k best
matches seen so far.  The histogram-intersection and Euclidean versions are
called SSH and SSE.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.result import BatchSearchResult, PruningTrace, SearchResult
from repro.errors import QueryError
from repro.metrics.base import Metric
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
