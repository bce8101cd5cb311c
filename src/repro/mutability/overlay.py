"""Overlaying the delta tail on a base backend's answer.

Every backend keeps answering over the **base** snapshot (the fragments of
the committed generation); this module corrects that answer for the live
updates: deleted base rows are filtered out, live tail rows are merged in,
and the survivors rank through the exact score-then-ascending-OID tie-break
the rest of the stack uses
(:meth:`repro.metrics.base.Metric.merge_top_k`) — so the overlay answer is
bitwise identical to a from-scratch search over the updated collection.

Two properties make the overlay *exact* rather than heuristic:

* To survive the delete filter, the base backend is asked for an
  **inflated** top-k: ``k + deleted_base_count`` (capped at the base
  cardinality) guarantees at least ``k`` non-deleted base rows remain even
  if every deleted row ranked in the top-k.
* Tail rows are scored **by the same backend** that produced the base
  answer, over a tail-only sub-index (see ``Index._tail_scores``).  Every
  exact engine's per-row score is a pure function of (query, metric, row) —
  the accumulation order is fixed by the query, never by the rest of the
  collection (``accumulate_columns`` keeps blocked sums order-exact) — so a
  tail row's overlay score is bitwise the score it will have after the next
  reorganisation folds it into the base.  Scoring the tail with a *different*
  kernel (e.g. a plain ``metric.score``) would drift by floating-point
  association and break rebuild identity; only the approximate backends,
  which promise no bitwise contract, use that fallback.
"""

from __future__ import annotations

import numpy as np

from repro.core.result import BatchSearchResult, SearchResult
from repro.engine.cost import CostModel
from repro.metrics.base import Metric
from repro.mutability.tail import TailState


def inflated_k(k: int, tail: TailState) -> int:
    """The top-k to request from the base backend under ``tail``."""
    return max(1, min(k + tail.deleted_base_count, tail.base_cardinality))


def overlay_answer(
    answer: SearchResult | BatchSearchResult,
    k: int,
    metric: Metric,
    tail: TailState,
    cost: CostModel,
    tail_scores: np.ndarray | None,
) -> SearchResult | BatchSearchResult:
    """Merge a base answer (at the inflated k) with the tail; return top-``k``.

    ``tail_scores`` is the per-query score matrix of the live tail rows —
    shape ``(n_queries, live_tail_count)``, columns aligned with
    ``tail.live_oids`` — or ``None`` when no tail row is alive (pure-delete
    overlay).  Scoring charges were paid where the scores were computed; the
    merge itself charges its comparisons and heap work to ``cost``.
    """
    tail_oids = tail.live_oids
    if isinstance(answer, BatchSearchResult):
        merged = [
            _overlay_single(
                result,
                k,
                metric,
                tail,
                tail_oids,
                None if tail_scores is None else tail_scores[row],
                cost,
            )
            for row, result in enumerate(answer.results)
        ]
        return BatchSearchResult(
            results=merged, cost=answer.cost, elapsed_seconds=answer.elapsed_seconds
        )
    return _overlay_single(
        answer,
        k,
        metric,
        tail,
        tail_oids,
        None if tail_scores is None else tail_scores[0],
        cost,
    )


def _overlay_single(
    base: SearchResult,
    k: int,
    metric: Metric,
    tail: TailState,
    tail_oids: np.ndarray,
    tail_scores: np.ndarray | None,
    cost: CostModel,
) -> SearchResult:
    oids = base.oids
    scores = base.scores
    if tail.deleted_base_count:
        keep = ~np.isin(oids, tail.deleted_base)
        cost.charge_comparisons(int(oids.shape[0]))
        oids = oids[keep]
        scores = scores[keep]
    if tail_scores is not None and tail_oids.shape[0]:
        oids = np.concatenate([oids, tail_oids])
        scores = np.concatenate([scores, tail_scores])
    cost.charge_heap(int(oids.shape[0]))
    cost.charge_comparisons(int(oids.shape[0]))
    oids, scores = metric.merge_top_k(oids, scores, k)
    return SearchResult(
        oids=oids,
        scores=scores,
        dimensions_processed=base.dimensions_processed,
        full_scan_dimensions=base.full_scan_dimensions,
        candidate_trace=base.candidate_trace,
        cost=base.cost,
        elapsed_seconds=base.elapsed_seconds,
        exact=base.exact,
        degraded=base.degraded,
        failed_shards=base.failed_shards,
    )
