"""Overlaying the live tail rows on a base backend's answer.

Every backend keeps answering over the **base** snapshot (the fragments of
the committed generation), its search excluding the deleted base rows
(``Backend.answer(..., exclude=...)``).  What is left is one merge: the base
top-k and the live tail rows rank together through the score-then-OID
tie-break the rest of the stack uses
(:meth:`repro.metrics.base.Metric.merge_top_k`).  The tail rows are scored
by the backend's own row scorer (``Backend.score_rows``), and an exact
engine's per-row score depends only on (query, metric, row), so the overlay
answer is bitwise a from-scratch search over the updated collection.
"""

from __future__ import annotations

import numpy as np

from repro.core.result import BatchSearchResult, SearchResult
from repro.engine.cost import CostModel
from repro.metrics.base import Metric


def overlay_answer(
    answer: SearchResult | BatchSearchResult,
    k: int,
    metric: Metric,
    tail_oids: np.ndarray,
    tail_scores: np.ndarray,
    cost: CostModel,
) -> SearchResult | BatchSearchResult:
    """Merge the tail rows into a base answer (in place); its top-``k``.

    ``tail_scores`` is the ``(n_queries, len(tail_oids))`` score matrix of
    the live tail rows.  The merge charges its comparisons and heap work to
    ``cost``; the scoring was charged where it ran.
    """
    results = answer.results if isinstance(answer, BatchSearchResult) else [answer]
    for result, scores in zip(results, tail_scores):
        oids = np.concatenate([result.oids, tail_oids])
        pooled = np.concatenate([result.scores, scores])
        cost.charge_heap(int(oids.shape[0]))
        cost.charge_comparisons(int(oids.shape[0]))
        result.oids, result.scores = metric.merge_top_k(oids, pooled, k)
    return answer
