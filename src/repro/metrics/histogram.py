"""Histogram intersection similarity (Definition 1).

Histogram intersection between two L1-normalised histograms ``h`` and ``q``
is ``Sim(h, q) = sum_i min(h_i, q_i)``.  It is close to 1 when the histograms
are alike and small when they differ, and was reported superior to Euclidean
distance for colour histograms because it suppresses the contribution of
irrelevant bins.  The per-dimension contribution ``min(h_i, q_i)`` is
non-negative, so partial sums only ever grow — the monotonicity BOND needs.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MetricError
from repro.metrics.base import Metric, MetricKind

#: Tolerance used when checking that a histogram sums to one.
NORMALIZATION_TOLERANCE = 1e-6


class HistogramIntersection(Metric):
    """Histogram intersection over L1-normalised histograms."""

    name = "histogram_intersection"

    def __init__(self, *, require_normalized: bool = True) -> None:
        self._require_normalized = require_normalized

    @property
    def require_normalized(self) -> bool:
        """Whether queries are validated as L1-normalised histograms."""
        return self._require_normalized

    @property
    def kind(self) -> MetricKind:
        """Histogram intersection is a similarity: larger is better."""
        return MetricKind.SIMILARITY

    def contributions(
        self, column: np.ndarray, query_value: float, *, dimension: int | None = None
    ) -> np.ndarray:
        """Per-vector contribution ``min(h_i, q_i)`` of one dimension."""
        return np.minimum(np.asarray(column, dtype=np.float64), float(query_value))

    def score(self, vectors: np.ndarray, query: np.ndarray) -> np.ndarray:
        """Full intersection between every row of ``vectors`` and ``query``."""
        return self._intersection(np.atleast_2d(np.asarray(vectors, dtype=np.float64)), query)

    def score_in_place(self, vectors: np.ndarray, query: np.ndarray) -> np.ndarray:
        """:meth:`score`, taking the minimums in ``vectors`` itself."""
        return self._intersection(vectors, query, out=vectors)

    def _intersection(
        self, vectors: np.ndarray, query: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        query = self.validate_query(query)
        if vectors.shape[1] != query.shape[0]:
            raise MetricError(
                f"dimensionality mismatch: vectors have {vectors.shape[1]}, query has {query.shape[0]}"
            )
        return np.minimum(vectors, query[None, :], out=out).sum(axis=1)

    def validate_query(self, query: np.ndarray) -> np.ndarray:
        """Check the query is a normalised histogram (non-negative, sums to 1)."""
        query = super().validate_query(query)
        if self._require_normalized:
            if np.any(query < -NORMALIZATION_TOLERANCE):
                raise MetricError("histogram intersection requires non-negative query values")
            total = float(query.sum())
            if abs(total - 1.0) > 1e-3:
                raise MetricError(
                    f"histogram intersection requires an L1-normalised query (sum={total:.6f}); "
                    "normalise the histogram or construct the metric with require_normalized=False"
                )
        return query

    def arithmetic_ops_per_value(self) -> int:
        """One ``min`` plus one add per coefficient."""
        return 2
