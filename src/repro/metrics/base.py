"""Metric protocol: monotone aggregates over per-dimension contributions.

Section 3.1 of the paper requires the aggregate ``S`` to be associative and
monotonic (and, for the dimension-ordering optimisation of Section 5.1,
commutative).  The :class:`Metric` base class captures that contract:

* :meth:`Metric.contributions` returns, for a column of coefficients and one
  query coefficient, the per-vector contribution of that dimension to the
  aggregate; BOND sums these column by column to build partial scores
  ``S(x⁻, q⁻)``;
* :meth:`Metric.score` evaluates the full aggregate on complete vectors (used
  by the sequential baselines and for ground truth);
* :attr:`Metric.kind` says whether the k *largest* (similarity) or k
  *smallest* (distance) aggregate values are the best, which flips the
  direction of the pruning test (Algorithm 2, step 4 and its remark).
"""

from __future__ import annotations

import abc
from enum import Enum

import numpy as np

from repro.errors import MetricError


class MetricKind(Enum):
    """Whether larger or smaller aggregate values are better."""

    SIMILARITY = "similarity"  # best results have the LARGEST aggregate
    DISTANCE = "distance"      # best results have the SMALLEST aggregate

    @property
    def larger_is_better(self) -> bool:
        """True for similarities, False for distances."""
        return self is MetricKind.SIMILARITY


class Metric(abc.ABC):
    """A similarity or distance metric decomposable over dimensions."""

    #: Human-readable name used in reports.
    name: str = "metric"

    @property
    @abc.abstractmethod
    def kind(self) -> MetricKind:
        """Whether the k best results are the largest or smallest scores."""

    @property
    def contributions_are_distances(self) -> bool:
        """Whether per-dimension contributions accumulate distance-valued terms.

        Filters over approximated fragments prune on the *accumulated
        contributions*, so the pruning direction must follow this flag, not
        :attr:`kind`: a metric may rank as a similarity while its
        contributions are distances (``EuclideanSimilarity`` applies its
        monotone similarity transform only to the finished sum).
        """
        return self.kind is MetricKind.DISTANCE

    @abc.abstractmethod
    def contributions(
        self, column: np.ndarray, query_value: float, *, dimension: int | None = None
    ) -> np.ndarray:
        """Per-vector contribution of one dimension to the aggregate.

        Parameters
        ----------
        column:
            The coefficients of one dimension for every (candidate) vector.
        query_value:
            The query's coefficient in that dimension.
        dimension:
            Index of the dimension in the original space.  Unweighted metrics
            ignore it; the weighted metric needs it to select the weight.
        """

    @abc.abstractmethod
    def score(self, vectors: np.ndarray, query: np.ndarray) -> np.ndarray:
        """Full aggregate between every row of ``vectors`` and ``query``."""

    def score_in_place(self, vectors: np.ndarray, query: np.ndarray) -> np.ndarray:
        """:meth:`score` of a 2-D ``float64`` matrix the caller no longer
        needs, bitwise; an implementation may overwrite ``vectors`` instead
        of allocating a temporary of its size."""
        return self.score(vectors, query)

    def arithmetic_ops_per_value(self) -> int:
        """Scalar operations charged per coefficient in the cost model."""
        return 1

    def validate_query(self, query: np.ndarray) -> np.ndarray:
        """Validate and normalise a query vector; subclasses may override."""
        query = np.asarray(query, dtype=np.float64)
        if query.ndim != 1:
            raise MetricError(f"query must be a 1-D vector, got shape {query.shape}")
        if not np.isfinite(query).all():
            # NaN comparisons are all False, so a non-finite coefficient would
            # slip through every range check below and through pruning, and
            # surface as a confidently wrong ranking.
            raise MetricError("query coefficients must be finite (found NaN or inf)")
        return query

    def best_first(self, scores: np.ndarray) -> np.ndarray:
        """Indices that sort ``scores`` from best to worst for this metric."""
        order = np.argsort(scores, kind="stable")
        if self.kind.larger_is_better:
            return order[::-1]
        return order

    def merge_top_k(
        self, oids: np.ndarray, scores: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The best ``k`` of a pool of (OID, score) candidates, deterministically.

        This is the one merge every recombination in the stack applies
        (row shards, IVF partitions, the live-tail overlay).  The tie-break
        contract: the pool is first put in ascending-OID order with a stable
        sort, then ranked by the stable :meth:`best_first` — so among equal
        scores a distance metric keeps the smaller OID first and a similarity
        metric (whose ranking is the reversed ascending sort) the larger one.
        That is exactly how a single searcher ranks its ascending-OID
        candidate list, which is what makes a merged answer bitwise identical
        to an undivided search.
        """
        by_oid = np.argsort(oids, kind="stable")
        best = by_oid[self.best_first(scores[by_oid])[:k]]
        return oids[best], scores[best]

    def better(self, left: float, right: float) -> bool:
        """Whether score ``left`` is strictly better than score ``right``."""
        if self.kind.larger_is_better:
            return left > right
        return left < right

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} kind={self.kind.value}>"
