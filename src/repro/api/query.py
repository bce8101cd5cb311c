"""The declarative :class:`Query` specification.

A :class:`Query` says *what* the caller wants — the query vector(s), how many
neighbours, under which metric, over which subspace, at which accuracy — and
nothing about *how* it is answered.  The physical choices (which searcher,
which storage representation, which execution engine) are made by the
:class:`~repro.api.planner.QueryPlanner` from the backends' declared
:class:`~repro.api.capabilities.Capabilities`, in the spirit of the
declarative/physical split of relational query processing.

The dataclass is frozen: a query can be planned, explained and answered any
number of times, cached as a dictionary key-by-identity, and shared between
threads without defensive copies.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.errors import QueryError
from repro.metrics.base import Metric
from repro.metrics.euclidean import EuclideanSimilarity, SquaredEuclidean
from repro.metrics.histogram import HistogramIntersection
from repro.metrics.weighted import WeightedSquaredEuclidean

#: The accuracy / storage modes a query can request.
#:
#: * ``"exact"``      — answer from the exact (uncompressed) representation;
#: * ``"compressed"`` — filter on the 8-bit quantised fragments, refine the
#:   survivors on the exact vectors (still an exact answer — the interval
#:   bounds make false dismissals impossible);
#: * ``"approx"``     — exactness not required: the approximate tier
#:   (:mod:`repro.approx` — clustered IVF pruning) becomes
#:   eligible next to every exact backend, and the planner picks the cheapest
#:   estimate.  :attr:`Query.approx_params` carries the recall/speed knobs.
QUERY_MODES = ("exact", "compressed", "approx")


@dataclass(frozen=True)
class ApproxParams:
    """The recall/speed knobs of a ``mode="approx"`` query.

    All fields are optional: an unset knob falls back to the index's
    :class:`repro.approx.ApproxConfig` default.  Exact backends ignore the
    whole object (their answers are exact regardless); the ``ivf`` backend
    honours it.

    Attributes
    ----------
    nprobe:
        How many nearest partitions the ``ivf`` backend scans (clamped to the
        cluster count; ``nprobe >= n_clusters`` degenerates to an exact
        exhaustive answer).
    target_recall:
        Declarative alternative to ``nprobe``: a recall@k floor in ``(0, 1]``
        that the ``ivf`` backend maps to a conservative probe count (``1.0``
        forces the exhaustive, exact-equivalent configuration).  An explicit
        ``nprobe`` takes precedence.
    """

    nprobe: int | None = None
    target_recall: float | None = None

    def __post_init__(self) -> None:
        if self.nprobe is not None:
            value = self.nprobe
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise QueryError(f"approx_params.nprobe must be an integer, got {value!r}")
            if value < 1:
                raise QueryError(f"approx_params.nprobe must be at least 1, got {value}")
            object.__setattr__(self, "nprobe", int(value))
        if self.target_recall is not None:
            recall = float(self.target_recall)
            if not np.isfinite(recall) or not (0.0 < recall <= 1.0):
                raise QueryError(
                    f"approx_params.target_recall must lie in (0, 1], got {self.target_recall!r}"
                )
            object.__setattr__(self, "target_recall", recall)

    @classmethod
    def coerce(cls, value: "ApproxParams | dict | None") -> "ApproxParams | None":
        """Validate a user-supplied value (instance, mapping or ``None``).

        Unknown mapping keys are rejected with :class:`QueryError` at the
        facade boundary — a typo like ``n_probe`` must not silently fall back
        to the default knobs.
        """
        if value is None or isinstance(value, cls):
            return value
        if isinstance(value, dict):
            known = {field.name for field in dataclasses.fields(cls)}
            unknown = sorted(set(value) - known)
            if unknown:
                raise QueryError(
                    f"unknown approx_params key(s) {unknown}; known: {sorted(known)}"
                )
            return cls(**value)
        raise QueryError(
            f"approx_params must be an ApproxParams or a mapping of its fields, got {type(value).__name__}"
        )

    def describe(self) -> str:
        """Compact ``knob=value`` summary used by ``Query.describe()``."""
        parts = [
            f"{field.name}={getattr(self, field.name)}"
            for field in dataclasses.fields(self)
            if getattr(self, field.name) is not None
        ]
        return ", ".join(parts) if parts else "defaults"

#: Metric aliases accepted by :attr:`Query.metric`.
METRIC_ALIASES: dict[str, type[Metric]] = {
    "histogram": HistogramIntersection,
    "histogram_intersection": HistogramIntersection,
    "euclidean": SquaredEuclidean,
    "squared_euclidean": SquaredEuclidean,
    "euclidean_similarity": EuclideanSimilarity,
}

#: Aliases that resolve to the (weighted) Euclidean family — the only base
#: metrics that compose with ``weights`` / ``subspace`` (Definition 3).
_EUCLIDEAN_ALIASES = frozenset({"euclidean", "squared_euclidean"})


def _metric_base_key(metric: str | Metric | None) -> tuple:
    """Canonical cache key for a metric field value.

    Built-in metric instances key by their configuration rather than object
    identity, so per-request instances collapse onto one cache entry.
    """
    if metric is None or isinstance(metric, str):
        return ("alias", metric)
    if isinstance(metric, WeightedSquaredEuclidean):
        return ("weighted_squared_euclidean", metric.weights.tobytes())
    if isinstance(metric, SquaredEuclidean):
        return ("squared_euclidean", metric.require_unit_box)
    if isinstance(metric, HistogramIntersection):
        return ("histogram_intersection", metric.require_normalized)
    if isinstance(metric, EuclideanSimilarity):
        return ("euclidean_similarity",)
    return ("instance", id(metric))


@dataclass(frozen=True, eq=False)
class Query:
    """One declarative k-NN request.

    Attributes
    ----------
    vectors:
        The query vector (1-D) or a ``(batch, N)`` matrix of query vectors.
    k:
        Number of neighbours per query (clamping to the collection size is
        the backend's job, exactly as in direct searcher calls).
    metric:
        Metric alias (``"histogram"``, ``"euclidean"``,
        ``"euclidean_similarity"``, or the canonical ``metric.name``
        spellings) or a ready :class:`~repro.metrics.base.Metric` instance.
        ``None`` (the default) means histogram intersection — or, when
        ``weights`` / ``subspace`` are set, the weighted squared Euclidean
        metric they imply.
    weights:
        Optional per-dimension weights; selects the weighted squared
        Euclidean metric of Definition 3 (zero-weight fragments are never
        read).  Mutually exclusive with ``subspace``, and only compatible
        with a ``metric`` that is ``None`` or names the Euclidean family —
        an explicitly requested histogram metric cannot be silently
        replaced.
    subspace:
        Optional dimension indices; restricts the (squared Euclidean)
        distance to those dimensions (Section 8.1).  Mutually exclusive with
        ``weights``.
    mode:
        Accuracy / storage mode, one of :data:`QUERY_MODES`.
    approx_params:
        Optional :class:`ApproxParams` (or a mapping of its fields) tuning
        the approximate tier; only legal with ``mode="approx"``.  Exact
        backends must ignore it, approximate backends must honour it;
        unknown mapping keys raise :class:`~repro.errors.QueryError` here,
        at the facade boundary.
    batch:
        Explicit batch flag.  ``None`` (default) infers it from the shape of
        ``vectors``; ``True`` with a single vector answers a batch of one.
    trace:
        Request a :class:`~repro.core.result.PruningTrace` on the result of a
        single-vector query (batch results always carry per-query traces
        where the backend records them).
    backend:
        Optional planner hint pinning a specific registered backend by name;
        the backend must still be capable of the query or planning fails.
    normalize_weights:
        Rescale ``weights`` to sum to the dimensionality (the Definition 3
        convention, matching :func:`repro.core.weighted.weighted_search`).
    """

    vectors: np.ndarray
    k: int = 10
    metric: str | Metric | None = None
    weights: np.ndarray | None = None
    subspace: np.ndarray | None = None
    mode: str = "exact"
    approx_params: "ApproxParams | dict | None" = None
    batch: bool | None = None
    trace: bool = False
    backend: str | None = None
    normalize_weights: bool = field(default=True, repr=False)

    def __post_init__(self) -> None:
        vectors = np.asarray(self.vectors, dtype=np.float64)
        if vectors.ndim not in (1, 2):
            raise QueryError(
                f"query vectors must be 1-D (single) or 2-D (batch), got shape {vectors.shape}"
            )
        if vectors.size == 0:
            raise QueryError("query vectors must not be empty")
        if not np.isfinite(vectors).all():
            # Catch NaN/inf at the facade boundary: a non-finite coefficient
            # poisons every partial score and pruning bound downstream, and
            # the resulting garbage ranking would surface with no hint of the
            # cause.  (NaN comparisons are False, so a NaN query can even
            # "pass" pruning while scoring nothing correctly.)
            bad = int(np.size(vectors) - np.count_nonzero(np.isfinite(vectors)))
            raise QueryError(
                f"query vectors must be finite; found {bad} non-finite "
                "(NaN/inf) coefficient(s)"
            )
        if self.batch is False and vectors.ndim == 2:
            raise QueryError("batch=False conflicts with a 2-D query matrix")
        if self.batch is True and vectors.ndim == 1:
            vectors = vectors[None, :]
        object.__setattr__(self, "vectors", vectors)

        if self.k < 1:
            raise QueryError("k must be at least 1")
        if self.mode not in QUERY_MODES:
            raise QueryError(f"mode must be one of {QUERY_MODES}, got {self.mode!r}")
        if self.approx_params is not None:
            if self.mode != "approx":
                raise QueryError(
                    f"approx_params only apply to mode='approx' queries, got mode={self.mode!r}"
                )
            object.__setattr__(self, "approx_params", ApproxParams.coerce(self.approx_params))
        if self.weights is not None and self.subspace is not None:
            raise QueryError("weights and subspace are mutually exclusive")

        if self.weights is not None:
            weights = np.asarray(self.weights, dtype=np.float64)
            if weights.ndim != 1 or weights.shape[0] != self.dimensionality:
                raise QueryError(
                    f"weights must be one value per dimension "
                    f"({self.dimensionality}), got shape {weights.shape}"
                )
            object.__setattr__(self, "weights", weights)
        if self.subspace is not None:
            subspace = np.asarray(self.subspace, dtype=np.int64)
            if subspace.ndim != 1 or subspace.size == 0:
                raise QueryError("subspace must be a non-empty 1-D list of dimension indices")
            if subspace.min() < 0 or subspace.max() >= self.dimensionality:
                raise QueryError(
                    f"subspace indices must lie in [0, {self.dimensionality})"
                )
            object.__setattr__(self, "subspace", subspace)
        if (self.weights is not None or self.subspace is not None) and not self._weighted_base_ok():
            raise QueryError(
                "weights / subspace compose with the (squared) Euclidean metric only "
                "(Definition 3); pass a WeightedSquaredEuclidean instance as metric= "
                "for custom setups, without the weights/subspace fields"
            )

    # -- shape --------------------------------------------------------------------

    @property
    def is_batch(self) -> bool:
        """Whether this query answers a batch of vectors."""
        return self.vectors.ndim == 2

    @property
    def batch_size(self) -> int:
        """Number of query vectors (1 for a single query)."""
        return int(self.vectors.shape[0]) if self.is_batch else 1

    @property
    def dimensionality(self) -> int:
        """Dimensionality of the query vector(s)."""
        return int(self.vectors.shape[-1])

    @property
    def query_matrix(self) -> np.ndarray:
        """The vectors as a 2-D matrix (single queries become one row)."""
        return self.vectors if self.is_batch else self.vectors[None, :]

    @property
    def single_vector(self) -> np.ndarray:
        """The single query vector; raises for batch queries."""
        if self.is_batch:
            raise QueryError("this is a batch query; use query_matrix")
        return self.vectors

    # -- metric resolution --------------------------------------------------------

    def _weighted_base_ok(self) -> bool:
        """Whether the declared base metric composes with weights/subspace.

        Weights and subspace resolve to the weighted squared Euclidean metric
        (the Definition 3 convention of ``weighted_search``), so the metric
        field must be unset or name the Euclidean family — an explicitly
        requested histogram metric is rejected rather than silently replaced
        by a distance with opposite score semantics.  Metric *instances* must
        carry their own weights instead.
        """
        if self.metric is None:
            return True
        if isinstance(self.metric, Metric):
            return False
        return self.metric in _EUCLIDEAN_ALIASES

    def resolve_metric(self) -> Metric:
        """Materialise the metric instance this query describes.

        Weighted and subspace queries resolve to the weighted squared
        Euclidean metric exactly the way
        :func:`repro.core.weighted.weighted_search` and
        :func:`repro.core.subspace.subspace_search` build it, so facade
        answers stay bitwise identical to the direct helpers.
        """
        if self.weights is not None:
            return WeightedSquaredEuclidean(
                self.weights, normalize_to_dimensionality=self.normalize_weights
            )
        if self.subspace is not None:
            return WeightedSquaredEuclidean.for_subspace(self.dimensionality, self.subspace)
        if self.metric is None:
            return HistogramIntersection()
        if isinstance(self.metric, Metric):
            return self.metric
        try:
            factory = METRIC_ALIASES[self.metric]
        except KeyError:
            raise QueryError(
                f"unknown metric alias {self.metric!r}; known: {sorted(set(METRIC_ALIASES))}"
            ) from None
        return factory()

    def metric_spec_key(self) -> tuple:
        """A hashable key identifying the resolved metric configuration.

        The :class:`~repro.api.index.Index` uses it to cache resolved metrics
        (and through them, backend searchers — including the bulk-loaded
        R-tree) across repeated ``answer()`` calls with equal specifications.
        Instances of the built-in metric classes are keyed by their canonical
        parameters, so a long-lived serving index answering fresh
        ``Query(v, metric=SquaredEuclidean())`` objects per request hits the
        same cache entry every time.  Unknown custom ``Metric`` subclasses
        fall back to identity keying (reuse the instance across queries to
        reuse its searchers).
        """
        base = _metric_base_key(self.metric)
        weights_key = self.weights.tobytes() if self.weights is not None else None
        subspace_key = self.subspace.tobytes() if self.subspace is not None else None
        return (base, weights_key, subspace_key, self.normalize_weights)

    # -- capability-facing flags --------------------------------------------------

    @property
    def is_weighted(self) -> bool:
        """Whether the query needs weighted-metric support."""
        return self.weights is not None or isinstance(self.metric, WeightedSquaredEuclidean)

    @property
    def is_subspace(self) -> bool:
        """Whether the query restricts the search to a dimensional subspace."""
        return self.subspace is not None

    def describe(self) -> str:
        """One-line summary used by ``explain()`` transcripts."""
        if isinstance(self.metric, Metric):
            metric = self.metric.name
        elif self.metric is not None:
            metric = self.metric
        elif self.weights is not None or self.subspace is not None:
            metric = "weighted_squared_euclidean"
        else:
            metric = "histogram_intersection"
        parts = [
            f"k={self.k}",
            f"metric={metric}",
            f"mode={self.mode}",
            f"batch={self.batch_size if self.is_batch else 'no'}",
        ]
        if self.weights is not None:
            parts.append(f"weighted({int(np.count_nonzero(self.weights))} non-zero)")
        if self.subspace is not None:
            parts.append(f"subspace({self.subspace.size} dims)")
        if self.approx_params is not None:
            parts.append(f"approx({self.approx_params.describe()})")
        if self.backend is not None:
            parts.append(f"backend={self.backend}")
        if self.trace:
            parts.append("trace")
        return "Query(" + ", ".join(parts) + ")"
