"""Protocol shared by all pruning bounds.

A bound receives the *partial state* of a BOND run — which dimensions have
been processed (and in what order), the query, the candidates' partial scores
and whatever per-vector bookkeeping the bound declared it needs — and returns
per-candidate lower/upper bounds on the contribution of the remaining
dimensions.  BOND turns these into bounds on the complete aggregate by adding
the partial scores (all the paper's aggregates are sums over dimensions).

Bounds declare their bookkeeping needs through two flags:

* ``needs_partial_value_sums`` — the bound needs ``T(x⁻)``, the sum of each
  candidate's coefficients over the *processed* dimensions (criterion Hh);
* ``needs_remaining_value_sums`` — the bound needs ``T(x⁺)``, the sum over
  the *remaining* dimensions (criteria Ev and the weighted bound); the paper
  materialises ``T(v)`` once and updates it as dimensions are consumed.

The distinction matters for the cost accounting: maintaining these sums is
exactly the "additional bookkeeping" the paper weighs against the better
pruning of the richer criteria.

Narrow-store safety
-------------------
Bounds never touch raw fragment dtypes: every input they see — query
coefficients, partial scores, ``T(x⁻)`` / ``T(x⁺)`` — is float64 by
construction (queries are validated to float64, scores accumulate in
float64 workspaces, and the row-sum column is stored float64 for every
fragment format).  Over a narrow store (float32/float16 fragments, see
:mod:`repro.storage.formats`) those float64 inputs are derived from the
float64-**widened** quantised coefficients, so each bound is exact for the
widened collection: the interval it brackets contains the true remaining
contribution *of the values the store actually holds*, and branch-and-bound
can never falsely dismiss a true neighbour of the quantised collection.
The only drift a narrow format introduces is the one-time ingest
quantisation, bounded per query by
:meth:`~repro.storage.formats.FragmentFormat.score_tolerance`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.errors import BoundError


def _suffix_sums(values: np.ndarray) -> np.ndarray:
    """``out[j] = sum(values[j:])`` with a trailing 0 (length N + 1)."""
    return np.concatenate([np.cumsum(values[::-1])[::-1], [0.0]])


class OrderStatistics:
    """Suffix aggregates of a query along its processing order.

    A blocked BOND run attempts to prune once per pruning period; each attempt
    needs query-side aggregates over the *remaining* dimensions (their mass,
    their minimum, corner distances, weight sums).  Recomputing those by
    fancy-indexing ``query[order[m:]]`` costs O(N - m) per attempt; this class
    precomputes each suffix once per (query, order) — lazily, on the first
    attempt that needs it, so a bound only pays for the statistics it actually
    consults — and every later attempt reads a single scalar.  Both the
    blocked and the per-dimension engine consult the same statistics, which
    keeps their pruning decisions bit-for-bit identical.
    """

    def __init__(
        self, query: np.ndarray, order: np.ndarray, weights: np.ndarray | None = None
    ) -> None:
        self._ordered_query = np.asarray(query, dtype=np.float64)[order]
        self._ordered_weights = (
            np.asarray(weights, dtype=np.float64)[order] if weights is not None else None
        )
        self._cache: dict[str, np.ndarray] = {}

    @property
    def has_weights(self) -> bool:
        """Whether weighted suffix statistics are available."""
        return self._ordered_weights is not None

    def _cached(self, key: str, build) -> np.ndarray:
        array = self._cache.get(key)
        if array is None:
            array = build()
            self._cache[key] = array
        return array

    @property
    def suffix_query_mass(self) -> np.ndarray:
        """``out[m] = T(q⁺)`` after m processed dimensions."""
        return self._cached("query_mass", lambda: _suffix_sums(self._ordered_query))

    @property
    def prefix_query_mass(self) -> np.ndarray:
        """``out[m] = T(q⁻)`` after m processed dimensions (length N + 1).

        Derived from the suffix masses exactly as
        :attr:`PartialState.processed_query_mass` derives it, so a schedule
        sizing a block by processed mass and a bound testing
        ``pruning_worthwhile`` at the end of that block read the same floats.
        """
        suffix = self.suffix_query_mass
        return self._cached("prefix_query_mass", lambda: suffix[0] - suffix)

    @property
    def suffix_query_square_mass(self) -> np.ndarray:
        """``out[m] = sum q_i²`` over the remaining dimensions."""
        return self._cached(
            "query_square", lambda: _suffix_sums(self._ordered_query * self._ordered_query)
        )

    @property
    def suffix_query_min(self) -> np.ndarray:
        """``out[m] = min q⁺`` (``inf`` once nothing remains)."""
        return self._cached(
            "query_min",
            lambda: np.concatenate(
                [np.minimum.accumulate(self._ordered_query[::-1])[::-1], [np.inf]]
            ),
        )

    def _corner(self) -> np.ndarray:
        return self._cached(
            "corner_terms",
            lambda: np.maximum(self._ordered_query, 1.0 - self._ordered_query) ** 2,
        )

    @property
    def suffix_corner_mass(self) -> np.ndarray:
        """``out[m] = sum max(q_i, 1-q_i)²`` over the remaining dimensions."""
        return self._cached("corner_mass", lambda: _suffix_sums(self._corner()))

    @property
    def suffix_weighted_corner_mass(self) -> np.ndarray | None:
        """Weighted corner suffix, or ``None`` without weights."""
        if self._ordered_weights is None:
            return None
        return self._cached(
            "weighted_corner", lambda: _suffix_sums(self._ordered_weights * self._corner())
        )

    @property
    def suffix_inverse_weight_mass(self) -> np.ndarray | None:
        """``sum 1/w_i`` over remaining positive-weight dimensions, or ``None``."""
        if self._ordered_weights is None:
            return None

        def build() -> np.ndarray:
            positive = self._ordered_weights > 0.0
            inverse = np.divide(1.0, np.where(positive, self._ordered_weights, 1.0))
            return _suffix_sums(np.where(positive, inverse, 0.0))

        return self._cached("inverse_weight", build)

    @property
    def suffix_weight_max(self) -> np.ndarray | None:
        """``max w⁺`` per prefix length (0 once nothing remains), or ``None``."""
        if self._ordered_weights is None:
            return None
        return self._cached(
            "weight_max",
            lambda: np.concatenate(
                [np.maximum.accumulate(self._ordered_weights[::-1])[::-1], [0.0]]
            ),
        )

    @property
    def suffix_has_nonpositive_weight(self) -> np.ndarray | None:
        """Whether any remaining dimension has weight <= 0, or ``None``."""
        if self._ordered_weights is None:
            return None
        return self._cached(
            "has_nonpositive",
            lambda: np.concatenate(
                [np.logical_or.accumulate((self._ordered_weights <= 0.0)[::-1])[::-1], [False]]
            ),
        )


@dataclass
class PartialState:
    """Snapshot of a BOND run after processing ``num_processed`` dimensions.

    Attributes
    ----------
    query:
        The full query vector (all N dimensions, in original dimension order).
    order:
        Permutation of ``0..N-1``: the processing order of the dimensions.
    num_processed:
        How many dimensions (the prefix of ``order``) have been processed.
    partial_scores:
        ``S(x⁻, q⁻)`` for each surviving candidate, aligned with the
        candidate list maintained by the searcher.
    partial_value_sums:
        ``T(x⁻)`` per candidate, or ``None`` when not maintained.
    remaining_value_sums:
        ``T(x⁺)`` per candidate, or ``None`` when not maintained.
    weights:
        Per-dimension query weights for weighted search, or ``None``.
    order_statistics:
        Optional precomputed :class:`OrderStatistics` for blocked execution;
        the query-side accessors below use them when present and fall back to
        direct computation otherwise, so hand-built states keep working.
    """

    query: np.ndarray
    order: np.ndarray
    num_processed: int
    partial_scores: np.ndarray
    partial_value_sums: np.ndarray | None = None
    remaining_value_sums: np.ndarray | None = None
    weights: np.ndarray | None = None
    order_statistics: OrderStatistics | None = None

    @property
    def dimensionality(self) -> int:
        """Total number of dimensions N."""
        return int(self.query.shape[0])

    @property
    def num_candidates(self) -> int:
        """Number of surviving candidates."""
        return int(self.partial_scores.shape[0])

    @property
    def processed_dimensions(self) -> np.ndarray:
        """The dimension indices processed so far (prefix of the order)."""
        return self.order[: self.num_processed]

    @property
    def remaining_dimensions(self) -> np.ndarray:
        """The dimension indices not yet processed."""
        return self.order[self.num_processed:]

    @property
    def remaining_query(self) -> np.ndarray:
        """The query coefficients of the remaining dimensions (q⁺)."""
        return self.query[self.remaining_dimensions]

    @property
    def processed_query(self) -> np.ndarray:
        """The query coefficients of the processed dimensions (q⁻)."""
        return self.query[self.processed_dimensions]

    @property
    def num_remaining(self) -> int:
        """How many dimensions are still unprocessed."""
        return self.dimensionality - self.num_processed

    # -- O(1) query-side aggregates (blocked execution) -----------------------

    @property
    def remaining_query_mass(self) -> float:
        """``T(q⁺)``: total query mass of the remaining dimensions."""
        if self.order_statistics is not None:
            return float(self.order_statistics.suffix_query_mass[self.num_processed])
        return float(self.remaining_query.sum())

    @property
    def processed_query_mass(self) -> float:
        """``T(q⁻)``: total query mass of the processed dimensions."""
        if self.order_statistics is not None:
            stats = self.order_statistics.suffix_query_mass
            return float(stats[0] - stats[self.num_processed])
        return float(self.processed_query.sum())

    @property
    def remaining_query_min(self) -> float:
        """The smallest remaining query coefficient (``inf`` when none left)."""
        if self.order_statistics is not None:
            return float(self.order_statistics.suffix_query_min[self.num_processed])
        remaining = self.remaining_query
        return float(remaining.min()) if remaining.shape[0] else float("inf")

    @property
    def remaining_query_square_mass(self) -> float:
        """``sum q_i²`` over the remaining dimensions."""
        if self.order_statistics is not None:
            return float(self.order_statistics.suffix_query_square_mass[self.num_processed])
        remaining = self.remaining_query
        return float(np.sum(remaining * remaining))

    @property
    def remaining_corner_mass(self) -> float:
        """``sum max(q_i, 1-q_i)²`` over the remaining dimensions (Eq. 10)."""
        if self.order_statistics is not None:
            return float(self.order_statistics.suffix_corner_mass[self.num_processed])
        remaining = self.remaining_query
        return float(np.sum(np.maximum(remaining, 1.0 - remaining) ** 2))

    @property
    def remaining_weighted_corner_mass(self) -> float:
        """``sum w_i max(q_i, 1-q_i)²`` over the remaining dimensions."""
        stats = self.order_statistics
        if stats is not None and stats.suffix_weighted_corner_mass is not None:
            return float(stats.suffix_weighted_corner_mass[self.num_processed])
        remaining = self.remaining_query
        remaining_weights = self.weights[self.remaining_dimensions]
        return float(np.sum(remaining_weights * np.maximum(remaining, 1.0 - remaining) ** 2))

    @property
    def remaining_inverse_weight_mass(self) -> float:
        """``sum 1/w_i`` over remaining dimensions with positive weight."""
        stats = self.order_statistics
        if stats is not None and stats.suffix_inverse_weight_mass is not None:
            return float(stats.suffix_inverse_weight_mass[self.num_processed])
        remaining_weights = self.weights[self.remaining_dimensions]
        positive = remaining_weights > 0.0
        return float(np.sum(1.0 / remaining_weights[positive]))

    @property
    def remaining_weight_max(self) -> float:
        """The largest remaining weight (0 when none left)."""
        stats = self.order_statistics
        if stats is not None and stats.suffix_weight_max is not None:
            return float(stats.suffix_weight_max[self.num_processed])
        remaining_weights = self.weights[self.remaining_dimensions]
        return float(remaining_weights.max()) if remaining_weights.shape[0] else 0.0

    @property
    def remaining_has_nonpositive_weight(self) -> bool:
        """Whether any remaining dimension has weight <= 0."""
        stats = self.order_statistics
        if stats is not None and stats.suffix_has_nonpositive_weight is not None:
            return bool(stats.suffix_has_nonpositive_weight[self.num_processed])
        remaining_weights = self.weights[self.remaining_dimensions]
        return bool(np.any(remaining_weights <= 0.0))

    def validate(self) -> None:
        """Sanity-check internal consistency; raises :class:`BoundError`."""
        if self.order.shape[0] != self.dimensionality:
            raise BoundError("dimension order must be a permutation of all dimensions")
        if self.num_processed < 0 or self.num_processed > self.dimensionality:
            raise BoundError("num_processed outside 0..N")
        for label, array in (
            ("partial_value_sums", self.partial_value_sums),
            ("remaining_value_sums", self.remaining_value_sums),
        ):
            if array is not None and array.shape[0] != self.num_candidates:
                raise BoundError(f"{label} is not aligned with the candidate list")
        if self.weights is not None and self.weights.shape[0] != self.dimensionality:
            raise BoundError("weights must cover every dimension")


@dataclass
class RemainingBounds:
    """Per-candidate bounds on the remaining contribution ``S(x⁺, q⁺)``.

    ``lower`` and ``upper`` are either scalars (query-only bounds such as Hq
    and Eq produce the same value for every candidate) or arrays aligned with
    the candidate list.
    """

    lower: np.ndarray | float
    upper: np.ndarray | float

    def as_arrays(self, num_candidates: int) -> tuple[np.ndarray, np.ndarray]:
        """Broadcast both bounds to arrays of length ``num_candidates``."""
        lower = np.broadcast_to(np.asarray(self.lower, dtype=np.float64), (num_candidates,))
        upper = np.broadcast_to(np.asarray(self.upper, dtype=np.float64), (num_candidates,))
        return np.array(lower), np.array(upper)

    @property
    def is_ordered_scalar(self) -> bool:
        """Whether both bounds are scalars with ``lower <= upper``.

        Such bounds shift every partial score by the same two constants, so
        the totals are monotone in the partial score — which is what lets
        :meth:`totals` skip its clamp and the searcher select and prune from
        the partial scores directly.
        """
        lower, upper = self.lower, self.upper
        if isinstance(lower, np.ndarray) or isinstance(upper, np.ndarray):
            return False
        return bool(lower <= upper)

    def totals(
        self,
        partial_scores: np.ndarray,
        out: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bounds ``(S_min, S_max)`` on the complete aggregate per candidate.

        The upper bound is clamped to at least the lower bound: both enclose
        the same true score, so ``max(upper, lower)`` is still a valid upper
        bound, and the clamp absorbs the last-ULP inversions that arise when
        the two bounds are computed by different formulas that are analytically
        equal (e.g. the weighted Appendix-A bounds with one remaining
        dimension).  Without it a candidate can prune *itself*: its lower
        bound lands one ULP above its own upper bound, the pruning constant
        kappa is set from that upper bound, and the true nearest neighbour is
        discarded.

        ``out`` optionally supplies two candidate-aligned buffers to write the
        bounds into (the searcher reuses per-search scratch so a pruning
        attempt allocates nothing); the values are identical either way.
        """
        # Scalar bounds (Hq, Eq) broadcast for free in the additions below;
        # materialising them into per-candidate arrays first would cost two
        # collection-sized copies per pruning attempt.  Ordered scalars need
        # no clamp either: rounding is monotone, so lower <= upper implies
        # fl(s + lower) <= fl(s + upper) for every partial score s and the
        # maximum would rewrite the upper bounds with themselves.
        if out is None:
            total_lower = partial_scores + self.lower
            total_upper = partial_scores + self.upper
        else:
            total_lower, total_upper = out
            np.add(partial_scores, self.lower, out=total_lower)
            np.add(partial_scores, self.upper, out=total_upper)
        if not self.is_ordered_scalar:
            np.maximum(total_upper, total_lower, out=total_upper)
        return total_lower, total_upper


class PruningBound(abc.ABC):
    """Base class of all pruning criteria."""

    #: Short name used in experiment reports ("Hq", "Hh", "Eq", "Ev", "Ew").
    name: str = "bound"
    #: Whether the bound needs ``T(x⁻)`` maintained per candidate.
    needs_partial_value_sums: bool = False
    #: Whether the bound needs ``T(x⁺)`` maintained per candidate.
    needs_remaining_value_sums: bool = False
    #: Whether the bound's pruning power is a function of the processed query
    #: mass ``T(q⁻)`` (the histogram criteria); mass-aware schedules size the
    #: first block from it and fall back to a fixed period otherwise.
    mass_driven: bool = False

    @abc.abstractmethod
    def remaining_bounds(self, state: PartialState) -> RemainingBounds:
        """Bounds on the remaining contribution for every candidate."""

    def total_bounds(
        self,
        state: PartialState,
        out: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bounds ``(S_min, S_max)`` on the complete aggregate per candidate:
        the validated state's remaining bounds added to its partial scores
        (see :meth:`RemainingBounds.totals` for the clamp and ``out``)."""
        state.validate()
        return self.remaining_bounds(state).totals(state.partial_scores, out)

    def pruning_worthwhile(self, state: PartialState) -> bool:
        """Whether attempting to prune in this state can discard anything.

        Section 5.2 observes that criterion Hq cannot prune a single vector
        until ``T(q⁻) > 0.5``; bounds override this to let the searcher skip
        the (heap + selection) overhead of futile pruning attempts.  The
        default is to always try.
        """
        return True

    def bookkeeping_arrays(self) -> int:
        """How many extra per-vector arrays this bound requires (for reports)."""
        return int(self.needs_partial_value_sums) + int(self.needs_remaining_value_sums)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
