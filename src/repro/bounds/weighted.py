"""Pruning bounds for weighted squared Euclidean distance (Appendix A).

The weighted distance ``sum_i w_i (v_i - q_i)^2`` stretches every axis by
``sqrt(w_i)`` (Figure 13).  Appendix A derives a lower bound (Equation 15)
and an upper bound (Equation 14) on the remaining contribution given
``T(v⁺)``.

**Lower bound (Equation 15).**  Minimising ``sum w_i d_i^2`` subject to
``sum d_i = T(v⁺) - T(q⁺)`` is a weighted least-norm problem whose optimum is
``(T(v⁺) - T(q⁺))² / sum_i (1 / w_i)`` — exactly the paper's Equation 15 once
the product notation is simplified.  If any remaining dimension has weight
zero the bound degenerates to 0 (that dimension can absorb any difference for
free), which is also what the formula yields in the limit.

**Upper bound.**  Equation 14 as printed assumes the remaining mass should be
piled onto the dimensions with the smallest ``w_i q_i²``; with strongly
non-uniform weights that choice is not always the true maximiser, so using it
verbatim could under-estimate the worst case and prune unsafely.  This
implementation therefore uses a *provably safe* upper bound — the minimum of

* the box-corner bound ``sum_i w_i · max(q_i, 1 - q_i)²`` (ignores the mass
  constraint entirely), and
* ``max(w⁺) ·`` (the exact unweighted Lemma 1 maximum for ``T(v⁺)``), which
  dominates the weighted distance because every weight is at most
  ``max(w⁺)``

— and exposes the paper's literal Equation 14 as ``paper_equation14`` for
comparison experiments.  For the weight distributions of Figure 11 (skewed
but applied to the *query* dimensions that are processed first) the safe
bound prunes almost as well.

**Floating-point safety.**  With a single remaining dimension the lower and
upper bounds above are *analytically equal* (the remaining coordinate is
fully determined by ``T(v⁺)``), but they are computed by different formulas
whose roundings differ in the last ULP.  When the lower bound lands one ULP
above the upper bound, the candidate prunes itself — including the true
nearest neighbour, which made the weighted searcher return empty results.
:meth:`~repro.bounds.base.PruningBound.total_bounds` therefore clamps the
upper bound to at least the lower bound, which is always sound because both
enclose the same true score.
"""

from __future__ import annotations

import numpy as np

from repro.bounds.base import PartialState, PruningBound, RemainingBounds
from repro.bounds.euclidean import lemma1_upper_bound
from repro.errors import BoundError


class WeightedEuclideanBound(PruningBound):
    """Bounds for weighted squared Euclidean distance (criterion Ew)."""

    name = "Ew"
    needs_remaining_value_sums = True

    def __init__(self, *, use_paper_upper_bound: bool = False) -> None:
        self._use_paper_upper_bound = use_paper_upper_bound

    def remaining_bounds(self, state: PartialState) -> RemainingBounds:
        """Per-candidate bounds using the weights of the remaining dimensions.

        Query-side aggregates (remaining mass, weighted corner distance,
        ``sum 1/w``, ``max w``) come from the blocked partial state, which
        serves them in O(1) from per-order suffix statistics when the searcher
        precomputed them; only Lemma 1 still needs the remaining query vector.
        """
        if state.weights is None:
            raise BoundError("the weighted bound needs query weights in the partial state")
        if state.remaining_value_sums is None:
            raise BoundError("the weighted bound needs T(v+) maintained per candidate")

        remaining_sums = state.remaining_value_sums
        if state.num_remaining == 0:
            zeros = np.zeros_like(remaining_sums)
            return RemainingBounds(lower=zeros, upper=zeros)

        # Lower bound (Equation 15) from the O(1) blocked-state aggregates.
        if state.remaining_has_nonpositive_weight:
            # A zero-weight dimension can absorb the whole difference for free.
            lower = np.zeros_like(remaining_sums)
        else:
            total_difference = remaining_sums - state.remaining_query_mass
            lower = (total_difference * total_difference) / state.remaining_inverse_weight_mass

        if self._use_paper_upper_bound:
            remaining_dimensions = state.remaining_dimensions
            upper = self.paper_equation14(
                state.query[remaining_dimensions],
                state.weights[remaining_dimensions],
                remaining_sums,
            )
        else:
            # Safe upper bound: min(box corner, max(w+) * unweighted Lemma 1).
            unweighted = lemma1_upper_bound(state.remaining_query, remaining_sums)
            upper = np.minimum(
                state.remaining_weighted_corner_mass,
                state.remaining_weight_max * unweighted,
            )
        return RemainingBounds(lower=lower, upper=upper)

    # -- lower bound (Equation 15), standalone formula ---------------------------

    @staticmethod
    def _lower_bound(
        remaining_query: np.ndarray,
        remaining_weights: np.ndarray,
        remaining_sums: np.ndarray,
    ) -> np.ndarray:
        total_difference = remaining_sums - float(remaining_query.sum())
        if np.any(remaining_weights <= 0.0):
            # A zero-weight dimension can absorb the whole difference for free.
            return np.zeros_like(remaining_sums)
        inverse_weight_sum = float(np.sum(1.0 / remaining_weights))
        return (total_difference * total_difference) / inverse_weight_sum

    # -- safe upper bound, standalone formula -------------------------------------

    @staticmethod
    def _safe_upper_bound(
        remaining_query: np.ndarray,
        remaining_weights: np.ndarray,
        remaining_sums: np.ndarray,
    ) -> np.ndarray:
        corner = float(
            np.sum(remaining_weights * np.maximum(remaining_query, 1.0 - remaining_query) ** 2)
        )
        maximum_weight = float(remaining_weights.max())
        unweighted = lemma1_upper_bound(remaining_query, remaining_sums)
        return np.minimum(corner, maximum_weight * unweighted)

    # -- the paper's Equation 14, for comparison ----------------------------------

    @staticmethod
    def paper_equation14(
        remaining_query: np.ndarray,
        remaining_weights: np.ndarray,
        remaining_sums: np.ndarray,
    ) -> np.ndarray:
        """The literal upper bound of Equation 14 (order by decreasing w·q²).

        Provided for reproducing the paper's criterion exactly in comparison
        experiments; see the module docstring for why the default searcher
        uses the safe bound instead.
        """
        order = np.argsort(remaining_weights * remaining_query**2)[::-1]
        query_sorted = remaining_query[order]
        weights_sorted = remaining_weights[order]
        num_remaining = query_sorted.shape[0]

        weighted_q2 = weights_sorted * query_sorted**2
        weighted_1m2 = weights_sorted * (1.0 - query_sorted) ** 2
        prefix_q2 = np.concatenate([[0.0], np.cumsum(weighted_q2)])
        suffix_1m = np.concatenate([np.cumsum(weighted_1m2[::-1])[::-1], [0.0]])

        clipped = np.clip(np.asarray(remaining_sums, dtype=np.float64), 0.0, float(num_remaining))
        filled = np.floor(clipped).astype(np.int64)
        fractional = clipped - filled
        fractional_position = num_remaining - filled

        bounds = np.empty_like(clipped)
        all_filled = fractional_position == 0
        bounds[all_filled] = suffix_1m[0]
        partial = ~all_filled
        if np.any(partial):
            positions = fractional_position[partial]
            bounds[partial] = (
                prefix_q2[positions - 1]
                + weights_sorted[positions - 1]
                * (fractional[partial] - query_sorted[positions - 1]) ** 2
                + suffix_1m[positions]
            )
        return bounds
