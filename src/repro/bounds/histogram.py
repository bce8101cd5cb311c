"""Pruning bounds for histogram intersection (Section 4.1).

Both criteria bound the remaining contribution
``S(h⁺, q⁺) = sum_{j>m} min(h_j, q_j)`` of a normalised histogram ``h``.

* **Hq** uses only the query: ``0 <= S(h⁺, q⁺) <= T(q⁺) = 1 - T(q⁻)``
  (Equation 5).  The bounds are identical for every histogram, so no
  per-vector bookkeeping is needed; the pruning test reduces to Equation 6.

* **Hh** additionally uses the processed mass ``T(h⁻)`` of each histogram
  (Equations 7 and 8)::

      S(h⁺, q⁺) <= min(T(h⁺), T(q⁺)) = min(1 - T(h⁻), T(q⁺))
      S(h⁺, q⁺) >= min(q_min, T(h⁺)) = min(q_min, 1 - T(h⁻))

  where ``q_min`` is the smallest query coefficient among the remaining
  dimensions.  Hh prunes more but pays for maintaining ``T(h⁻)``.
"""

from __future__ import annotations

import numpy as np

from repro.bounds.base import PartialState, PruningBound, RemainingBounds
from repro.errors import BoundError


class HqBound(PruningBound):
    """Query-only bounds for histogram intersection (criterion Hq)."""

    name = "Hq"
    mass_driven = True

    def remaining_bounds(self, state: PartialState) -> RemainingBounds:
        """``[0, T(q⁺)]`` for every candidate."""
        return RemainingBounds(lower=0.0, upper=state.remaining_query_mass)

    def pruning_worthwhile(self, state: PartialState) -> bool:
        """Hq cannot prune before ``T(q⁻) > 0.5`` (Section 5.2).

        The best partial score is at most ``T(q⁻)`` and every candidate's
        upper bound is its partial score plus ``T(q⁺) = 1 - T(q⁻)``; for the
        pruning inequality of Equation 6 to exclude anything the right-hand
        side must be positive.
        """
        return state.processed_query_mass > 0.5


class HhBound(PruningBound):
    """Histogram-aware bounds for histogram intersection (criterion Hh)."""

    name = "Hh"
    needs_partial_value_sums = True
    mass_driven = True

    def remaining_bounds(self, state: PartialState) -> RemainingBounds:
        """Per-candidate bounds from Equations 7 and 8."""
        if state.partial_value_sums is None:
            raise BoundError("criterion Hh needs T(h-) maintained per candidate")
        remaining_query_mass = state.remaining_query_mass
        # Remaining mass of each histogram: the histograms are L1-normalised,
        # so T(h+) = 1 - T(h-).  Clip at zero to absorb floating-point noise.
        remaining_histogram_mass = np.clip(1.0 - state.partial_value_sums, 0.0, None)

        upper = np.minimum(remaining_histogram_mass, remaining_query_mass)
        if state.num_remaining == 0:
            # No dimensions left: the remaining contribution is exactly zero.
            lower = np.zeros_like(upper)
        else:
            lower = np.minimum(state.remaining_query_min, remaining_histogram_mass)
        return RemainingBounds(lower=lower, upper=upper)
