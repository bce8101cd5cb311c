"""Pruning-period schedules (Section 5.2).

A pruning attempt is not free — it computes bounds, runs ``kfetch`` over the
candidates and rewrites the candidate structures — so BOND batches dimensions
and only attempts to prune every ``m`` of them.  Small ``m`` prunes sooner but
pays the overhead more often; large ``m`` wastes fragment reads on vectors
that could already have been discarded.  The paper uses a fixed ``m`` (8 in
the main experiments) and mentions, as an unstudied variant, adapting ``m`` to
the *expected* pruning effect.  :class:`MassAwareSchedule` — the exact
engine's default — does that from the one quantity Section 5.2 says governs
the effect, the processed query mass ``T(q⁻)``; :class:`GeometricSchedule`
reacts to the *observed* effect instead, and the `abl-m` benchmark compares
the options against the paper's fixed periods.

A schedule may also end the scan: ``next_batch`` returning 0 means "no
further round pays; finish", and the searcher hands its survivors straight
to its completion step (the exact engine's remaining-dimension scoring, the
compressed filter's exact refinement).  :class:`HandOffSchedule` — the
compressed filter's default — does that at the first prune that leaves the
candidate set positional: past it, more code rounds only trade a slightly
smaller refine set for a whole survivors-by-dimensions pass over the codes.

Schedules only move block boundaries.  Every candidate's score is folded
dimension by dimension in the query's own order wherever the boundaries
fall, so the answers of two schedules are bitwise identical; what differs is
how many bytes are read for vectors a prune would already have discarded and
how many pruning attempts are paid for.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import QueryError


class PruningSchedule(abc.ABC):
    """Strategy deciding after how many dimensions to attempt pruning next."""

    #: Name used in experiment reports.
    name: str = "schedule"

    @abc.abstractmethod
    def first_batch(self, dimensionality: int, prefix_mass: np.ndarray | None = None) -> int:
        """Number of dimensions to process before the first pruning attempt.

        ``prefix_mass[m]`` is the query mass ``T(q⁻)`` processed after the
        first m dimensions of the query's own order
        (:attr:`repro.bounds.base.OrderStatistics.prefix_query_mass`); the
        searcher passes it when its bound is mass-driven and ``None``
        otherwise.  Fixed schedules ignore it.
        """

    @abc.abstractmethod
    def next_batch(
        self,
        *,
        dimensionality: int,
        dimensions_processed: int,
        candidates_before: int,
        candidates_after: int,
        positional: bool = False,
    ) -> int:
        """Number of dimensions to process before the next attempt.

        Called right after a pruning attempt with the candidate counts before
        and after it, so adaptive schedules can react to the observed effect;
        ``positional`` says whether the candidate set is materialised (so a
        further block costs survivors x dimensions, not full columns).

        Returning 0 ends the scan: the run is finished at the dimensions it
        has processed, and its survivors go to the searcher's completion step
        (which scores them exactly), so the answer does not change.
        """


class FixedPeriodSchedule(PruningSchedule):
    """Prune after every ``period`` dimensions (the paper's choice, m = 8)."""

    name = "fixed"

    def __init__(self, period: int = 8) -> None:
        if period < 1:
            raise QueryError("the pruning period must be at least 1")
        self._period = period

    @property
    def period(self) -> int:
        """The fixed number of dimensions between pruning attempts."""
        return self._period

    def first_batch(self, dimensionality: int, prefix_mass: np.ndarray | None = None) -> int:
        return min(self._period, dimensionality)

    def next_batch(
        self,
        *,
        dimensionality: int,
        dimensions_processed: int,
        candidates_before: int,
        candidates_after: int,
        positional: bool = False,
    ) -> int:
        remaining = dimensionality - dimensions_processed
        return min(self._period, remaining)


class MassAwareSchedule(PruningSchedule):
    """Two-phase plan: a mass-sized full-height block, then doubling blocks.

    Section 5.2 observes that criterion Hq cannot prune a single vector
    before ``T(q⁻) > 0.5`` — and that once it can, almost everything goes at
    once.  So the first block is the shortest prefix of the query-ordered
    dimensions whose processed mass reaches :attr:`MASS_SHARE` of ``T(q)``:
    long enough that the first prune is the big one, and no longer, because
    every further full-height column is read for rows that prune would have
    discarded.  After a prune that leaves the candidate set positional, a
    block costs survivors x dimensions, the survivors shrink slowly, and the
    per-attempt overhead dominates; the block size then doubles from
    :attr:`TAIL_PERIOD` to the end, so the tail takes O(log N) attempts.
    Until then (no mass given, a bitmap-only candidate set, a first prune
    that did not collapse the set) the plan is the paper's fixed m = 8.

    The thresholds are constants, not options: the answers cannot depend on
    them (see the module docstring), only the counters and the time do.
    """

    name = "mass-aware"

    #: Share of ``T(q)`` the first block must have processed.  Must exceed
    #: the 0.5 below which ``HqBound.pruning_worthwhile`` refuses; 0.7 leaves
    #: the upper bound ``S(x⁻) + 0.3 T(q)`` tight enough that ~98 % of a
    #: Corel-like collection falls below the k-th best partial score.
    MASS_SHARE = 0.7
    #: The first block never leaves ``[2, 8]``: one dimension never prunes
    #: usefully, and past the paper's m = 8 a prune is overdue regardless.
    MIN_FIRST_BLOCK = 2
    #: Also the block size whenever the plan falls back to a fixed period.
    TAIL_PERIOD = 8

    def __init__(self) -> None:
        self._tail_block = self.TAIL_PERIOD

    def first_batch(self, dimensionality: int, prefix_mass: np.ndarray | None = None) -> int:
        self._tail_block = self.TAIL_PERIOD
        first = self.TAIL_PERIOD
        if prefix_mass is not None:
            reached = int(
                np.searchsorted(prefix_mass, self.MASS_SHARE * float(prefix_mass[-1]), side="left")
            )
            first = min(max(reached, self.MIN_FIRST_BLOCK), self.TAIL_PERIOD)
        return min(first, dimensionality)

    def next_batch(
        self,
        *,
        dimensionality: int,
        dimensions_processed: int,
        candidates_before: int,
        candidates_after: int,
        positional: bool = False,
    ) -> int:
        block = self.TAIL_PERIOD
        if positional:
            block = self._tail_block
            self._tail_block *= 2
        return min(block, dimensionality - dimensions_processed)


class HandOffSchedule(FixedPeriodSchedule):
    """Filter at the paper's m = 8 until the set is positional, then finish.

    The compressed filter's default (Section 7.4).  The first prune that
    leaves the candidate set positional is where the filter's survivor curve
    flattens: further code rounds cost survivors x dimensions each and shrink
    the refine set only slowly, while the exact refinement of the extra rows
    is cheaper than those rounds.  So ``next_batch`` returns 0 there — the
    run hands its survivors to the refinement — and the paper's fixed m = 8
    until then.
    """

    name = "hand-off"

    def __init__(self) -> None:
        super().__init__(8)

    def next_batch(self, *, positional: bool = False, **counts: int) -> int:
        return 0 if positional else super().next_batch(**counts)


class GeometricSchedule(PruningSchedule):
    """Adaptive schedule: grow the batch when pruning stops paying off.

    Starts with ``initial_period`` and multiplies the batch size by
    ``growth_factor`` whenever a pruning attempt removed less than
    ``minimum_effect`` (fraction) of the candidates.  This approximates the
    "adapt m dynamically to the expected pruning effect" variant the paper
    leaves open: early on, pruning is attempted frequently; once the candidate
    set has collapsed to a near-final superset, the searcher stops paying the
    per-attempt overhead and effectively degenerates to a scan over the
    survivors — which Section 5.2 argues is the right thing to do.
    """

    name = "geometric"

    def __init__(
        self,
        initial_period: int = 8,
        *,
        growth_factor: float = 2.0,
        minimum_effect: float = 0.05,
        maximum_period: int = 64,
    ) -> None:
        if initial_period < 1:
            raise QueryError("the initial pruning period must be at least 1")
        if growth_factor < 1.0:
            raise QueryError("growth_factor must be at least 1")
        if not (0.0 <= minimum_effect < 1.0):
            raise QueryError("minimum_effect must be in [0, 1)")
        if maximum_period < initial_period:
            raise QueryError("maximum_period must be at least the initial period")
        self._initial_period = initial_period
        self._growth_factor = growth_factor
        self._minimum_effect = minimum_effect
        self._maximum_period = maximum_period
        self._current_period = initial_period

    def first_batch(self, dimensionality: int, prefix_mass: np.ndarray | None = None) -> int:
        self._current_period = self._initial_period
        return min(self._initial_period, dimensionality)

    def next_batch(
        self,
        *,
        dimensionality: int,
        dimensions_processed: int,
        candidates_before: int,
        candidates_after: int,
        positional: bool = False,
    ) -> int:
        if candidates_before > 0:
            pruned_fraction = (candidates_before - candidates_after) / candidates_before
            if pruned_fraction < self._minimum_effect:
                grown = int(round(self._current_period * self._growth_factor))
                self._current_period = min(max(grown, self._current_period + 1), self._maximum_period)
        remaining = dimensionality - dimensions_processed
        return min(self._current_period, remaining)


def recommend_period(dimensionality: int, *, target_attempts: int = 16) -> int:
    """A rule-of-thumb pruning period for a given dimensionality.

    Aims for roughly ``target_attempts`` pruning attempts over the whole
    search (the paper's m = 8 on 166 dimensions corresponds to ~20 attempts),
    never dropping below 2 dimensions per batch.
    """
    if dimensionality < 1:
        raise QueryError("dimensionality must be positive")
    if target_attempts < 1:
        raise QueryError("target_attempts must be positive")
    return max(2, dimensionality // target_attempts)
