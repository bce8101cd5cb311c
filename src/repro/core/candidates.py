"""Candidate-set management for BOND (Section 6.1).

During a BOND search the surviving candidates carry per-vector state: the
partial score, and — depending on the pruning criterion — the processed mass
``T(x⁻)`` and/or the remaining mass ``T(x⁺)``.  Early in the search nearly
every vector is still alive, so the candidate set is best represented as a
bitmap over the whole collection and fragments are read in full; once the
candidate set has shrunk below a selectivity threshold the searcher switches
to a *positional* (materialised) representation where only the candidates'
values of each further fragment are fetched.

:class:`CandidateSet` encapsulates that state, the representation switch and
the cost accounting of fragment access in both modes.  Its per-vector arrays
live in a preallocated *survivor workspace*: pruning compacts the live prefix
of each buffer in place instead of allocating fresh arrays on every prune, so
the score/mass state never reallocates over the lifetime of a search and the
accessors hand out zero-copy views of the live prefix.  The workspace also
outlives the search: :meth:`CandidateSet.reset` starts the next one in the
same buffers, which is how a long-lived searcher answers query after query
without touching fresh collection-sized memory.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro.engine.cost import DOUBLE_BYTES
from repro.errors import QueryError
from repro.kernels.block import accumulate_columns
from repro.storage.decomposed import DecomposedStore


class CandidateMode(Enum):
    """How the candidate set is represented physically."""

    BITMAP = "bitmap"
    POSITIONAL = "positional"


class CandidateSet:
    """Surviving candidates plus their per-vector bookkeeping.

    Parameters
    ----------
    store:
        The decomposed store the search runs on.
    track_partial_sums:
        Maintain ``T(x⁻)`` per candidate (needed by criterion Hh).
    track_remaining_sums:
        Maintain ``T(x⁺)`` per candidate (needed by Ev and the weighted
        bound); initialised from the store's materialised row sums.
    mode:
        ``"auto"`` switches from bitmap to positional once selectivity drops
        below ``switch_selectivity``; ``"bitmap"`` / ``"positional"`` force a
        representation for the whole search (the ablation toggle).
    switch_selectivity:
        Candidate fraction below which the auto mode materialises.
    """

    def __init__(
        self,
        store: DecomposedStore,
        *,
        track_partial_sums: bool = False,
        track_remaining_sums: bool = False,
        mode: str = "auto",
        switch_selectivity: float = 0.05,
    ) -> None:
        if mode not in ("auto", "bitmap", "positional"):
            raise QueryError("candidate mode must be 'auto', 'bitmap' or 'positional'")
        if not (0.0 < switch_selectivity <= 1.0):
            raise QueryError("switch_selectivity must be in (0, 1]")
        self._store = store
        self._mode_policy = mode
        self._switch_selectivity = switch_selectivity
        self._track_partial_sums = track_partial_sums
        self._track_remaining_sums = track_remaining_sums
        self._scores_buffer = np.empty(0, dtype=np.float64)
        self._partial_sums_buffer: np.ndarray | None = None
        self._remaining_sums_buffer: np.ndarray | None = None
        self.reset()

    def reset(self) -> None:
        """Start over with every vector as a candidate.

        The survivor workspace — every per-vector array, allocated once at
        full size, ``_count`` tracking the live prefix that pruning compacts
        in place — is reused when it is still large enough, so a searcher
        that keeps one candidate set and resets it per search touches no
        fresh collection-sized memory.  OIDs are virtual and dense (a store
        is immutable), so nothing is materialised until the first prune,
        whose survivor positions *are* the surviving OIDs.
        """
        store = self._store
        self._oids_buffer: np.ndarray | None = None
        count = self._count = store.cardinality
        self._current_mode = (
            CandidateMode.POSITIONAL
            if self._mode_policy == "positional"
            else CandidateMode.BITMAP
        )
        if self._scores_buffer.shape[0] < count:
            self._scores_buffer = np.zeros(count, dtype=np.float64)
            if self._track_partial_sums:
                self._partial_sums_buffer = np.zeros(count, dtype=np.float64)
            if self._track_remaining_sums:
                self._remaining_sums_buffer = np.empty(count, dtype=np.float64)
        else:
            self._scores_buffer[:count] = 0.0
            if self._partial_sums_buffer is not None:
                self._partial_sums_buffer[:count] = 0.0
        if self._remaining_sums_buffer is not None:
            self._remaining_sums_buffer[:count] = store.row_sums().tail

    # -- basic accessors -------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    @property
    def oids(self) -> np.ndarray:
        """OIDs of the surviving candidates (ascending; view of the workspace)."""
        if self._oids_buffer is None:
            self._oids_buffer = np.arange(self._count, dtype=np.int64)
        return self._oids_buffer[: self._count]

    @property
    def partial_scores(self) -> np.ndarray:
        """``S(x⁻, q⁻)`` per survivor (view of the workspace)."""
        return self._scores_buffer[: self._count]

    @property
    def partial_value_sums(self) -> np.ndarray | None:
        """``T(x⁻)`` per survivor, or ``None`` when not tracked."""
        if self._partial_sums_buffer is None:
            return None
        return self._partial_sums_buffer[: self._count]

    @property
    def remaining_value_sums(self) -> np.ndarray | None:
        """``T(x⁺)`` per survivor, or ``None`` when not tracked."""
        if self._remaining_sums_buffer is None:
            return None
        return self._remaining_sums_buffer[: self._count]

    @property
    def mode(self) -> CandidateMode:
        """The current physical representation."""
        return self._current_mode

    def is_full(self) -> bool:
        """Whether every vector of the collection is still a candidate."""
        return self._count == self._store.cardinality

    def selectivity(self) -> float:
        """Surviving fraction of the collection."""
        return len(self) / self._store.cardinality

    # -- fragment access -------------------------------------------------------

    def column_values(self, dimension: int) -> np.ndarray:
        """The candidates' values of one dimension, charging the right cost.

        In bitmap mode the whole fragment is read sequentially (that is the
        physical reality of filtering through a bitmap); in positional mode
        only the candidates' values are fetched, modelled as a sequential scan
        of the materialised (already restricted) fragment.  Values come back
        float64 — the exact widening of possibly narrow coefficients — so the
        score arithmetic downstream never runs in a narrow dtype (a narrow
        intermediate would silently poison every subsequent float64 operation
        under NEP 50 promotion rules).
        """
        if self._current_mode is CandidateMode.BITMAP:
            fragment = self._store.fragment(dimension)
            return np.asarray(fragment.tail[self.oids], dtype=np.float64)
        self._store.cost.charge_scan(len(self), self._store.coefficient_bytes)
        return np.asarray(
            self._store.fragment_tail(dimension)[self.oids], dtype=np.float64
        )

    def block_values(self, dimensions: np.ndarray) -> np.ndarray:
        """One pruning period of fragments as a single ``(n, m)`` gather.

        The returned block holds exactly the values the m per-dimension
        :meth:`column_values` calls would return, at the same accounted cost,
        but fetched in one fused storage call.
        """
        if self._current_mode is CandidateMode.BITMAP:
            return self._store.gather_block(
                dimensions, oids=None if self.is_full() else self.oids, charge="full"
            )
        return self._store.gather_block(dimensions, oids=self.oids, charge="candidates")

    def scan_columns(self, dimensions: np.ndarray) -> list[np.ndarray]:
        """Zero-copy full fragment columns for the full-bitmap fast path.

        Only valid while every vector is still a candidate — the caller must
        check :meth:`is_full` (and bitmap mode) first.  Charged exactly like
        the equivalent :meth:`block_values` call.
        """
        if self._current_mode is not CandidateMode.BITMAP or not self.is_full():
            raise QueryError("scan_columns requires the full-bitmap candidate state")
        return self._store.fragment_columns(dimensions)

    # -- state updates -----------------------------------------------------------

    def accumulate(self, contributions: np.ndarray, column_values: np.ndarray) -> None:
        """Add one dimension's contributions and update the bookkeeping sums."""
        scores = self.partial_scores
        scores += contributions
        if self._partial_sums_buffer is not None:
            partial_sums = self.partial_value_sums
            partial_sums += column_values
        if self._remaining_sums_buffer is not None:
            remaining_sums = self.remaining_value_sums
            remaining_sums -= column_values

    def accumulate_block(self, contribution_block: np.ndarray, value_block: np.ndarray) -> None:
        """Fold a whole block of dimensions into the per-vector state.

        Columns are folded left to right so the accumulated floats are
        bitwise identical to m successive :meth:`accumulate` calls.  Blocks
        from :meth:`block_values` (and the kernels' outputs over them) are
        column-contiguous, so every fold streams.
        """
        if contribution_block.shape[0] != self._count:
            raise QueryError("the contribution block must be aligned with the candidate list")
        accumulate_columns(self.partial_scores, contribution_block)
        if self._partial_sums_buffer is not None:
            partial_sums = self.partial_value_sums
            for position in range(value_block.shape[1]):
                partial_sums += value_block[:, position]
        if self._remaining_sums_buffer is not None:
            remaining_sums = self.remaining_value_sums
            for position in range(value_block.shape[1]):
                remaining_sums -= value_block[:, position]

    def accumulate_value_columns(self, columns: list[np.ndarray]) -> None:
        """Update the bookkeeping sums for whole columns (full-bitmap path).

        The score accumulation itself is done by the kernel's
        ``accumulate_scan``; this folds the same columns into ``T(x⁻)`` /
        ``T(x⁺)`` in the same left-to-right order as :meth:`accumulate_block`.
        """
        if self._partial_sums_buffer is not None:
            partial_sums = self.partial_value_sums
            for column in columns:
                partial_sums += column
        if self._remaining_sums_buffer is not None:
            remaining_sums = self.remaining_value_sums
            for column in columns:
                remaining_sums -= column

    def prune(self, keep_mask: np.ndarray) -> int:
        """Keep only the candidates where ``keep_mask`` is True.

        Compacts the survivor workspace in place (no reallocation), returns
        the number of pruned candidates and performs the bitmap-to-positional
        switch when the auto policy's threshold is crossed.
        """
        keep_mask = np.asarray(keep_mask, dtype=bool)
        if keep_mask.shape[0] != len(self):
            raise QueryError("the keep mask must be aligned with the candidate list")
        # One pass over the mask to find the survivors, then cheap integer
        # gathers (touching only the survivors) per buffer — a boolean gather
        # would rescan the full mask once per array.
        survivor_positions = np.flatnonzero(keep_mask)
        survivors = int(survivor_positions.shape[0])
        pruned = self._count - survivors
        if pruned:
            count = self._count
            if self._oids_buffer is None:
                self._oids_buffer = survivor_positions
            else:
                self._oids_buffer[:survivors] = self._oids_buffer[:count][survivor_positions]
            self._scores_buffer[:survivors] = self._scores_buffer[:count][survivor_positions]
            if self._partial_sums_buffer is not None:
                self._partial_sums_buffer[:survivors] = self._partial_sums_buffer[:count][
                    survivor_positions
                ]
            if self._remaining_sums_buffer is not None:
                self._remaining_sums_buffer[:survivors] = self._remaining_sums_buffer[:count][
                    survivor_positions
                ]
            self._count = survivors
        self._maybe_switch_mode()
        return pruned

    def _maybe_switch_mode(self) -> None:
        if (
            self._mode_policy == "auto"
            and self._current_mode is CandidateMode.BITMAP
            and self.selectivity() <= self._switch_selectivity
        ):
            # Materialising the candidate list costs one gather of the
            # surviving OIDs (charged as random accesses of OID-sized tuples).
            self._store.cost.charge_random_access(len(self), DOUBLE_BYTES)
            self._current_mode = CandidateMode.POSITIONAL
