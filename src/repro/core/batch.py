"""Batched multi-query BOND execution with shared fragment reads.

Serving heavy query traffic means many concurrent k-NN searches against the
same decomposed store.  Running them one by one re-reads the same dimension
fragments once per query; the batch engine instead advances *all* live
queries in lockstep rounds and, per round, gathers the **union** of every
query's next fragment block in a single storage call.  One sequential pass
over a column therefore serves the whole batch — the multi-query analogue of
the paper's "touch only the bytes that matter".

Each query nevertheless runs the exact single-query algorithm: its own
dimension order (decreasing *its* query values), its own pruning schedule,
candidate set, bounds and trace.  The per-query results are bitwise identical
to :meth:`~repro.core.bond.BondSearcher.search`; only the storage accounting
differs (shared reads are charged once instead of once per query).

The engine stays in shared-read mode while at least one query still scans
full fragments through a bitmap; once every live query has materialised its
(small) candidate list, full-column reads would be wasted and the engine
falls back to the per-query positional gathers of the single-query path.

:class:`CompressedBatchEngine` applies the same protocol to the compressed
filter-and-refine searcher: the shared reads are 1-byte code columns, and
per-query state is the interval partial scores of the filter instead of a
candidate set.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.bounds.base import PartialState
from repro.core.candidates import CandidateMode, CandidateSet
from repro.core.planner import PruningSchedule
from repro.core.result import PruningTrace, SearchResult
from repro.engine.cost import COMPRESSED_BYTES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (bond imports batch)
    from repro.core.bond import BondSearcher
    from repro.core.compressed import CompressedBondSearcher


@dataclass
class QueryRun:
    """The in-flight state of one query inside a batch."""

    index: int
    query: np.ndarray
    k: int
    order: np.ndarray
    #: The bound-facing state of this query, advanced at every checkpoint.
    state: PartialState
    schedule: PruningSchedule
    candidates: CandidateSet
    schedule_length: int
    trace: PruningTrace = field(default_factory=PruningTrace)
    processed: int = 0
    full_scan_dimensions: int = 0
    next_attempt: int = 0
    result: SearchResult | None = None

    @property
    def total_dimensions(self) -> int:
        """How many dimensions this query processes at most."""
        return int(self.order.shape[0])

    @property
    def finished(self) -> bool:
        """Whether the main scan loop is over for this query."""
        return (
            self.result is not None
            or self.processed >= self.total_dimensions
            or len(self.candidates) <= self.k
        )

    def next_block(self) -> np.ndarray:
        """The dimensions this query processes in the upcoming round.

        Mirrors the fused single-query engine: up to the next pruning attempt
        (at least one dimension), clipped to the remaining order.
        """
        block_end = min(max(self.next_attempt, self.processed + 1), self.total_dimensions)
        return self.order[self.processed:block_end]


class BatchQueryEngine:
    """Executes one batch of queries against a :class:`BondSearcher`."""

    def __init__(self, searcher: "BondSearcher", queries: np.ndarray, k: int) -> None:
        self._searcher = searcher
        self._store = searcher.store
        self._runs = [
            self._plan(index, query, k) for index, query in enumerate(queries)
        ]

    def _plan(self, index: int, query: np.ndarray, k: int) -> QueryRun:
        """Validate one query and set up its independent run state."""
        searcher = self._searcher
        query, k, weights, order, schedule_length = searcher._prepare(query, k)
        state = searcher._initial_state(query, order, weights)
        # Adaptive schedules carry per-search state, so every query gets its
        # own copy (the single-query path resets the shared one per search).
        # Schedules hold only scalar configuration, so a shallow copy suffices.
        schedule = copy.copy(searcher._schedule)
        run = QueryRun(
            index=index,
            query=query,
            k=k,
            order=order,
            state=state,
            schedule=schedule,
            candidates=searcher.make_candidates(),
            schedule_length=schedule_length,
        )
        run.trace.record(0, len(run.candidates))
        run.next_attempt = searcher._first_block(schedule, schedule_length, state)
        return run

    # -- driving ---------------------------------------------------------------

    def run(self) -> list[SearchResult]:
        """Drive every query to completion and return results in order."""
        live = [run for run in self._runs if not self._maybe_finalize(run)]
        while live:
            self._round(live)
            live = [run for run in live if not self._maybe_finalize(run)]
        return [run.result for run in self._runs]

    def _round(self, live: list[QueryRun]) -> None:
        """One execution round: every live query advances by one block."""
        # Shared reads apply to the queries that still stream full fragments
        # through a bitmap: the union of *their* requested columns passes
        # once and is charged once, no matter how many of them consume it
        # (physically, the first consumer pulls a fragment through the cache
        # and the others hit it warm).  Queries that have materialised their
        # candidate list read (and are charged for) only their own few
        # survivors, exactly like the single-query path.
        scanning = [
            (run, run.next_block())
            for run in live
            if run.candidates.mode is CandidateMode.BITMAP
        ]
        positional = [
            (run, run.next_block())
            for run in live
            if run.candidates.mode is not CandidateMode.BITMAP
        ]
        if scanning:
            union = np.unique(np.concatenate([block for _, block in scanning]))
            self._store.cost.charge_block_scan(
                self._store.cardinality, int(union.size), self._store.coefficient_bytes
            )
            self._scan_round(scanning)
        for run, block_dimensions in positional:
            self._advance(run, block_dimensions, charge_storage=True)

    def _scan_round(self, scanning: list[tuple[QueryRun, np.ndarray]]) -> None:
        """Advance the round's full-scanning queries (the shared read is
        already charged).  The tile-round engine overrides exactly this hook,
        so the round's classification and charging logic has a single copy."""
        for run, block_dimensions in scanning:
            self._advance(run, block_dimensions, charge_storage=False)

    def _advance(
        self, run: QueryRun, block_dimensions: np.ndarray, *, charge_storage: bool
    ) -> None:
        """Fold one block into a query's state and attempt its prune."""
        self._searcher._scan_block(
            run.candidates, run.query, block_dimensions, charge_storage=charge_storage
        )
        self._after_block(run, block_dimensions)

    def _after_block(self, run: QueryRun, block_dimensions: np.ndarray) -> None:
        """Post-scan bookkeeping of one block: counters and the prune attempt.

        Split out of :meth:`_advance` so the tile-round engine
        (:class:`repro.core.parallel.TiledBatchQueryEngine`) can interleave
        the scans of several queries tile by tile and still run exactly this
        checkpoint logic per query afterwards.
        """
        searcher = self._searcher
        if run.candidates.mode is CandidateMode.BITMAP:
            run.full_scan_dimensions += int(block_dimensions.shape[0])
        run.processed += int(block_dimensions.shape[0])

        if run.processed >= run.next_attempt or run.processed == run.total_dimensions:
            run.next_attempt = run.processed + searcher._prune_and_plan(
                run.state,
                run.processed,
                run.candidates,
                run.k,
                run.trace,
                run.schedule,
                run.schedule_length,
            )

    def _maybe_finalize(self, run: QueryRun) -> bool:
        """Complete a finished query's exact scores and build its result."""
        if run.result is not None:
            return True
        if not run.finished:
            return False
        searcher = self._searcher
        final_scores = searcher._finish_scores(run.query, run.order, run.processed, run.candidates)
        oids, scores = searcher._rank(run.candidates.oids, final_scores, run.k)
        run.result = SearchResult(
            oids=oids,
            scores=scores,
            dimensions_processed=run.processed,
            full_scan_dimensions=run.full_scan_dimensions,
            candidate_trace=run.trace,
        )
        return True

    @property
    def runs(self) -> list[QueryRun]:
        """The per-query run states (introspection / tests)."""
        return self._runs


@dataclass
class CompressedQueryRun:
    """The in-flight filter state of one query of a compressed batch.

    The compressed filter carries *interval* partial scores — a lower and an
    upper bound per surviving candidate — instead of a
    :class:`~repro.core.candidates.CandidateSet`, so it gets its own run
    record; the driving protocol (next_block / finished) mirrors
    :class:`QueryRun`.
    """

    index: int
    query: np.ndarray
    k: int
    order: np.ndarray
    weights: np.ndarray | None
    schedule: PruningSchedule
    oids: np.ndarray
    score_lower: np.ndarray
    score_upper: np.ndarray
    #: Early-out mask over all dimensions: True where the interval
    #: contribution is provably zero for every candidate (None when no
    #: dimension qualifies), see :func:`repro.kernels.interval.provably_zero_dimensions`.
    zero_dimensions: np.ndarray | None = None
    trace: PruningTrace = field(default_factory=PruningTrace)
    processed: int = 0
    full_scan_dimensions: int = 0
    next_attempt: int = 0
    result: SearchResult | None = None

    @property
    def total_dimensions(self) -> int:
        """How many dimensions this query processes at most."""
        return int(self.order.shape[0])

    @property
    def finished(self) -> bool:
        """Whether the filter loop is over for this query."""
        return (
            self.result is not None
            or self.processed >= self.total_dimensions
            or self.oids.shape[0] <= self.k
        )

    def next_block(self) -> np.ndarray:
        """The dimensions this query processes in the upcoming round.

        Mirrors the fused single-query engine: up to the next pruning attempt
        (at least one dimension), clipped to the remaining order.
        """
        block_end = min(max(self.next_attempt, self.processed + 1), self.total_dimensions)
        return self.order[self.processed:block_end]


class CompressedBatchEngine:
    """Executes one batch of queries against a :class:`CompressedBondSearcher`.

    The same round-lockstep protocol as :class:`BatchQueryEngine`, applied to
    the filter-and-refine searcher: per round, the union of every
    full-scanning query's next fragment block is charged once as a single
    compressed block scan (physically, the first consumer pulls the 1-byte
    code column through the cache and the others hit it warm).  Queries whose
    candidate list has shrunk below the positional threshold fetch — and are
    charged for — only their own candidates' codes, exactly like the
    single-query path.
    """

    def __init__(
        self, searcher: "CompressedBondSearcher", queries: np.ndarray, k: int
    ) -> None:
        self._searcher = searcher
        self._store = searcher.store
        self._runs = [
            searcher._plan(index, query, k) for index, query in enumerate(queries)
        ]

    def run(self) -> list[SearchResult]:
        """Drive every query through filter and refinement, in order."""
        searcher = self._searcher
        live = [run for run in self._runs if not searcher._finalize(run)]
        while live:
            self._round(live)
            live = [run for run in live if not searcher._finalize(run)]
        return [run.result for run in self._runs]

    def _round(self, live: list[CompressedQueryRun]) -> None:
        """One execution round: every live query advances by one block."""
        searcher = self._searcher
        scanning = [
            (run, run.next_block()) for run in live if not searcher._is_positional(run)
        ]
        positional = [
            (run, run.next_block()) for run in live if searcher._is_positional(run)
        ]
        if scanning:
            self._charge_shared_read(scanning)
            self._scan_round(scanning)
        for run, block_dimensions in positional:
            searcher._advance(run, block_dimensions, charge_storage=True)

    def _scan_round(self, scanning: list[tuple[CompressedQueryRun, np.ndarray]]) -> None:
        """Advance the round's full-scanning queries (the shared read is
        already charged).  The tile-round engine overrides exactly this hook,
        so the round's classification and charging logic has a single copy."""
        for run, block_dimensions in scanning:
            self._searcher._advance(run, block_dimensions, charge_storage=False)

    def _charge_shared_read(
        self, scanning: list[tuple[CompressedQueryRun, np.ndarray]]
    ) -> None:
        """Charge one shared read of the round's fragment union.

        Only the dimensions at least one query actually consumes count: the
        query-side early-out (see
        :func:`repro.kernels.interval.provably_zero_dimensions`) removes
        provably-zero dimensions from each query's block before it reaches a
        kernel, so they cost nothing here either — the same accounting the
        single-query path applies.
        """
        searcher = self._searcher
        active_blocks = [
            searcher._active_block(run, block) for run, block in scanning
        ]
        active_blocks = [block for block in active_blocks if block.size]
        if not active_blocks:
            return
        union = np.unique(np.concatenate(active_blocks))
        self._store.cost.charge_block_scan(
            self._store.cardinality, int(union.size), COMPRESSED_BYTES
        )

    @property
    def runs(self) -> list[CompressedQueryRun]:
        """The per-query run states (introspection / tests)."""
        return self._runs
