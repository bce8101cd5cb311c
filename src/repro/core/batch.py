"""The BOND round driver: one loop for every search, single or batched.

Algorithm 2 is one loop — scan a block of fragments, bound, prune, repeat —
and :func:`drive` is its only implementation: both searchers, exact and
compressed, have this one engine.  It advances a list of *runs*
(the in-flight state of one query each) in lockstep rounds against the small
protocol the two searchers implement:

``_streamed_dimensions(run, block)``
    the dimensions of ``block`` this run reads at full fragment height in the
    upcoming round, or ``None`` once it gathers only its own survivors;
``_scan_block(run, block, charge_storage=...)``
    fold one block of fragments into the run's partial scores;
``_checkpoint(run)``
    bound, prune, record the trace point and plan the next block;
``_finish(run)``
    the survivors' exact ``(oids, scores)``, best first.

An exact run may carry tombstones (``exclude``: rows deleted since the store
was built).  They ride the full-height scan like any row — the zero-copy column
stream is untouched — take the worst bound at the run's first prune, so they
can never set the pruning threshold, and leave with it; a run that never
prunes drops them in ``_finish``.

:meth:`BondSearcher.search <repro.core.bond.BondSearcher.search>` drives one
run, ``search_batch`` many — a single query is a batch of one, through the
same code and at the same accounted cost.

Shared fragment reads
---------------------
Serving heavy query traffic means many concurrent k-NN searches against the
same decomposed store.  Running them one by one re-reads the same dimension
fragments once per query; per round the driver instead charges the **union**
of the blocks the streaming runs are about to read as a single block scan —
physically, the first consumer pulls a fragment through the cache and the
others hit it warm — the multi-query analogue of the paper's "touch only the
bytes that matter".  A run that has materialised its (small) candidate list
reads, and is charged for, only its own survivors.

Each query nevertheless runs the exact single-query algorithm: its own
dimension order (decreasing *its* query values), its own pruning schedule,
candidate state, bounds and trace, so per-query results do not depend on what
else is in the batch.  :class:`CompressedQueryRun` carries the same protocol
for the compressed filter-and-refine searcher: the shared reads are 1-byte
code columns, and the per-query state is the interval partial scores of the
filter instead of a candidate set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.bounds.base import PartialState
from repro.core.candidates import CandidateSet
from repro.core.planner import PruningSchedule
from repro.core.result import PruningTrace, SearchResult


@dataclass(slots=True)
class QueryRun:
    """The in-flight state of one exact BOND query."""

    query: np.ndarray
    k: int
    order: np.ndarray
    #: The bound-facing state of this query, advanced at every checkpoint.
    state: PartialState
    schedule: PruningSchedule
    candidates: CandidateSet
    schedule_length: int
    trace: PruningTrace
    processed: int = 0
    full_scan_dimensions: int = 0
    next_attempt: int = 0
    #: OIDs of the excluded rows (tombstones), dropped by the run's first
    #: prune (until then a candidate's position is its OID) — or by
    #: ``_finish`` if it never prunes; ``None`` after.
    exclude: np.ndarray | None = None
    result: SearchResult | None = None

    @property
    def alive(self) -> int:
        """How many candidates survive."""
        return len(self.candidates)


@dataclass(slots=True)
class CompressedQueryRun:
    """The in-flight filter state of one compressed BOND query.

    The compressed filter carries *interval* partial scores — a lower and an
    upper bound per surviving candidate — instead of a
    :class:`~repro.core.candidates.CandidateSet`, so it gets its own run
    record; the fields the driver reads mirror :class:`QueryRun`.

    ``oids`` and ``scores`` stay ``None`` until the run first needs them:
    every row survives until the first prune, and until then the run's
    scores live in its searcher's one full-height accumulator.  The driver
    scans and prunes each run before the next one scans, so the runs of a
    batch take turns with it.
    """

    query: np.ndarray
    k: int
    order: np.ndarray
    weights: np.ndarray | None
    schedule: PruningSchedule
    #: Collection size: the candidate count until the first prune.
    cardinality: int
    #: Early-out mask over all dimensions: True where the interval
    #: contribution is provably zero for every candidate (None when no
    #: dimension qualifies), see :func:`repro.kernels.interval.provably_zero_dimensions`.
    zero_dimensions: np.ndarray | None
    trace: PruningTrace
    #: Surviving OIDs, ascending; ``None`` while every row survives.
    oids: np.ndarray | None = None
    #: Interval partial scores of the survivors, interleaved as
    #: ``complex128`` (real = lower, imag = upper); ``None`` before the first scan.
    scores: np.ndarray | None = None
    processed: int = 0
    full_scan_dimensions: int = 0
    next_attempt: int = 0
    result: SearchResult | None = None

    @property
    def alive(self) -> int:
        """How many candidates survive."""
        return self.cardinality if self.oids is None else int(self.oids.shape[0])


def drive(searcher, runs: Sequence[QueryRun] | Sequence[CompressedQueryRun]) -> None:
    """Advance every run to its :class:`SearchResult` (left in ``run.result``)."""
    store = searcher.store
    live = _retire_finished(searcher, runs)
    while live:
        round_blocks = []
        # The runs that still stream whole fragments share one read of the
        # union of their blocks, charged once however many of them consume it.
        union = None
        for run in live:
            # Up to the run's next pruning attempt (a live run's is ahead of
            # it), clipped to its remaining order: every block ends at a
            # checkpoint.
            block = run.order[run.processed:run.next_attempt]
            streamed = searcher._streamed_dimensions(run, block)
            if streamed is not None:
                if union is None:
                    union = np.zeros(store.dimensionality, dtype=bool)
                union[streamed] = True
            round_blocks.append((run, block, streamed))
        if union is not None:
            store.cost.charge_block_scan(
                store.cardinality, int(np.count_nonzero(union)), store.coefficient_bytes
            )
        for run, block, streamed in round_blocks:
            searcher._scan_block(run, block, charge_storage=streamed is None)
            run.processed += int(block.shape[0])
            if streamed is not None:
                run.full_scan_dimensions += int(streamed.shape[0])
            searcher._checkpoint(run)
        live = _retire_finished(searcher, live)


def _retire_finished(searcher, runs: Sequence) -> list:
    """Build the result of every run whose scan is over; return the rest.

    A scan is over when the candidate set is no larger than k, the
    dimensions are exhausted, or the schedule ended it (a next attempt of 0
    dimensions, see :meth:`~repro.core.planner.PruningSchedule.next_batch`);
    the survivors' exact scores are then completed only survivors wide.
    """
    live = []
    for run in runs:
        if (
            run.processed < run.order.shape[0]
            and run.alive > run.k
            and run.next_attempt > run.processed
        ):
            live.append(run)
            continue
        oids, scores = searcher._finish(run)
        run.result = SearchResult(
            oids=oids,
            scores=scores,
            dimensions_processed=run.processed,
            full_scan_dimensions=run.full_scan_dimensions,
            candidate_trace=run.trace,
        )
    return live
