"""BOND over 8-bit approximated fragments (Section 7.4, Figure 9, Table 4).

The approximation idea of the VA-file composes with BOND: run the
branch-and-bound filter on small (1 byte per coefficient) quantised fragments
and refine the surviving candidates on the exact vectors.  Because every
quantised value comes with a per-cell error interval, the filter accumulates
*interval* partial scores — a lower and an upper bound per candidate — and
prunes with the query-only bounds (Hq for histogram intersection, the
farthest-corner bound for Euclidean distance), so no true top-k member can
ever be discarded.

The refinement step fetches the exact vectors of the survivors from the
underlying :class:`~repro.storage.decomposed.DecomposedStore` and computes
their exact scores; its cost is proportional to the number of candidates the
filter left over, which is what Table 4 reports ("filter step" versus
"refinement step").

Execution
---------
One pruning period at a time: the period's m code columns arrive in a single
:meth:`~repro.storage.compressed.CompressedStore.code_columns` call and one
interval kernel from :mod:`repro.kernels.interval` builds the period's
per-code contribution tables and folds every column in by lookup — the same
(lower, upper) floats as folding one dequantised column at a time, the
per-dimension reference kept with the tests (``tests/oracle.py``).
:meth:`CompressedBondSearcher.search` drives a single run through the one
round driver of :mod:`repro.core.batch`,
:meth:`CompressedBondSearcher.search_batch` a whole batch of them, sharing
each compressed fragment read across every live query.

Pruning schedule
----------------
The default is :class:`~repro.core.planner.HandOffSchedule`: full-height
blocks of 4 columns, half the paper's m = 8, until a prune leaves the
candidate set positional (at most 5 % of the rows), one more block of 4
over the survivors' codes, and there the filter stops — the schedule
returns 0 and the survivors go straight to the refinement.  The survivor
curve of Figure 9 is flat past that first big prune, so further code rounds
would cost survivors x dimensions lookups each to shrink the refine set only
slowly, and every full-height column costs a lookup per row.  On the
59,619 x 166 benchmark collection (2-vCPU x86-64 box, seed 7) 927 of
1,024 queries trace ``[0, 4, 8]``, and a query refines ~534 rows, against
8 full-height columns and ~550 rows under the previous m = 8 hand-off;
together with the reused accumulator and the cheaper first prune below, a
batch of 32 takes ~43 ms instead of ~60.  The refinement scores every
survivor exactly, and no schedule ever drops a true top-k member, so the
answers do not depend on the schedule; only how many candidates reach the
refinement (``refine_rows``) and the accounted cost do.  ``fig9`` and ``tab4`` pin
``FixedPeriodSchedule(8)`` to keep the paper's full-depth filter.

The first prune and the refinement
----------------------------------
The first prune's threshold κ is the k-th best lower bound of the whole
collection.  :func:`kth_largest` (and its distance twin
:func:`kth_smallest`) takes the k-th best of a stride-:data:`SAMPLE_STRIDE`
sample first, which bounds κ, and partitions only the bounds past it — a
few hundred instead of every row — for the same κ bit for bit.  The
refinement scores the survivors' gathered exact rows with
:meth:`~repro.metrics.base.Metric.score_in_place` (the gathered copy is the
refinement's own) and ranks them with ``best_first``.
"""

from __future__ import annotations

import copy
import threading
import time

import numpy as np

from repro.core.batch import CompressedQueryRun, drive
from repro.core.candidates import SWITCH_SELECTIVITY
from repro.core.ordering import DecreasingQueryOrdering, DimensionOrdering
from repro.core.planner import HandOffSchedule, PruningSchedule
from repro.core.result import BatchSearchResult, PruningTrace, SearchResult
from repro.errors import QueryError
from repro.kernels.interval import (
    IntervalBlockKernel,
    IntervalWorkspace,
    contribution_interval,  # noqa: F401  (re-exported for importers of this module)
    interval_kernel_for,
    provably_zero_dimensions,
)
from repro.metrics.base import Metric
from repro.metrics.histogram import HistogramIntersection
from repro.metrics.weighted import WeightedSquaredEuclidean
from repro.storage.compressed import CompressedStore


class CompressedBondSearcher:
    """Branch-and-bound filter over quantised fragments plus exact refinement.

    Parameters
    ----------
    store:
        The compressed store (quantised fragments plus the exact store used
        for refinement).
    metric:
        Similarity or distance metric.  Defaults to histogram intersection.
    ordering:
        Dimension-ordering strategy (default: decreasing query value).
    schedule:
        Pruning-period schedule.  Default: hand-off — full-height blocks of
        4 up to the first prune that leaves the candidate set positional,
        one block of 4 over the survivors, then straight to the refinement
        (see the module docstring).  Answers are identical under every
        schedule; the survivor count handed to the refinement differs.

    Notes
    -----
    A searcher owns a reusable kernel workspace and one full-height
    accumulator, so it serialises its own ``search`` / ``search_batch``
    calls with a lock: threads sharing one instance take turns.  For
    parallel searches create one searcher per thread (they can share the
    store).
    """

    def __init__(
        self,
        store: CompressedStore,
        *,
        metric: Metric | None = None,
        ordering: DimensionOrdering | None = None,
        schedule: PruningSchedule | None = None,
    ) -> None:
        self._store = store
        self._metric = metric if metric is not None else HistogramIntersection()
        self._ordering = ordering if ordering is not None else DecreasingQueryOrdering()
        self._schedule = schedule if schedule is not None else HandOffSchedule()
        self._interval_kernel = interval_kernel_for(self._metric)
        self._workspace = IntervalWorkspace()
        # Scratch reused by every run, allocated on first use: the full-height
        # accumulator of the run being scanned (see _scores) and
        # the bounds and keep mask of a prune (see _prune_mask).
        self._accumulator: np.ndarray | None = None
        self._bounds = np.empty(0, dtype=np.float64)
        self._keep = np.empty(0, dtype=bool)
        # Serialises search / search_batch: the scratch above is per instance.
        self._lock = threading.Lock()
        # Once the candidate set has shrunk to this many rows the filter
        # fetches only the candidates' codes instead of whole fragments.
        self._positional_threshold = SWITCH_SELECTIVITY * self._store.cardinality

    @property
    def store(self) -> CompressedStore:
        """The compressed store the filter runs on."""
        return self._store

    @property
    def metric(self) -> Metric:
        """The similarity / distance metric in use."""
        return self._metric

    @property
    def interval_kernel(self) -> IntervalBlockKernel:
        """The fused interval kernel matching the metric."""
        return self._interval_kernel

    def search(self, query: np.ndarray, k: int, *, trace: PruningTrace | None = None) -> SearchResult:
        """Return the exact k nearest neighbours via filter-and-refine."""
        started = time.perf_counter()
        with self._lock:
            run = self._plan(query, k, trace)
            cost = self._store.cost
            checkpoint = cost.checkpoint()
            drive(self, [run])
            result = run.result
            result.cost = cost.since(checkpoint)
        result.elapsed_seconds = time.perf_counter() - started
        return result

    def search_batch(self, queries: np.ndarray, k: int) -> BatchSearchResult:
        """Answer a whole batch of queries, sharing compressed fragment reads.

        Every query runs the exact single-query filter — its own dimension
        order, pruning schedule, candidate list and interval scores — so each
        returned :class:`~repro.core.result.SearchResult` is bitwise identical
        to what :meth:`search` would return for that query.  Per execution
        round, the union of all full-scanning queries' next fragment blocks is
        read (and charged) once for the whole batch; queries that have shrunk
        below the positional threshold fetch only their own candidates' codes
        (see :mod:`repro.core.batch`).

        Parameters
        ----------
        queries:
            ``(batch, N)`` matrix of query vectors (a single 1-D query is
            accepted and treated as a batch of one).
        k:
            Number of neighbours per query; clamped to the collection size.

        Returns
        -------
        A :class:`~repro.core.result.BatchSearchResult` with one result per
        query in submission order; cost and wall-clock time are accounted at
        batch level because fragment reads are shared.
        """
        started = time.perf_counter()
        query_matrix = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if query_matrix.ndim != 2:
            raise QueryError(f"queries must form a 2-D matrix, got shape {query_matrix.shape}")
        with self._lock:
            runs = [self._plan(query, k) for query in query_matrix]
            cost = self._store.cost
            checkpoint = cost.checkpoint()
            drive(self, runs)
            account = cost.since(checkpoint)
        return BatchSearchResult(
            results=[run.result for run in runs],
            cost=account,
            elapsed_seconds=time.perf_counter() - started,
        )

    # -- per-query planning --------------------------------------------------------

    def _plan(
        self, query: np.ndarray, k: int, trace: PruningTrace | None = None
    ) -> CompressedQueryRun:
        """Validate one query and set up its independent filter state."""
        query = self._metric.validate_query(query)
        if query.shape[0] != self._store.dimensionality:
            raise QueryError("query dimensionality does not match the store")
        if k <= 0:
            raise QueryError("k must be at least 1")
        k = min(k, self._store.cardinality)

        weights = self._metric.weights if isinstance(self._metric, WeightedSquaredEuclidean) else None
        order = self._ordering.order(query, weights=weights)
        if weights is not None:
            order = order[weights[order] > 0.0]

        # Query-side early-out: dimensions whose interval contribution is
        # provably zero for every candidate add 0.0 to both accumulators, so
        # the filter skips their fetch and math entirely (results unchanged).
        zero_mask = provably_zero_dimensions(
            self._metric,
            self._store.minimums,
            self._store.maximums,
            self._store.cell_widths,
            query,
        )
        # Adaptive schedules carry per-search state, so every run gets its
        # own (shallow — schedules hold only scalar configuration) copy.
        schedule = copy.copy(self._schedule)
        run = CompressedQueryRun(
            query=query,
            k=k,
            order=order,
            weights=weights,
            schedule=schedule,
            cardinality=self._store.cardinality,
            zero_dimensions=zero_mask if bool(zero_mask.any()) else None,
            trace=trace if trace is not None else PruningTrace(),
        )
        run.trace.record(0, run.alive)
        run.next_attempt = schedule.first_batch(int(order.shape[0]))
        return run

    # -- the run protocol of :func:`repro.core.batch.drive` ---------------------------

    def _is_positional(self, run: CompressedQueryRun) -> bool:
        """Whether a run fetches candidate codes instead of whole fragments."""
        return run.alive <= self._positional_threshold

    def _active_block(
        self, run: CompressedQueryRun, block_dimensions: np.ndarray
    ) -> np.ndarray:
        """The block's dimensions minus the run's provably-zero ones.

        Skipped dimensions still count as *processed* (they sit in the
        dimension order and the pruning bounds treat them as consumed), but
        they are never fetched, dequantised, accumulated or charged — their
        contribution is exactly 0.0 for every candidate, so the accumulated
        floats are unchanged.
        """
        if run.zero_dimensions is None:
            return block_dimensions
        return block_dimensions[~run.zero_dimensions[block_dimensions]]

    def _streamed_dimensions(
        self, run: CompressedQueryRun, block_dimensions: np.ndarray
    ) -> np.ndarray | None:
        """The code columns the run streams in full this round.

        Only the dimensions the run actually consumes count: the query-side
        early-out removes provably-zero dimensions from its block before they
        reach a kernel, so they cost nothing in the round's shared read
        either.
        """
        if self._is_positional(run):
            return None
        return self._active_block(run, block_dimensions)

    def _scores(self, run: CompressedQueryRun) -> np.ndarray:
        """The run's interleaved accumulator; one that has streamed nothing
        yet gets the searcher's one full-height ``complex128`` accumulator,
        zeroed.

        A run scans into it until its first prune, which moves the survivors'
        scores out (see :meth:`_checkpoint`); the driver scans and prunes each
        run before the next one scans, so the runs of a batch take turns.
        """
        if run.scores is None:
            if self._accumulator is None:
                self._accumulator = np.empty(self._store.cardinality, dtype=np.complex128)
            run.scores = self._accumulator
            run.scores.fill(0.0)
        return run.scores

    def _scan_block(
        self,
        run: CompressedQueryRun,
        block_dimensions: np.ndarray,
        *,
        charge_storage: bool,
    ) -> None:
        """Fold one pruning period into a run's interval scores with one
        kernel call.

        Accumulates the (lower, upper) contributions of the block's columns
        left to right, the floats of folding one dequantised column at a
        time, at one storage call and one kernel call per period.
        ``charge_storage`` is True for a
        positional run, which pays for its own candidates' codes; the driver
        charges the round's shared read for the others.
        """
        store = self._store
        count = run.alive
        active = self._active_block(run, block_dimensions)
        if not active.size:
            return
        kernel = self._interval_kernel
        grids = (store.minimums[active], store.cell_widths[active], run.query[active], active)
        scores = self._scores(run)
        if run.oids is None:
            # Full-collection phase: stream the whole code columns in place,
            # no gather needed.
            kernel.accumulate_block(
                store.code_columns(active, charge=charge_storage),
                *grids,
                scores,
                None,
                self._workspace,
                levels=1 << store.bits,
            )
        else:
            # Restricted phase: gather the candidates' codes (1 byte each)
            # into one row block and look the whole pruning period up at once.
            code_rows = store.code_row_block(
                active, run.oids, charge="positional" if charge_storage else None
            )
            kernel.accumulate_row_block(
                code_rows, *grids, scores, None, self._workspace, levels=1 << store.bits
            )
        store.cost.charge_arithmetic(
            2 * count * int(active.shape[0]) * self._metric.arithmetic_ops_per_value()
        )

    def _checkpoint(self, run: CompressedQueryRun) -> None:
        """One pruning checkpoint: drop hopeless candidates, record the trace
        point and plan the next attempt."""
        before = run.alive
        scores = self._scores(run)
        keep = self._prune_mask(
            run.query, run.order, run.processed, scores.real, scores.imag, run.k, run.weights
        )
        if not keep.all():
            rows = np.flatnonzero(keep)
            run.oids = rows if run.oids is None else run.oids[rows]
            run.scores = scores.take(rows)
        elif scores is self._accumulator:
            # The shared accumulator is the next run's to scan into.
            run.scores = scores.copy()
        run.trace.record(run.processed, run.alive)
        run.next_attempt = run.processed + run.schedule.next_batch(
            dimensionality=int(run.order.shape[0]),
            dimensions_processed=run.processed,
            candidates_before=before,
            candidates_after=run.alive,
            positional=self._is_positional(run),
        )

    def _finish(self, run: CompressedQueryRun) -> tuple[np.ndarray, np.ndarray]:
        """The refinement step: exact scores of the filter survivors from the
        exact store, best k first."""
        run.scores = None  # the filter's bounds are spent; a batch frees them run by run
        oids = run.oids if run.oids is not None else np.arange(run.cardinality, dtype=np.int64)
        if oids.shape[0] == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        exact = self._store.exact
        vectors = exact.gather_matrix(oids)
        scores = self._metric.score_in_place(vectors, run.query)
        exact.cost.charge_arithmetic(vectors.size * self._metric.arithmetic_ops_per_value())
        best = self._metric.best_first(scores)[: run.k]
        return oids[best], scores[best]

    # -- internals --------------------------------------------------------------

    def _prune_mask(
        self,
        query: np.ndarray,
        order: np.ndarray,
        processed: int,
        score_lower: np.ndarray,
        score_upper: np.ndarray,
        k: int,
        weights: np.ndarray | None,
    ) -> np.ndarray:
        """Query-only pruning over interval partial scores."""
        cost = self._store.cost
        count = score_lower.shape[0]
        if count <= k:
            return np.ones(count, dtype=bool)
        remaining = order[processed:]
        remaining_query = query[remaining]
        cost.charge_heap(count)
        cost.charge_comparisons(count)
        if self._keep.shape[0] < count:
            self._bounds = np.empty(count, dtype=np.float64)
            self._keep = np.empty(count, dtype=bool)
        bounds, keep = self._bounds[:count], self._keep[:count]

        # The test direction follows the accumulated contributions, not the
        # metric kind (EuclideanSimilarity accumulates distance-valued
        # intervals and applies its similarity transform only at refinement).
        if not self._metric.contributions_are_distances:
            remaining_mass = float(remaining_query.sum())
            # guaranteed: score_lower (the remaining dimensions contribute at
            # least 0); optimistic: at most T(q+) more.
            optimistic = np.add(score_upper, remaining_mass, out=bounds)
            kappa = kth_largest(score_lower, k)
            return np.greater_equal(optimistic, kappa, out=keep)
        # Worst case of each remaining dimension: the farthest corner of the
        # dimension's *stored value range* [minimum, maximum].  Hard-coding
        # the unit-hypercube corner max(q, 1-q)^2 here would under-estimate
        # the worst case on data outside [0, 1] and could prune true top-k
        # members (false dismissals).
        remaining_minimums = self._store.minimums[remaining]
        remaining_maximums = self._store.maximums[remaining]
        edge = np.maximum(remaining_query - remaining_minimums, remaining_maximums - remaining_query)
        if weights is None:
            corner = float(np.sum(edge * edge))
        else:
            corner = float(np.sum(weights[remaining] * (edge * edge)))
        # guaranteed: the candidate's worst case; optimistic: score_lower
        # (the remaining dimensions contribute 0).
        guaranteed = np.add(score_upper, corner, out=bounds)
        kappa = kth_smallest(guaranteed, k)
        return np.less_equal(score_lower, kappa, out=keep)


# -- selection -------------------------------------------------------------------

#: Stride of the sample that seeds a threshold selection: its k-th best value
#: bounds the full set's, so only the values past it need a partition.
SAMPLE_STRIDE = 64


def kth_largest(values: np.ndarray, k: int) -> float:
    """``np.partition(values, n - k)[n - k]``, bitwise, for finite values.

    The k-th largest of a stride-:data:`SAMPLE_STRIDE` sample is at most the
    k-th largest of all, so only the values at or above it — a few hundred
    where a prune collapses the set — are partitioned.  Equal non-zero floats
    share their bits; a zero is selected from the full set, since which
    signed zero a partition puts at a rank depends on its input.
    """
    n = values.shape[0]
    if n >= SAMPLE_STRIDE * k:
        sample = values[::SAMPLE_STRIDE]
        floor = np.partition(sample, sample.shape[0] - k)[sample.shape[0] - k]
        pool = values[values >= floor]
        kappa = np.partition(pool, pool.shape[0] - k)[pool.shape[0] - k]
        if kappa != 0.0:
            return float(kappa)
    return float(np.partition(values, n - k)[n - k])


def kth_smallest(values: np.ndarray, k: int) -> float:
    """``np.partition(values, k - 1)[k - 1]``, bitwise, for finite values
    (the distance twin of :func:`kth_largest`)."""
    n = values.shape[0]
    if n >= SAMPLE_STRIDE * k:
        sample = values[::SAMPLE_STRIDE]
        ceiling = np.partition(sample, k - 1)[k - 1]
        pool = values[values <= ceiling]
        kappa = np.partition(pool, k - 1)[k - 1]
        if kappa != 0.0:
            return float(kappa)
    return float(np.partition(values, k - 1)[k - 1])

