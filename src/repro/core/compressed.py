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

Execution engines
-----------------
Like :class:`~repro.core.bond.BondSearcher`, the compressed searcher offers
two engines with bit-for-bit identical results:

* ``"fused"`` (default) processes one pruning period at a time: the period's
  m code columns arrive in a single :meth:`~repro.storage.compressed.CompressedStore.code_columns`
  call and one interval kernel from :mod:`repro.kernels.interval` builds the
  period's per-code contribution tables and folds every column in by lookup;
* ``"loop"`` is the seed per-dimension path, kept as the reference
  implementation and benchmark baseline.

Both fused entry points run through the one round driver of
:mod:`repro.core.batch`: :meth:`CompressedBondSearcher.search` drives a single
run, :meth:`CompressedBondSearcher.search_batch` a whole batch of them,
sharing each compressed fragment read across every live query.

Pruning schedule
----------------
The default is :class:`~repro.core.planner.HandOffSchedule`: full-height
blocks of the paper's m = 8 until a prune leaves the candidate set
positional (at most 5 % of the rows), and there the filter stops — the
schedule returns 0 and the survivors go straight to the refinement.  The
survivor curve of Figure 9 is flat past that first big prune, so further
code rounds would cost survivors x dimensions lookups each to shrink the
refine set only slowly.  On the 59,619 x 166 benchmark collection (2-vCPU
x86-64 box) the hand-off refines ~550 rows per query instead of ~223, in one
filter round instead of the six of a doubling schedule, and a batch of 32
takes about half the time.  The refinement scores every survivor exactly,
and no schedule ever drops a true top-k member, so the answers do not
depend on the schedule; only how many candidates reach the refinement
(``refine_rows``) and the accounted cost do.  ``fig9`` and ``tab4`` pin
``FixedPeriodSchedule(8)`` to keep the paper's full-depth filter.
"""

from __future__ import annotations

import copy
import time

import numpy as np

from repro.core.batch import CompressedQueryRun, drive
from repro.core.ordering import DecreasingQueryOrdering, DimensionOrdering
from repro.core.planner import HandOffSchedule, PruningSchedule
from repro.core.result import BatchSearchResult, PruningTrace, SearchResult
from repro.errors import QueryError
from repro.kernels.interval import (
    IntervalBlockKernel,
    IntervalWorkspace,
    contribution_interval,
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
        Pruning-period schedule.  Default: hand-off — the paper's m = 8 up
        to the first prune that leaves the candidate set positional, then
        straight to the refinement (see the module docstring).  Answers are
        identical under every schedule; the survivor count handed to the
        refinement differs.
    engine:
        ``"fused"`` (default) runs the interval block kernels; ``"loop"`` runs
        the original per-dimension reference path.  Both return bitwise
        identical results at identical accounted cost.

    Notes
    -----
    A searcher owns a reusable kernel workspace, so one instance must not run
    concurrent searches from multiple threads; create one searcher per thread
    (they can share the store).
    """

    def __init__(
        self,
        store: CompressedStore,
        *,
        metric: Metric | None = None,
        ordering: DimensionOrdering | None = None,
        schedule: PruningSchedule | None = None,
        engine: str = "fused",
    ) -> None:
        if engine not in ("fused", "loop"):
            raise QueryError("engine must be 'fused' or 'loop'")
        self._store = store
        self._metric = metric if metric is not None else HistogramIntersection()
        self._ordering = ordering if ordering is not None else DecreasingQueryOrdering()
        self._schedule = schedule if schedule is not None else HandOffSchedule()
        self._engine = engine
        self._interval_kernel = interval_kernel_for(self._metric)
        self._workspace = IntervalWorkspace()
        # Once the candidate set has shrunk below this fraction the filter
        # fetches only the candidates' codes instead of whole fragments.
        self._positional_threshold = 0.05 * self._store.cardinality

    @property
    def store(self) -> CompressedStore:
        """The compressed store the filter runs on."""
        return self._store

    @property
    def metric(self) -> Metric:
        """The similarity / distance metric in use."""
        return self._metric

    @property
    def engine(self) -> str:
        """The execution engine in use (``"fused"`` or ``"loop"``)."""
        return self._engine

    @property
    def interval_kernel(self) -> IntervalBlockKernel:
        """The fused interval kernel matching the metric."""
        return self._interval_kernel

    def search(self, query: np.ndarray, k: int, *, trace: PruningTrace | None = None) -> SearchResult:
        """Return the exact k nearest neighbours via filter-and-refine."""
        started = time.perf_counter()
        run = self._plan(query, k, trace)
        cost = self._store.cost
        checkpoint = cost.checkpoint()
        if self._engine == "loop":
            self._run_loop(run)  # leaves the run finished: the driver only completes it
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
        to what :meth:`search` would return for that query.  Batch rounds
        always execute through the fused interval kernels regardless of the
        ``engine`` setting (the per-dimension loop exists as a single-query
        reference; its batched timing would not describe any real engine).  Per execution
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
        runs = [self._plan(query, k) for query in query_matrix]
        cost = self._store.cost
        checkpoint = cost.checkpoint()
        drive(self, runs)
        return BatchSearchResult(
            results=[run.result for run in runs],
            cost=cost.since(checkpoint),
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
        # the engines skip their fetch and math entirely (results unchanged).
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
        """The run's interleaved accumulator, allocated at full height on
        first use."""
        if run.scores is None:
            run.scores = np.zeros(run.cardinality, dtype=np.complex128)
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

        Processes the same dimensions and accumulates the same (lower, upper)
        contributions in the same left-to-right order as the per-dimension
        reference loop, so results and accounted cost are bitwise identical —
        each period just costs one storage call and one kernel call instead
        of m Python-level round trips.  ``charge_storage`` is True for a
        positional run, which pays for its own candidates' codes; the driver
        charges the round's shared read for the others.
        """
        store = self._store
        count = run.alive
        active = self._active_block(run, block_dimensions)
        if not active.size:
            return
        scores = self._scores(run)
        if run.oids is None:
            # Full-collection phase: stream the whole code columns in place,
            # no gather needed.
            self._interval_kernel.accumulate_block(
                store.code_columns(active, charge=charge_storage),
                store.minimums[active],
                store.cell_widths[active],
                run.query[active],
                active,
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
            self._interval_kernel.accumulate_row_block(
                code_rows,
                store.minimums[active],
                store.cell_widths[active],
                run.query[active],
                active,
                scores,
                None,
                self._workspace,
                levels=1 << store.bits,
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
            run.oids = np.flatnonzero(keep) if run.oids is None else run.oids[keep]
            run.scores = scores[keep]
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
        oids = run.oids if run.oids is not None else np.arange(run.cardinality, dtype=np.int64)
        if oids.shape[0] == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        exact = self._store.exact
        vectors = exact.gather_matrix(oids)
        scores = self._metric.score(vectors, run.query)
        exact.cost.charge_arithmetic(vectors.size * self._metric.arithmetic_ops_per_value())
        best = self._metric.best_first(scores)[: run.k]
        return oids[best], scores[best]

    # -- the reference engine ------------------------------------------------------

    def _run_loop(self, run: CompressedQueryRun) -> None:
        """The seed per-dimension reference engine."""
        cost = self._store.cost
        total_dimensions = int(run.order.shape[0])
        while (
            run.processed < total_dimensions
            and run.alive > run.k
            and run.next_attempt > run.processed
        ):
            dimension = int(run.order[run.processed])
            if run.zero_dimensions is not None and run.zero_dimensions[dimension]:
                # Query-side early-out: the contribution is provably 0.0 for
                # every candidate — consume the dimension without touching it
                # (same skip, same accounting as the fused engine).
                run.processed += 1
                if run.processed >= run.next_attempt or run.processed == total_dimensions:
                    self._checkpoint(run)
                continue
            if self._is_positional(run):
                value_lower, value_upper = self._store.bounded_fragment_for(dimension, run.oids)
            else:
                value_lower, value_upper = self._store.bounded_fragment(dimension)
                if run.oids is not None:
                    value_lower, value_upper = value_lower[run.oids], value_upper[run.oids]
                run.full_scan_dimensions += 1
            contribution_lower, contribution_upper = contribution_interval(
                self._metric, value_lower, value_upper, run.query[dimension], dimension=dimension
            )
            cost.charge_arithmetic(2 * run.alive * self._metric.arithmetic_ops_per_value())
            scores = self._scores(run)
            scores.real += contribution_lower
            scores.imag += contribution_upper
            run.processed += 1

            if run.processed >= run.next_attempt or run.processed == total_dimensions:
                self._checkpoint(run)

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

        # The test direction follows the accumulated contributions, not the
        # metric kind (EuclideanSimilarity accumulates distance-valued
        # intervals and applies its similarity transform only at refinement).
        if not self._metric.contributions_are_distances:
            remaining_mass = float(remaining_query.sum())
            guaranteed = score_lower                     # remaining contributes at least 0
            optimistic = score_upper + remaining_mass    # and at most T(q+)
            kappa = float(np.partition(guaranteed, count - k)[count - k])
            return optimistic >= kappa
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
        guaranteed = score_upper + corner                # worst case for the candidate
        optimistic = score_lower                         # best case: remaining contributes 0
        kappa = float(np.partition(guaranteed, k - 1)[k - 1])
        return optimistic <= kappa
