"""BOND: Branch-and-bound ON Decomposed data (Algorithm 2).

The searcher accumulates the query's similarity (or distance) to every
surviving vector one dimension fragment at a time, in an order chosen by a
:class:`~repro.core.ordering.DimensionOrdering`.  After every batch of
dimensions (controlled by a :class:`~repro.core.planner.PruningSchedule`) it
asks the :class:`~repro.bounds.base.PruningBound` for lower/upper bounds on
every candidate's complete score and discards the candidates that can no
longer reach the top k:

* for similarity metrics, let ``kappa_min`` be the k-th largest lower bound;
  every candidate whose *upper* bound is below ``kappa_min`` is pruned
  (Algorithm 2, step 4);
* for distance metrics, let ``kappa_max`` be the k-th smallest upper bound;
  every candidate whose *lower* bound exceeds ``kappa_max`` is pruned (the
  remark after Algorithm 2).

Once the candidate set is no larger than k (or the dimensions are exhausted)
the survivors' exact scores are completed on the remaining dimensions — only
k-ish vectors wide — and the best k are returned.

Execution engines
-----------------
The searcher offers two engines with bit-for-bit identical results:

* ``"fused"`` (default) processes one pruning period at a time: the period's
  m fragments arrive as a single :meth:`~repro.core.candidates.CandidateSet.block_values`
  gather and one fused kernel from :mod:`repro.kernels` computes all m
  contribution columns at once, eliminating the per-dimension Python
  round trips of the original loop;
* ``"loop"`` is the seed per-dimension path, kept as the reference
  implementation and benchmark baseline.

The adaptive plan
-----------------
Where the pruning periods begin and end is the schedule's decision, and the
default (:class:`~repro.core.planner.MassAwareSchedule`) makes a query cost
one short full-height scan, one big prune and a few geometrically growing
blocks over the survivors: the first block ends as soon as the processed
query mass ``T(q⁻)`` reaches a fixed share of ``T(q)`` (Section 5.2: Hq
cannot prune below one half, and prunes almost everything soon after), and
once the candidate set is positional the block size doubles.  Because every
candidate's score is folded one dimension at a time in the query's own order
*wherever the block boundaries fall*, a schedule can change the counters,
the trace and the time of a search — never its answer: results are bitwise
identical to ``schedule=FixedPeriodSchedule(8)``, the paper's m = 8, under
every engine, batch shape and shard layout.

For multi-query workloads, :meth:`BondSearcher.search_batch` executes a whole
batch of queries concurrently, sharing each fragment read across every live
query (see :mod:`repro.core.batch`).
"""

from __future__ import annotations

import time

import numpy as np

from repro._compat import apply_legacy_positionals
from repro.bounds.base import OrderStatistics, PartialState, PruningBound
from repro.bounds.euclidean import EvBound
from repro.bounds.histogram import HqBound
from repro.bounds.weighted import WeightedEuclideanBound
from repro.core.batch import BatchQueryEngine
from repro.core.candidates import CandidateMode, CandidateSet
from repro.core.ordering import DecreasingQueryOrdering, DimensionOrdering
from repro.core.planner import MassAwareSchedule, PruningSchedule
from repro.core.result import BatchSearchResult, PruningTrace, SearchResult
from repro.errors import QueryError
from repro.kernels import BlockKernel, accumulate_columns, kernel_for
from repro.metrics.base import Metric, MetricKind
from repro.metrics.euclidean import SquaredEuclidean
from repro.metrics.histogram import HistogramIntersection
from repro.metrics.weighted import WeightedSquaredEuclidean
from repro.storage.decomposed import DecomposedStore


def default_bound_for(metric: Metric) -> PruningBound:
    """The pruning criterion the paper recommends for each metric.

    Histogram intersection pairs with Hq (best response times in Table 3),
    the plain Euclidean metric with Ev (Eq prunes "hardly any image",
    Figure 5), and the weighted metric with the weighted bound of Appendix A.
    """
    if isinstance(metric, WeightedSquaredEuclidean):
        return WeightedEuclideanBound()
    if isinstance(metric, SquaredEuclidean):
        return EvBound()
    if isinstance(metric, HistogramIntersection):
        return HqBound()
    raise QueryError(
        f"no default pruning bound for metric {type(metric).__name__}; pass one explicitly"
    )


#: ``PartialState.partial_scores`` before the first pruning checkpoint binds
#: the candidates' live view.
_NO_CANDIDATES = np.empty(0, dtype=np.float64)


class BondSearcher:
    """k-NN search by branch-and-bound over a vertically decomposed store.

    Parameters
    ----------
    store:
        The decomposed collection to search.
    metric:
        Similarity or distance metric (histogram intersection, squared
        Euclidean or weighted squared Euclidean).  Defaults to histogram
        intersection.
    bound:
        Pruning criterion; defaults to the paper's recommendation for the
        metric (see :func:`default_bound_for`).
    ordering:
        Dimension-ordering strategy (default: decreasing query value).
    schedule:
        Pruning-period schedule.  Default: the mass-aware two-phase plan of
        :class:`~repro.core.planner.MassAwareSchedule`; pass
        ``FixedPeriodSchedule(8)`` for the paper's fixed m = 8 (same answers,
        bit for bit — only cost and time differ).
    candidate_mode:
        ``"auto"`` (bitmap first, positional after the switch-over),
        ``"bitmap"`` or ``"positional"``.
    switch_selectivity:
        Candidate fraction below which the auto mode materialises the
        candidate set.
    engine:
        ``"fused"`` (default) runs the block-scan kernels; ``"loop"`` runs
        the original per-dimension reference path.  Both return bitwise
        identical results at identical accounted cost.

    Notes
    -----
    All configuration parameters are keyword-only (the uniform
    :class:`repro.api.Searcher` construction surface); the historical
    positional shape ``BondSearcher(store, metric, bound)`` still works but
    emits a :class:`DeprecationWarning`.

    A searcher owns reusable scratch (kernel workspace, pruning bounds, the
    candidate set of :meth:`search`), so one instance must not run concurrent
    searches from multiple threads; create one searcher per thread (they can
    share the store).
    """

    def __init__(
        self,
        store: DecomposedStore,
        *legacy,
        metric: Metric | None = None,
        bound: PruningBound | None = None,
        ordering: DimensionOrdering | None = None,
        schedule: PruningSchedule | None = None,
        candidate_mode: str = "auto",
        switch_selectivity: float = 0.05,
        engine: str = "fused",
    ) -> None:
        metric, bound = apply_legacy_positionals(
            "BondSearcher(store, *, metric=..., bound=...)",
            legacy,
            ("metric", "bound"),
            (metric, bound),
        )
        if engine not in ("fused", "loop"):
            raise QueryError("engine must be 'fused' or 'loop'")
        self._store = store
        self._metric = metric if metric is not None else HistogramIntersection()
        self._bound = bound if bound is not None else default_bound_for(self._metric)
        self._ordering = ordering if ordering is not None else DecreasingQueryOrdering()
        self._schedule = schedule if schedule is not None else MassAwareSchedule()
        self._candidate_mode = candidate_mode
        self._switch_selectivity = switch_selectivity
        self._engine = engine
        self._kernel = kernel_for(self._metric)
        # Reusable per-search scratch (lazily sized to the collection): the
        # full-scan workspace for the kernels, the bound/keep buffers of the
        # pruning attempts and the candidate set of :meth:`search` (reset, not
        # rebuilt, per query), so the hot path allocates nothing
        # collection-sized.
        self._scan_workspace = np.empty(0, dtype=np.float64)
        self._search_candidates: CandidateSet | None = None
        self._prune_lower = np.empty(0, dtype=np.float64)
        self._prune_upper = np.empty(0, dtype=np.float64)
        self._prune_keep = np.empty(0, dtype=bool)
        if self._bound.needs_remaining_value_sums:
            store.materialize_row_sums()

    # -- public API -------------------------------------------------------------

    @property
    def store(self) -> DecomposedStore:
        """The decomposed store being searched."""
        return self._store

    @property
    def metric(self) -> Metric:
        """The similarity / distance metric in use."""
        return self._metric

    @property
    def bound(self) -> PruningBound:
        """The pruning criterion in use."""
        return self._bound

    @property
    def engine(self) -> str:
        """The execution engine in use (``"fused"`` or ``"loop"``)."""
        return self._engine

    @property
    def kernel(self) -> BlockKernel:
        """The fused block kernel matching the metric."""
        return self._kernel

    def search(self, query: np.ndarray, k: int, *, trace: PruningTrace | None = None) -> SearchResult:
        """Return the k nearest neighbours of ``query``.

        Parameters
        ----------
        query:
            The query vector (full dimensionality of the store).
        k:
            Number of neighbours; clamped to the collection size.
        trace:
            Optional :class:`~repro.core.result.PruningTrace` to record the
            pruning curve into (also attached to the returned result).
        """
        started = time.perf_counter()
        query, k, weights, dimension_order, schedule_length = self._prepare(query, k)
        state = self._initial_state(query, dimension_order, weights)

        if self._search_candidates is None:
            self._search_candidates = self.make_candidates()
        else:
            self._search_candidates.reset()
        candidates = self._search_candidates
        trace = trace if trace is not None else PruningTrace()
        trace.record(0, len(candidates))

        cost_checkpoint = self._store.cost.checkpoint()
        run = self._run_loop if self._engine == "loop" else self._run_fused
        processed, full_scan_dimensions = run(
            state, dimension_order, candidates, k, trace, self._schedule, schedule_length
        )

        final_scores = self._finish_scores(query, dimension_order, processed, candidates)
        oids, scores = self._rank(candidates.oids, final_scores, k)
        elapsed = time.perf_counter() - started

        return SearchResult(
            oids=oids,
            scores=scores,
            dimensions_processed=processed,
            full_scan_dimensions=full_scan_dimensions,
            candidate_trace=trace,
            cost=self._store.cost.since(cost_checkpoint),
            elapsed_seconds=elapsed,
        )

    def search_batch(self, queries: np.ndarray, k: int) -> BatchSearchResult:
        """Answer a whole batch of queries, sharing fragment reads.

        Every query runs the exact single-query algorithm — its own dimension
        order, pruning schedule and candidate set — so each returned
        :class:`~repro.core.result.SearchResult` is bitwise identical to what
        :meth:`search` would return for that query.  The batch engine differs
        only in *how storage is touched*: per execution round, the union of
        all live queries' next fragment blocks is gathered once and served to
        every query, so one sequential pass over a column answers the whole
        batch (see :mod:`repro.core.batch`).

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
        cost_checkpoint = self._store.cost.checkpoint()
        engine = BatchQueryEngine(self, query_matrix, k)
        results = engine.run()
        return BatchSearchResult(
            results=results,
            cost=self._store.cost.since(cost_checkpoint),
            elapsed_seconds=time.perf_counter() - started,
        )

    # -- shared per-query plumbing (also used by the batch engine) ---------------

    def _prepare(
        self, query: np.ndarray, k: int
    ) -> tuple[np.ndarray, int, np.ndarray | None, np.ndarray, int]:
        """Validate one query and plan its dimension order."""
        query = self._metric.validate_query(query)
        if query.shape[0] != self._store.dimensionality:
            raise QueryError(
                f"query has {query.shape[0]} dimensions, the store has {self._store.dimensionality}"
            )
        if k <= 0:
            raise QueryError("k must be at least 1")
        k = min(k, self._store.cardinality)

        weights = self._metric.weights if isinstance(self._metric, WeightedSquaredEuclidean) else None
        dimension_order = self._ordering.order(query, weights=weights)
        if weights is not None:
            # Subspace fast path: zero-weight dimensions contribute nothing
            # and their fragments never need to be touched (Section 8.1).
            dimension_order = dimension_order[weights[dimension_order] > 0.0]
        schedule_length = (
            self._store.dimensionality if weights is None else int(dimension_order.shape[0])
        )
        return query, k, weights, dimension_order, schedule_length

    def make_candidates(self) -> CandidateSet:
        """A fresh candidate set with the bookkeeping this searcher's bound needs."""
        return CandidateSet(
            self._store,
            track_partial_sums=self._bound.needs_partial_value_sums,
            track_remaining_sums=self._bound.needs_remaining_value_sums,
            mode=self._candidate_mode,
            switch_selectivity=self._switch_selectivity,
        )

    def _initial_state(
        self, query: np.ndarray, dimension_order: np.ndarray, weights: np.ndarray | None
    ) -> PartialState:
        """The bound-facing view of one search: built and validated once.

        Every pruning checkpoint advances this one object (processed count
        and the candidate-aligned arrays, see :meth:`_attempt_prune`) instead
        of building and re-validating a snapshot per round; the query-side
        suffix statistics hang off it and are computed at most once each.
        """
        full_order = self._full_order(dimension_order, query.shape[0])
        state = PartialState(
            query=query,
            order=full_order,
            num_processed=0,
            partial_scores=_NO_CANDIDATES,
            weights=weights,
            order_statistics=OrderStatistics(query, full_order, weights),
        )
        state.validate()
        return state

    def _first_block(
        self, schedule: PruningSchedule, schedule_length: int, state: PartialState
    ) -> int:
        """How many dimensions to process before the first pruning attempt.

        The single place the engines consult ``schedule.first_batch`` — like
        :meth:`_prune_and_plan` for every later block — so the loop, fused,
        batch and shard engines all follow the same plan.
        """
        prefix_mass = (
            state.order_statistics.prefix_query_mass if self._bound.mass_driven else None
        )
        return schedule.first_batch(schedule_length, prefix_mass)

    # -- execution engines -------------------------------------------------------

    def _run_loop(
        self,
        state: PartialState,
        dimension_order: np.ndarray,
        candidates: CandidateSet,
        k: int,
        trace: PruningTrace,
        schedule: PruningSchedule,
        schedule_length: int,
    ) -> tuple[int, int]:
        """The seed per-dimension reference engine."""
        query = state.query
        total_dimensions = int(dimension_order.shape[0])
        processed = 0
        full_scan_dimensions = 0
        next_attempt = self._first_block(schedule, schedule_length, state)

        while processed < total_dimensions and len(candidates) > k:
            dimension = int(dimension_order[processed])
            column = candidates.column_values(dimension)
            contributions = self._metric.contributions(column, query[dimension], dimension=dimension)
            self._store.cost.charge_arithmetic(len(column) * self._metric.arithmetic_ops_per_value())
            candidates.accumulate(contributions, column)
            if candidates.mode is CandidateMode.BITMAP:
                full_scan_dimensions += 1
            processed += 1

            if processed >= next_attempt or processed == total_dimensions:
                next_attempt = processed + self._prune_and_plan(
                    state, processed, candidates, k, trace, schedule, schedule_length
                )
        return processed, full_scan_dimensions

    def _run_fused(
        self,
        state: PartialState,
        dimension_order: np.ndarray,
        candidates: CandidateSet,
        k: int,
        trace: PruningTrace,
        schedule: PruningSchedule,
        schedule_length: int,
    ) -> tuple[int, int]:
        """The fused block-scan engine: one kernel call per pruning period.

        Processes the same dimensions, attempts the same prunes with the same
        bounds and folds contributions in the same order as :meth:`_run_loop`,
        so the results (and the accounted cost) are bitwise identical — the
        only difference is that each pruning period costs one storage gather
        and one kernel call instead of m per-dimension round trips.
        """
        query = state.query
        total_dimensions = int(dimension_order.shape[0])
        processed = 0
        full_scan_dimensions = 0
        next_attempt = self._first_block(schedule, schedule_length, state)

        while processed < total_dimensions and len(candidates) > k:
            block_end = min(max(next_attempt, processed + 1), total_dimensions)
            block_dimensions = dimension_order[processed:block_end]
            self._scan_block(candidates, query, block_dimensions)
            if candidates.mode is CandidateMode.BITMAP:
                full_scan_dimensions += int(block_dimensions.shape[0])
            processed = block_end

            if processed >= next_attempt or processed == total_dimensions:
                next_attempt = processed + self._prune_and_plan(
                    state, processed, candidates, k, trace, schedule, schedule_length
                )
        return processed, full_scan_dimensions

    # -- internals -----------------------------------------------------------------

    def _prune_and_plan(
        self,
        state: PartialState,
        processed: int,
        candidates: CandidateSet,
        k: int,
        trace: PruningTrace,
        schedule: PruningSchedule,
        schedule_length: int,
    ) -> int:
        """One pruning checkpoint: attempt the prune, record the trace point
        and return how many dimensions to process before the next attempt.

        This is the single copy of the checkpoint logic shared by the loop
        engine, the fused engine and the batch engine — the bitwise-identity
        guarantee between them rests on all three calling exactly this.
        """
        before = len(candidates)
        self._attempt_prune(state, processed, candidates, k)
        trace.record(processed, len(candidates))
        return schedule.next_batch(
            dimensionality=schedule_length,
            dimensions_processed=processed,
            candidates_before=before,
            candidates_after=len(candidates),
            positional=candidates.mode is CandidateMode.POSITIONAL,
        )

    def _scan_block(
        self,
        candidates: CandidateSet,
        query: np.ndarray,
        block_dimensions: np.ndarray,
        *,
        charge_storage: bool = True,
    ) -> None:
        """Fold one pruning period into the candidate state with one kernel call.

        While every vector is still alive (full-bitmap phase — where almost
        all the bytes of a query are moved) the fragments are streamed in
        place: no gather, no fresh allocations, per-column temporaries in the
        reused workspace.  Afterwards the block arrives as one restricted
        gather.  ``charge_storage=False`` lets the batch engine charge one
        shared read for a whole round instead.
        """
        cost = self._store.cost
        if candidates.mode is CandidateMode.BITMAP and candidates.is_full():
            columns = self._store.fragment_columns(block_dimensions, charge=charge_storage)
            if self._scan_workspace.shape[0] < len(candidates):
                self._scan_workspace = np.empty(len(candidates), dtype=np.float64)
            cost.charge_arithmetic(
                len(candidates)
                * int(block_dimensions.shape[0])
                * self._metric.arithmetic_ops_per_value()
            )
            self._kernel.accumulate_scan(
                columns,
                query[block_dimensions],
                block_dimensions,
                candidates.partial_scores,
                self._scan_workspace[: len(candidates)],
            )
            candidates.accumulate_value_columns(columns)
            return
        if charge_storage:
            values = candidates.block_values(block_dimensions)
        else:
            values = self._store.gather_block(block_dimensions, oids=candidates.oids, charge=None)
        contribution_block = self._kernel.contribution_block(
            values, query[block_dimensions], block_dimensions
        )
        cost.charge_arithmetic(values.size * self._metric.arithmetic_ops_per_value())
        candidates.accumulate_block(contribution_block, values)

    def _attempt_prune(
        self, state: PartialState, processed: int, candidates: CandidateSet, k: int
    ) -> None:
        """One pruning attempt: bound every candidate and drop the hopeless ones."""
        if len(candidates) <= k:
            return
        # Advance the search's one state object; the candidate-aligned views
        # are aligned by construction, so it is not re-validated.
        state.num_processed = processed
        state.partial_scores = candidates.partial_scores
        state.partial_value_sums = candidates.partial_value_sums
        state.remaining_value_sums = candidates.remaining_value_sums
        if not self._bound.pruning_worthwhile(state):
            return
        count = len(candidates)
        if self._prune_lower.shape[0] < count:
            self._prune_lower = np.empty(count, dtype=np.float64)
            self._prune_upper = np.empty(count, dtype=np.float64)
            self._prune_keep = np.empty(count, dtype=bool)
        lower, upper = self._bound.remaining_bounds(state).totals(
            candidates.partial_scores,
            out=(self._prune_lower[:count], self._prune_upper[:count]),
        )
        cost = self._store.cost
        cost.charge_arithmetic(2 * count)
        cost.charge_heap(count)
        cost.charge_comparisons(count)

        keep = self._prune_keep[:count]
        if self._metric.kind is MetricKind.SIMILARITY:
            # kappa_min: the k-th largest guaranteed (lower-bound) score.  The
            # selection partitions the lower buffer in place — it is not
            # needed afterwards (the keep test reads only the upper bounds).
            lower.partition(count - k)
            kappa = float(lower[count - k])
            np.greater_equal(upper, kappa, out=keep)
        else:
            # kappa_max: the k-th smallest worst-case (upper-bound) score.
            upper.partition(k - 1)
            kappa = float(upper[k - 1])
            np.less_equal(lower, kappa, out=keep)
        candidates.prune(keep)

    def _full_order(self, order: np.ndarray, dimensionality: int) -> np.ndarray:
        """Extend a (possibly subspace-restricted) order to all dimensions.

        The pruning bounds define "remaining dimensions" as everything after
        the processed prefix; for subspace queries the zero-weight dimensions
        are appended at the end so they count as remaining but never get
        processed (their weight is zero, so they contribute nothing to the
        weighted bounds either).
        """
        if order.shape[0] == dimensionality:
            return order
        missing = np.setdiff1d(np.arange(dimensionality, dtype=np.int64), order, assume_unique=True)
        return np.concatenate([order, missing])

    def _finish_scores(
        self,
        query: np.ndarray,
        order: np.ndarray,
        processed: int,
        candidates: CandidateSet,
    ) -> np.ndarray:
        """Complete the survivors' exact scores on the unprocessed dimensions."""
        scores = candidates.partial_scores.copy()
        remaining = order[processed:]
        if remaining.shape[0] == 0 or len(candidates) == 0:
            return scores
        values = self._store.gather_matrix(candidates.oids, remaining)
        self._store.cost.charge_arithmetic(values.size * self._metric.arithmetic_ops_per_value())
        contribution_block = self._kernel.contribution_block(values, query[remaining], remaining)
        accumulate_columns(scores, contribution_block)
        return scores

    def _rank(self, oids: np.ndarray, scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Best k (OIDs, scores), best first, with deterministic tie-breaks."""
        if scores.shape[0] == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        self._store.cost.charge_heap(scores.shape[0])
        order = self._metric.best_first(scores)
        top = order[:k]
        return oids[top], scores[top]
