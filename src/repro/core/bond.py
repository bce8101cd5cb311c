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

Execution
---------
One pruning period at a time: the period's m fragments arrive as a single
:meth:`~repro.core.candidates.CandidateSet.block_values` gather (or, while
every vector is alive, as zero-copy fragment columns) and one fused kernel
from :mod:`repro.kernels` folds all m contribution columns in, left to right
— the same floats as the paper's column-at-a-time loop, without its
per-dimension Python round trips.  The per-dimension reference lives with
the tests (``tests/oracle.py``).

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
every batch shape and shard layout.

Both entry points run through the one round driver of
:mod:`repro.core.batch`: :meth:`BondSearcher.search` drives a single run,
:meth:`BondSearcher.search_batch` a whole batch of them, sharing each
fragment read across every live query.
"""

from __future__ import annotations

import copy
import threading
import time

import numpy as np

from repro.bounds.base import OrderStatistics, PartialState, PruningBound
from repro.bounds.euclidean import EvBound
from repro.bounds.histogram import HqBound
from repro.bounds.weighted import WeightedEuclideanBound
from repro.core.batch import QueryRun, drive
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

    Notes
    -----
    All configuration parameters are keyword-only (the uniform
    :class:`repro.api.Searcher` construction surface).

    A searcher owns reusable scratch (kernel workspace, pruning bounds, the
    candidate set of each call's first query), so it serialises its own
    ``search`` / ``search_batch`` calls with a lock: threads sharing one
    instance take turns.  For parallel searches create one searcher per
    thread (they can share the store).
    """

    def __init__(
        self,
        store: DecomposedStore,
        *,
        metric: Metric | None = None,
        bound: PruningBound | None = None,
        ordering: DimensionOrdering | None = None,
        schedule: PruningSchedule | None = None,
    ) -> None:
        self._store = store
        self._metric = metric if metric is not None else HistogramIntersection()
        self._bound = bound if bound is not None else default_bound_for(self._metric)
        self._ordering = ordering if ordering is not None else DecreasingQueryOrdering()
        self._schedule = schedule if schedule is not None else MassAwareSchedule()
        self._kernel = kernel_for(self._metric)
        # Reusable per-search scratch (lazily sized to the collection): the
        # full-scan workspace for the kernels, the bound/keep buffers of the
        # pruning attempts and the candidate set of each call's first query
        # (reset, not rebuilt), so a single query — alone or as a batch of
        # one — allocates nothing collection-sized.
        self._scan_workspace = np.empty(0, dtype=np.float64)
        self._search_candidates: CandidateSet | None = None
        self._prune_lower = np.empty(0, dtype=np.float64)
        self._prune_upper = np.empty(0, dtype=np.float64)
        self._prune_keep = np.empty(0, dtype=bool)
        # Serialises search / search_batch: the scratch above is per instance.
        self._lock = threading.Lock()
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
    def kernel(self) -> BlockKernel:
        """The fused block kernel matching the metric."""
        return self._kernel

    def search(
        self, query: np.ndarray, k: int, *, trace: PruningTrace | None = None, exclude=None
    ) -> SearchResult:
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
        exclude:
            Ascending OIDs to leave out (a live index's deleted rows): they
            take the worst bound at the first prune and leave with it.
        """
        started = time.perf_counter()
        with self._lock:
            run = self._plan(query, k, trace, exclude=exclude)
            # The account opens after planning: initialising the candidate
            # state (an Ev-style bound starts from the T(x) column) is
            # set-up, not scan.
            cost = self._store.cost
            checkpoint = cost.checkpoint()
            drive(self, [run])
            result = run.result
            result.cost = cost.since(checkpoint)
        result.elapsed_seconds = time.perf_counter() - started
        return result

    def search_batch(self, queries: np.ndarray, k: int, *, exclude=None) -> BatchSearchResult:
        """Answer a whole batch of queries, sharing fragment reads.

        Every query runs the exact single-query algorithm — its own dimension
        order, pruning schedule and candidate set — so each returned
        :class:`~repro.core.result.SearchResult` is bitwise identical to what
        :meth:`search` would return for that query.  A batch differs only in
        *how storage is touched*: per execution round, the union of all live
        queries' next fragment blocks is charged once and served to every
        query, so one sequential pass over a column answers the whole batch
        (see :mod:`repro.core.batch`).

        Parameters
        ----------
        queries:
            ``(batch, N)`` matrix of query vectors (a single 1-D query is
            accepted and treated as a batch of one).
        k:
            Number of neighbours per query; clamped to the collection size.
        exclude:
            Ascending OIDs every query leaves out (see :meth:`search`).

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
            runs = [
                self._plan(query, k, reuse_scratch=index == 0, exclude=exclude)
                for index, query in enumerate(query_matrix)
            ]
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
        self,
        query: np.ndarray,
        k: int,
        trace: PruningTrace | None = None,
        *,
        reuse_scratch: bool = True,
        exclude=None,
    ) -> QueryRun:
        """Validate one query and set up its independent run state.

        The first query of a call runs in the searcher's own candidate set
        and schedule (``reuse_scratch``), so a single query allocates nothing
        collection-sized; the others of a batch get fresh ones.
        """
        query = self._metric.validate_query(query)
        if query.shape[0] != self._store.dimensionality:
            raise QueryError(
                f"query has {query.shape[0]} dimensions, the store has {self._store.dimensionality}"
            )
        if k <= 0:
            raise QueryError("k must be at least 1")
        k = min(k, self._store.cardinality)

        dimension_order, weights = self._dimension_order(query)
        schedule_length = (
            self._store.dimensionality if weights is None else int(dimension_order.shape[0])
        )
        state = self._initial_state(query, dimension_order, weights)
        if reuse_scratch:
            candidates, schedule = self._scratch_candidates(), self._schedule
        else:
            # Adaptive schedules carry per-search state, so concurrent runs
            # need their own (shallow — schedules hold only scalar
            # configuration) copy.
            candidates, schedule = self.make_candidates(), copy.copy(self._schedule)
        run = QueryRun(
            query=query,
            k=k,
            order=dimension_order,
            state=state,
            schedule=schedule,
            candidates=candidates,
            schedule_length=schedule_length,
            trace=trace if trace is not None else PruningTrace(),
            exclude=(
                np.asarray(exclude, dtype=np.int64)
                if exclude is not None and len(exclude)
                else None
            ),
        )
        run.trace.record(0, run.alive)
        prefix_mass = (
            state.order_statistics.prefix_query_mass if self._bound.mass_driven else None
        )
        run.next_attempt = schedule.first_batch(schedule_length, prefix_mass)
        return run

    def _dimension_order(self, query: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """The query's processing order of dimensions, and the metric's weights."""
        weights = self._metric.weights if isinstance(self._metric, WeightedSquaredEuclidean) else None
        dimension_order = self._ordering.order(query, weights=weights)
        if weights is not None:
            # Subspace fast path: zero-weight dimensions contribute nothing
            # and their fragments never need to be touched (Section 8.1).
            dimension_order = dimension_order[weights[dimension_order] > 0.0]
        return dimension_order, weights

    def score_rows(self, queries: np.ndarray, columns: np.ndarray) -> np.ndarray:
        """The ``(n_queries, n_rows)`` scores of rows held outside the store,
        given as ``(dimensions, n_rows)`` float64 columns: contributions folded
        from 0.0 in the query's dimension order, as :meth:`_finish` folds a
        row with nothing processed — so, bitwise, what any search over a
        store holding the row returns.  Nothing is charged."""
        query_matrix = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        scores = np.zeros((query_matrix.shape[0], columns.shape[1]), dtype=np.float64)
        for row, query in enumerate(query_matrix):
            query = self._metric.validate_query(query)
            order, _ = self._dimension_order(query)
            block = self._kernel.contribution_block(columns[order].T, query[order], order)
            accumulate_columns(scores[row], block)
        return scores

    def make_candidates(self) -> CandidateSet:
        """A fresh candidate set with the bookkeeping this searcher's bound needs."""
        return CandidateSet(
            self._store,
            track_partial_sums=self._bound.needs_partial_value_sums,
            track_remaining_sums=self._bound.needs_remaining_value_sums,
        )

    def _scratch_candidates(self) -> CandidateSet:
        """The searcher's own candidate set, reset for a new search."""
        if self._search_candidates is None:
            self._search_candidates = self.make_candidates()
        else:
            self._search_candidates.reset()
        return self._search_candidates

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

    # -- the run protocol of :func:`repro.core.batch.drive` ---------------------------

    def _streamed_dimensions(
        self, run: QueryRun, block_dimensions: np.ndarray
    ) -> np.ndarray | None:
        """The block's fragments pass in full while the run filters through a
        bitmap; a materialised candidate list fetches only its own values."""
        if run.candidates.mode is CandidateMode.BITMAP:
            return block_dimensions
        return None

    def _checkpoint(self, run: QueryRun) -> None:
        """One pruning checkpoint: attempt the prune, record the trace point
        and plan how many dimensions to process before the next attempt."""
        candidates = run.candidates
        before = len(candidates)
        self._attempt_prune(run)
        run.trace.record(run.processed, len(candidates))
        run.next_attempt = run.processed + run.schedule.next_batch(
            dimensionality=run.schedule_length,
            dimensions_processed=run.processed,
            candidates_before=before,
            candidates_after=len(candidates),
            positional=candidates.mode is CandidateMode.POSITIONAL,
        )

    def _scan_block(
        self, run: QueryRun, block_dimensions: np.ndarray, *, charge_storage: bool
    ) -> None:
        """Fold one pruning period into the candidate state with one kernel call.

        While every vector is still alive (full-bitmap phase — where almost
        all the bytes of a query are moved) the fragments are streamed in
        place: no gather, no fresh allocations, per-column temporaries in the
        reused workspace.  Afterwards the block arrives as one restricted
        gather.  ``charge_storage`` is False while the driver charges the
        round's shared read for the run instead.
        """
        cost = self._store.cost
        candidates = run.candidates
        query = run.query
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

    def _finish(self, run: QueryRun) -> tuple[np.ndarray, np.ndarray]:
        """Complete the survivors' exact scores on the unprocessed dimensions
        and rank them: best k (OIDs, scores), best first, with deterministic
        tie-breaks.  A run that never pruned drops its tombstones here."""
        candidates = run.candidates
        oids = candidates.oids
        scores = candidates.partial_scores.copy()
        if run.exclude is not None:
            keep = np.ones(oids.shape[0], dtype=bool)
            keep[run.exclude] = False
            oids, scores = oids[keep], scores[keep]
        remaining = run.order[run.processed:]
        if remaining.shape[0] and oids.shape[0]:
            values = self._store.gather_matrix(oids, remaining)
            self._store.cost.charge_arithmetic(
                values.size * self._metric.arithmetic_ops_per_value()
            )
            contribution_block = self._kernel.contribution_block(
                values, run.query[remaining], remaining
            )
            accumulate_columns(scores, contribution_block)
        if scores.shape[0] == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        self._store.cost.charge_heap(scores.shape[0])
        top = self._metric.best_first(scores)[: run.k]
        return oids[top], scores[top]

    # -- internals -----------------------------------------------------------------

    def _attempt_prune(self, run: QueryRun) -> None:
        """One pruning attempt: bound every candidate and drop the hopeless
        ones.  The run's first prune also drops its tombstones: they take
        the worst bound, so they never set kappa, and are never kept."""
        candidates, k, state = run.candidates, run.k, run.state
        if len(candidates) <= k:
            return
        # Advance the search's one state object; the candidate-aligned views
        # are aligned by construction, so it is not re-validated.
        state.num_processed = run.processed
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
        similarity = self._metric.kind is MetricKind.SIMILARITY
        if run.exclude is not None:
            lower[run.exclude] = upper[run.exclude] = -np.inf if similarity else np.inf
        if similarity:
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
        if run.exclude is not None:
            keep[run.exclude] = False
            run.exclude = None
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
