"""Sharded execution of the exact engine over contiguous row shards.

This is the scaling layer over :class:`~repro.core.bond.BondSearcher`: the
collection is cut into contiguous row shards (:mod:`repro.storage.sharding`),
every shard's own searcher answers ``search_batch`` against its **private**
store view and cost model, and the per-shard top-k lists are merged with a
deterministic tie-break — so the merged answers are bitwise identical to the
unsharded searcher.  There is one engine, :class:`ShardedBondSearcher`, and
it is exact-only: the compressed filter does so little work per row that a
split only adds each shard's fixed cost and the merge (it lost to the
unsharded :class:`~repro.core.compressed.CompressedBondSearcher` at every
batch size measured, CHANGES.md), so a compressed query on a sharded index
is answered unsharded by ``compressed_bond``.  What a shard *is* lives in
:class:`repro.cluster.executor.EngineSpec` alone.

The shards run on one of two executors behind one protocol
(:mod:`repro.cluster.executor`): inline on the calling thread, or in worker
processes over shared-memory fragments (:mod:`repro.cluster`), which takes
the Python-level scan loop off the GIL.  Only an ``executor="process"``
engine ever uses the workers, and only for a batch of at least
:data:`POOL_MIN_BATCH` queries or while another call runs inline on it:
below that a pipe round trip costs more than the second core returns, so
the engine runs the batch inline.  Its pool starts on the first batch that
needs it.  The workers attach the segment the store was decomposed into
when it has one (a process-sharded :class:`~repro.api.index.Index`'s store
does), and a copy of the store's fragments otherwise.
Answers and cost accounts are bitwise identical across both (the same
searchers run over the same bytes and the parent applies the same merge).

Within a shard a batch runs the round driver of :mod:`repro.core.batch`
unchanged.  The rounds are deliberately not row-tiled: tiling the row axis
does not change the rows x dims bytes a round moves, and measured no faster
than whole-shard rounds on any workload (numbers in the README's sharding
section).

Deterministic merge
-------------------
Per query, every shard returns its local top-k (local OIDs are offset by the
shard's start row).  The merge pools the shard candidates and ranks them with
:meth:`~repro.metrics.base.Metric.merge_top_k` — ascending global OID, then
the metric's stable best-first — so ties between equal scores resolve exactly
as the unsharded searcher resolves them over its ascending-OID candidate
list.  A candidate a shard dropped from its local top-k cannot reappear in
the global top-k: the k shard-mates that beat it are all in the merged pool
and beat it there too.
"""

from __future__ import annotations

import threading
import time
from typing import Sequence

import numpy as np

from repro.core.ordering import DimensionOrdering
from repro.core.planner import PruningSchedule
from repro.core.result import BatchSearchResult, PruningTrace, SearchResult
from repro.engine.cost import CostModel
from repro.errors import QueryError
from repro.metrics.base import Metric
from repro.metrics.histogram import HistogramIntersection
from repro.reliability.faults import fault_point
from repro.storage.decomposed import DecomposedStore
from repro.storage.sharding import ShardPlan

#: Recognised shard-executor kinds: ``"thread"`` searches the shards inline
#: on the calling thread (the name predates the removal of its thread pool;
#: manifests persist it); ``"process"`` may also run them in worker processes
#: over shared-memory fragments (see :mod:`repro.cluster` and
#: :data:`POOL_MIN_BATCH`).
SHARD_EXECUTORS = ("thread", "process")

#: The smallest batch a process engine scatters to its worker pool.  A
#: smaller one runs its shards inline on the calling thread, unless another
#: call already runs inline on the engine.  Fitted from a census of the two
#: on 2 shards of 59,619 x 166, 2 vCPUs, nine runs (CHANGES.md): in the
#: median run the pool took 1.24x the inline time for 1 query, 1.11x for 2,
#: 1.00x for 4 and 0.87x for 8.  Batches at or above it run as they always
#: did.
POOL_MIN_BATCH = 8

#: Recognised shard-failure policies (see ``on_shard_failure``).
SHARD_FAILURE_MODES = ("fail", "partial")


def merge_shard_results(
    metric: Metric,
    shard_results: Sequence[SearchResult],
    plan: ShardPlan,
    k: int,
    *,
    cost: CostModel,
    shard_indices: Sequence[int],
) -> SearchResult:
    """Merge one query's per-shard top-k lists into the global top-k.

    Shard OIDs are local; each is offset by its shard's start row before the
    pool is ranked by :meth:`~repro.metrics.base.Metric.merge_top_k` — the
    tie-break the unsharded searchers apply, so the merged (OIDs, scores) are
    bitwise identical to a single-store search.

    The merged result's ``dimensions_processed`` is the deepest shard's count
    (the critical path), ``full_scan_dimensions`` is the total full-fragment
    volume across shards, and the trace sums the shards' surviving-candidate
    curves over the union of their recorded checkpoints.

    ``shard_indices`` names the shard of ``plan`` each entry of
    ``shard_results`` came from (the partial mode of ``on_shard_failure``
    merges only the surviving subset); the merge's heap and comparison work
    is charged to ``cost``.
    """
    oids = np.concatenate(
        [shard.oids + plan.starts[index] for shard, index in zip(shard_results, shard_indices)]
    )
    scores = np.concatenate([shard.scores for shard in shard_results])
    cost.charge_heap(int(oids.shape[0]))
    cost.charge_comparisons(int(oids.shape[0]))
    oids, scores = metric.merge_top_k(oids, scores, k)
    return SearchResult(
        oids=oids,
        scores=scores,
        dimensions_processed=max(shard.dimensions_processed for shard in shard_results),
        full_scan_dimensions=sum(shard.full_scan_dimensions for shard in shard_results),
        candidate_trace=merge_traces([shard.candidate_trace for shard in shard_results]),
    )


def merge_traces(traces: Sequence[PruningTrace]) -> PruningTrace:
    """Sum per-shard pruning curves over the union of their checkpoints.

    At each recorded dimension count, every shard contributes its last known
    surviving-candidate count at or before that point, so the merged curve
    reads as "candidates alive across all shards after m dimensions".
    """
    merged = PruningTrace()
    points = sorted({point for trace in traces for point in trace.dimensions_processed})
    for point in points:
        total = 0
        for trace in traces:
            count = trace.candidates_remaining[0] if trace.candidates_remaining else 0
            for dimensions, remaining in zip(
                trace.dimensions_processed, trace.candidates_remaining
            ):
                if dimensions <= point:
                    count = remaining
                else:
                    break
            total += count
        merged.record(point, total)
    return merged


def check_shard_options(executor: str, on_shard_failure: str) -> None:
    """Reject an unknown shard-executor kind or shard-failure policy — the
    one definition of both option values (the ``Index`` facade reuses it)."""
    if on_shard_failure not in SHARD_FAILURE_MODES:
        raise QueryError(
            f"on_shard_failure must be one of {SHARD_FAILURE_MODES}, got {on_shard_failure!r}"
        )
    if executor not in SHARD_EXECUTORS:
        raise QueryError(f"executor must be one of {SHARD_EXECUTORS}, got {executor!r}")


class ShardedBondSearcher:
    """Exact BOND over contiguous row shards, merged to the global top-k.

    Every shard runs a :class:`~repro.core.bond.BondSearcher` over a
    zero-copy row slice of the parent
    :class:`~repro.storage.decomposed.DecomposedStore` (what a shard's store
    and searcher are is :class:`~repro.cluster.executor.EngineSpec`'s
    business); this class hands each query matrix to an executor's
    ``search_shards`` (see :mod:`repro.cluster.executor` for the protocol),
    applies the shard-failure policy and merges with the deterministic
    tie-break of :func:`merge_shard_results`, so answers are bitwise
    identical to the unsharded searcher.  A single query is a batch of one.
    A :class:`~repro.storage.compressed.CompressedStore` raises
    :class:`~repro.errors.QueryError`: the compressed filter is answered
    unsharded (``compressed_bond``).

    Parameters
    ----------
    store:
        The parent store.  Its cost model becomes the *parent* account: each
        shard's own account of a call is merged into it, plus the merge's
        heap/comparison work — so one shard costs exactly what the unsharded
        searcher reports, plus the merge.
    shards:
        Shard count or a ready :class:`~repro.storage.sharding.ShardPlan`.
    workers:
        The process executor's worker-process count: an integer >= 1
        (clamped to the shard count; default one worker per shard).  The
        calling thread scatters to the workers, so no dispatch thread
        starts.  In-process shards always run inline on the calling thread
        (a thread pool never beat that here — README, sharding section), so
        ``workers`` with ``executor="thread"`` raises
        :class:`~repro.errors.QueryError`.
    on_shard_failure:
        ``"fail"`` (default) re-raises the first failed shard's error;
        ``"partial"`` degrades gracefully — the surviving shards' top-k is
        merged and flagged (``result.degraded`` / ``result.failed_shards``).
    executor:
        ``"thread"`` (default) searches the shards in this process;
        ``"process"`` runs each shard's search of a batch of at least
        :data:`POOL_MIN_BATCH` queries in a worker process over the store's
        shared-memory segment — the one it carries, else a copy made when
        the pool starts (bitwise-identical answers and cost accounts).  A
        smaller batch runs inline, as in ``"thread"`` mode, unless another
        call already does: then it goes to the pool, so concurrent callers
        never share the in-process shard searchers.  The pool starts on the
        first batch that goes to it.  Process mode needs picklable metric /
        bound / ordering / schedule objects.
    process_context:
        Multiprocessing start method of process mode (``"fork"`` /
        ``"spawn"`` / ``"forkserver"``; default: the platform's).
    metric / bound / ordering / schedule:
        Forwarded to every shard's searcher (bounds and schedules are copied
        per shard so concurrent shards never share mutable scratch).
    """

    def __init__(
        self,
        store: DecomposedStore,
        *,
        metric: Metric | None = None,
        bound=None,
        ordering: DimensionOrdering | None = None,
        schedule: PruningSchedule | None = None,
        shards: int | ShardPlan = 2,
        workers: int | None = None,
        on_shard_failure: str = "fail",
        executor: str = "thread",
        process_context: str | None = None,
    ) -> None:
        # Imported here, not at the top: cluster sits a rung above core.  The
        # executors belong beside this module, but bench/layers.py and
        # bench/tracing.py import them (and this module) by their present
        # paths, so the move waits for a change that may also update bench/.
        from repro.cluster.executor import EngineSpec, InProcessShardExecutor, check_workers

        if not isinstance(store, DecomposedStore):
            raise QueryError(
                "the sharded engine is exact-only and scans a DecomposedStore; "
                "compressed queries are answered unsharded by compressed_bond "
                f"(CompressedBondSearcher), got {type(store).__name__}"
            )
        check_shard_options(executor, on_shard_failure)
        self._store = store
        self._metric = metric if metric is not None else HistogramIntersection()
        self._plan = shards if isinstance(shards, ShardPlan) else ShardPlan.balanced(
            store.cardinality, int(shards)
        )
        if workers is not None:
            if executor == "thread":
                raise QueryError(
                    "workers sizes the process executor's pool; in-process shards run inline"
                )
            check_workers(workers)
        self._workers = self._plan.num_shards if workers is None else workers
        self._on_shard_failure = on_shard_failure
        self._executor_kind = executor
        self._process_context = process_context
        self._spec = EngineSpec(
            metric=self._metric, bound=bound, ordering=ordering, schedule=schedule
        )
        self._searchers = [
            self._spec.shard_searcher(store, self._plan, shard)
            for shard in range(self._plan.num_shards)
        ]
        self._inline = InProcessShardExecutor(self._searchers)
        # Held by the one call running inline on a process engine.
        self._inline_lock = threading.Lock()
        # Serialises starting and stopping the pool.
        self._pool_lock = threading.Lock()
        self._executor = None  # the process pool, started on first need

    @property
    def store(self) -> DecomposedStore:
        """The parent store (cost-account owner)."""
        return self._store

    @property
    def metric(self) -> Metric:
        """The similarity / distance metric in use."""
        return self._metric

    @property
    def shard_searchers(self) -> list:
        """The in-process per-shard searchers (introspection / tests); the
        pool's workers run their own identical copies."""
        return self._searchers

    @property
    def shard_plan(self) -> ShardPlan:
        """The row partition the engine runs over."""
        return self._plan

    def close(self) -> None:
        """Shut the worker pool down, if one started (idempotent; a later
        batch that needs the pool starts it again).

        This stops the worker processes and releases the engine's reference
        on the shared-memory segment — the last holder unlinks it, so a
        closed engine over a copy leaves nothing behind in ``/dev/shm`` (a
        carried segment goes with its owner's reference)."""
        with self._pool_lock:
            if self._executor is not None:
                self._executor.close()
                self._executor = None

    def __enter__(self) -> "ShardedBondSearcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _open_executor(self):
        """The worker pool, started (or restarted, after close) on first
        need.  It starts no thread: the calling thread scatters the shards."""
        with self._pool_lock:
            if self._executor is None:
                from repro.cluster.executor import ProcessShardExecutor

                self._executor = ProcessShardExecutor.over(
                    self._store,
                    self._spec,
                    self._plan,
                    self._workers,
                    context=self._process_context,
                )
            return self._executor

    def _run_shards(self, queries: np.ndarray, k: int, before) -> list:
        """Every shard's outcome for ``queries``, from the executor that
        serves this call: inline on the calling thread, or — for a process
        engine's batch of :data:`POOL_MIN_BATCH` queries or more, or while
        another call holds the inline searchers — the worker pool."""
        if self._executor_kind == "thread":
            return self._inline.search_shards(queries, k, before)
        if queries.shape[0] < POOL_MIN_BATCH and self._inline_lock.acquire(blocking=False):
            try:
                return self._inline.search_shards(queries, k, before)
            finally:
                self._inline_lock.release()
        return self._open_executor().search_shards(queries, k, before)

    def _search_shards(
        self, queries: np.ndarray, k: int
    ) -> tuple[list, list[int], tuple[int, ...]]:
        """Every shard's top-k lists for ``queries``, split by the failure policy.

        Every shard task passes through the ``shard.map`` fault point, and the
        executor captures each shard's exception in its slot (so one dead
        shard never aborts the others).  Each surviving shard's own cost
        account reaches the parent model once.  Returns the surviving shards'
        result lists, their indices and the failed shards' indices — unless
        the policy is ``"fail"`` (or *no* shard survived, where there is
        nothing to degrade to), in which case the lowest-indexed shard's
        original exception is re-raised, preserving its type for the retry /
        failover layers above.
        """
        outcomes = self._run_shards(
            queries, k, lambda shard: fault_point("shard.map", shard=shard)
        )
        failed = tuple(
            shard for shard, outcome in enumerate(outcomes) if isinstance(outcome, Exception)
        )
        if failed and (self._on_shard_failure == "fail" or len(failed) == len(outcomes)):
            raise outcomes[failed[0]]
        surviving = [shard for shard in range(len(outcomes)) if shard not in failed]
        for shard in surviving:
            self._store.cost.merge_account(outcomes[shard][1])
        return [outcomes[shard][0] for shard in surviving], surviving, failed

    def _search_many(self, queries: np.ndarray, k: int) -> list[SearchResult]:
        """The one search body: fan the query matrix out, merge per query."""
        per_shard, surviving, failed = self._search_shards(queries, k)
        merged = [
            merge_shard_results(
                self._metric,
                [shard_results[row] for shard_results in per_shard],
                self._plan,
                k,
                cost=self._store.cost,
                shard_indices=surviving,
            )
            for row in range(queries.shape[0])
        ]
        if failed:
            for result in merged:
                result.degraded = True
                result.failed_shards = failed
        return merged

    def search(self, query: np.ndarray, k: int, *, trace: PruningTrace | None = None) -> SearchResult:
        """Exact k nearest neighbours, searched per shard and merged — a
        batch of one.  Bitwise identical to the unsharded searcher's
        ``search`` (see :func:`merge_shard_results`)."""
        started = time.perf_counter()
        checkpoint = self._store.cost.checkpoint()
        (merged,) = self._search_many(np.asarray(query, dtype=np.float64)[None], k)
        if trace is not None:
            trace.dimensions_processed.extend(merged.candidate_trace.dimensions_processed)
            trace.candidates_remaining.extend(merged.candidate_trace.candidates_remaining)
            merged.candidate_trace = trace
        merged.cost = self._store.cost.since(checkpoint)
        merged.elapsed_seconds = time.perf_counter() - started
        return merged

    def search_batch(self, queries: np.ndarray, k: int) -> BatchSearchResult:
        """Answer a whole batch: every shard's searcher runs ``search_batch``
        over all queries, then each query's shard top-k lists are merged.
        Bitwise identical to the unsharded ``search_batch``."""
        started = time.perf_counter()
        query_matrix = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if query_matrix.ndim != 2:
            raise QueryError(f"queries must form a 2-D matrix, got shape {query_matrix.shape}")
        checkpoint = self._store.cost.checkpoint()
        merged = self._search_many(query_matrix, k)
        return BatchSearchResult(
            results=merged,
            cost=self._store.cost.since(checkpoint),
            elapsed_seconds=time.perf_counter() - started,
        )
