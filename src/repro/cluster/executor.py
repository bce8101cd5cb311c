"""Shard executors: what one shard is, and where its searches run.

:class:`EngineSpec` is the **single recipe** for "one shard": from
``(metric, bound, ordering, schedule)`` it cuts a shard's store view out of
the parent's (a zero-copy row slice of the exact store with a private
:class:`~repro.engine.cost.CostModel`) and builds that shard's
:class:`~repro.core.bond.BondSearcher`.  The sharded engine is exact-only;
compressed queries are answered unsharded.  Both executors build from it
and answer the same protocol —

* ``search_shards(queries, k, before) -> list[(results, CostAccount) |
  Exception]``: every shard's top-k lists for a query matrix plus the cost
  account its searcher measured, in shard order (a single query is a batch
  of one).  ``before(shard)`` runs ahead of each shard's task (the engine's
  ``shard.map`` fault point); an exception from it or from the shard's
  search is returned in that shard's slot, never raised, so one failed
  shard cannot abort the others;
* ``search_batch(shard, queries, k) -> (results, CostAccount)``: one shard
  alone (probes and tools);
* ``close()``;

— so the sharded engine of :mod:`repro.core.parallel` applies its failure
policy and merges without knowing which one served a call:

* :class:`InProcessShardExecutor` runs the shard searchers inline on the
  calling thread, in shard order, against the parent's own arrays.  Every
  engine has one: a thread engine runs every call on it, a process engine
  every batch below :data:`~repro.core.parallel.POOL_MIN_BATCH` queries
  that finds it free;
* :class:`ProcessShardExecutor` moves each shard's whole search into a
  **worker process** running the identical searcher over the identical
  bytes.  A process engine starts one on the first call that needs it (a
  batch at or above the cut-off, or a caller that finds the inline path
  busy): workers attach the store's shared-memory segment zero-copy
  (:mod:`repro.cluster.shm`) and build their shards from the pickled spec —
  an index's process-sharded store was decomposed straight into that
  segment, so every pool of the index attaches the same one, while a store
  without a segment (a direct engine's, a mapped or an opened one) is
  published by copy first; results travel back as plain picklable
  :class:`~repro.core.result.SearchResult` objects (float64 survives
  pickling bit for bit) and cost accounts as the explicit
  :meth:`~repro.engine.cost.CostAccount.to_wire` tuples — never as live
  lock-holding models.  Answers and accounts are bitwise the in-process
  executor's.  ``search_shards`` scatters from the calling thread: every
  shard task goes to an idle worker, then the replies are received in send
  order — the worker processes are the parallelism, so no dispatch thread
  sits between the caller and the pipes.

A worker that dies mid-task (killed, OOM, crashed interpreter) surfaces as a
:class:`~repro.errors.TransientBackendError` in that shard's slot —
the same typed error the retry / failover / partial-degrade machinery
already handles — and the pool respawns a replacement so the next query
finds a healthy worker.

Start methods: ``fork`` (the platform default on Linux) attaches workers in
milliseconds; ``spawn`` / ``forkserver`` are supported for callers whose
parent process holds fork-unsafe state — everything a worker needs crosses
the boundary as picklable specs either way.
"""

from __future__ import annotations

import copy
import multiprocessing
import numbers
import pickle
import queue
import threading
from collections import deque

import numpy as np

from repro.cluster.shm import SharedStoreSegment, StoreSpec, attach_store, publish
from repro.core.bond import BondSearcher
from repro.engine.cost import CostAccount
from repro.errors import BackendError, QueryError, TransientBackendError
from repro.storage.decomposed import DecomposedStore
from repro.storage.sharding import ShardPlan, shard_view

#: Seconds a closing pool waits for a worker to exit before terminating it.
_JOIN_TIMEOUT = 5.0


def check_workers(workers) -> int:
    """``workers`` as a worker count, or a :class:`~repro.errors.QueryError`
    if it is not an integer >= 1 — never silently rounded or clamped up."""
    if isinstance(workers, bool) or not isinstance(workers, numbers.Integral) or workers < 1:
        raise QueryError(f"workers must be an integer >= 1, got {workers!r}")
    return int(workers)


class EngineSpec:
    """The picklable recipe for one shard's store view and searcher: a
    :class:`~repro.core.bond.BondSearcher` over a decomposed shard.
    ``bound`` and ``schedule`` are copied per shard, so no two shards share
    mutable scratch.
    """

    def __init__(
        self, *, kind: str = "exact", metric, bound=None, ordering=None, schedule=None
    ) -> None:
        # kind= stays only because bench/layers.py passes it (ROADMAP item 1(c)).
        if kind != "exact":
            raise QueryError(
                "the sharded engine is exact-only; compressed queries are answered "
                f"unsharded by compressed_bond, got kind {kind!r}"
            )
        self.metric = metric
        self.bound = bound
        self.ordering = ordering
        self.schedule = schedule

    def shard_searcher(self, store: DecomposedStore, plan: ShardPlan, shard: int) -> BondSearcher:
        """Shard ``shard``'s searcher over its view of the parent store."""
        return BondSearcher(
            shard_view(store, plan, shard),
            metric=self.metric,
            bound=copy.copy(self.bound),
            ordering=self.ordering,
            schedule=copy.copy(self.schedule),
        )


class InProcessShardExecutor:
    """The executor protocol over shard searchers living in this process:
    the calling thread walks the shards in order (a thread pool never beat
    that here — README, sharding section)."""

    def __init__(self, searchers) -> None:
        self._searchers = searchers

    def search_batch(self, shard: int, queries: np.ndarray, k: int):
        """One shard's batch search: ``(list[SearchResult], CostAccount)``."""
        batch = self._searchers[shard].search_batch(queries, k)
        return batch.results, batch.cost

    def search_shards(self, queries: np.ndarray, k: int, before) -> list:
        """Every shard's ``(results, CostAccount)`` or exception, in shard order."""
        outcomes: list = []
        for shard in range(len(self._searchers)):
            try:
                before(shard)
                outcomes.append(self.search_batch(shard, queries, k))
            except Exception as exc:  # the shard's outcome, not the caller's
                outcomes.append(exc)
        return outcomes

    def close(self) -> None:
        """Nothing to stop: the searchers belong to the engine."""


def _shard_worker_main(conn, store_spec: StoreSpec, engine_spec: EngineSpec, plan: ShardPlan):
    """Worker loop: attach once, build shard searchers lazily, serve tasks.

    A task is ``(shard, queries, k)``; the reply is ``("ok", (results,
    cost_wire))`` or ``("error", exception)``.  Exits on a ``None`` sentinel
    or a closed pipe.
    """
    attached = attach_store(store_spec)
    searchers: dict[int, BondSearcher] = {}
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message is None:
                break
            shard, queries, k = message
            try:
                if shard not in searchers:
                    searchers[shard] = engine_spec.shard_searcher(
                        attached.decomposed, plan, shard
                    )
                batch = searchers[shard].search_batch(queries, k)
                reply = ("ok", (batch.results, batch.cost.to_wire()))
            except Exception as exc:  # ship the typed error back to the parent
                try:
                    pickle.dumps(exc)
                    reply = ("error", exc)
                except Exception:
                    reply = ("error", BackendError(f"shard worker error: {exc!r}"))
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break
    finally:
        searchers.clear()
        attached.close()
        conn.close()


class _Worker:
    """Parent-side handle of one worker process and its pipe."""

    __slots__ = ("process", "conn")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn

    @property
    def pid(self) -> int | None:
        return self.process.pid


class ProcessShardExecutor:
    """A pool of shard-worker processes over one published store.

    A process-sharded engine starts one on the first batch it sends to
    workers; smaller batches run inline (see
    :data:`~repro.core.parallel.POOL_MIN_BATCH`).

    Parameters
    ----------
    segment:
        The published store; the executor takes one reference
        (:meth:`~repro.cluster.shm.SharedStoreSegment.acquire`) and releases
        it on :meth:`close` — the last release unlinks the segment.
    engine_spec:
        The per-shard searcher recipe; must pickle (a custom metric / bound /
        ordering / schedule that does not raises a
        :class:`~repro.errors.QueryError` here, not a cryptic pipe error
        mid-query).
    plan:
        The shard plan; workers slice their shard stores from it.
    workers:
        Worker-process count: an integer >= 1 (clamped to the shard count);
        anything else raises :class:`~repro.errors.QueryError`.
    context:
        Start method (``"fork"`` / ``"spawn"`` / ``"forkserver"``); default
        is the platform's (``fork`` on Linux).
    """

    # Built directly, not only by over(): bench/layers.py does (ROADMAP item 1(c)).
    def __init__(
        self,
        segment: SharedStoreSegment,
        engine_spec: EngineSpec,
        plan: ShardPlan,
        workers: int,
        *,
        context: str | None = None,
    ) -> None:
        self._workers = min(check_workers(workers), plan.num_shards)
        self._segment = segment.acquire()
        self._num_shards = plan.num_shards
        try:
            self._payload = pickle.dumps((segment.spec, engine_spec, plan))
        except Exception as exc:
            self._segment.release()
            raise QueryError(
                "the process shard executor needs picklable engine components "
                "(metric / bound / ordering / schedule); use the thread executor "
                f"for non-picklable ones ({exc})"
            ) from exc
        self._context = multiprocessing.get_context(context)
        self._idle: queue.Queue[_Worker] = queue.Queue()
        self._lock = threading.Lock()
        self._all: list[_Worker] = []
        self._closed = False
        for _ in range(self._workers):
            self._spawn()

    @classmethod
    def over(
        cls,
        store: DecomposedStore,
        engine_spec: EngineSpec,
        plan: ShardPlan,
        workers: int,
        *,
        context: str | None = None,
    ) -> "ProcessShardExecutor":
        """Start a pool over ``store``'s segment (:func:`~repro.cluster.shm.publish`:
        the one its store carries, else a copy); :meth:`close` drops the
        pool's reference, which unlinks a copy."""
        segment = publish(store)
        try:
            return cls(segment, engine_spec, plan, workers, context=context)
        finally:
            # The pool took its own reference; drop publication's.
            segment.release()

    # -- lifecycle ----------------------------------------------------------

    def _spawn(self) -> None:
        spec, engine_spec, plan = pickle.loads(self._payload)
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_shard_worker_main,
            args=(child_conn, spec, engine_spec, plan),
            name="repro-shard-worker",
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker = _Worker(process, parent_conn)
        with self._lock:
            self._all.append(worker)
        self._idle.put(worker)

    def _retire(self, worker: _Worker) -> None:
        """Forget a dead worker and (if still open) replace it."""
        with self._lock:
            if worker in self._all:
                self._all.remove(worker)
            closed = self._closed
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=_JOIN_TIMEOUT)
        if not closed:
            self._spawn()

    def worker_pids(self) -> list[int]:
        """PIDs of the live worker processes (chaos tests kill these)."""
        with self._lock:
            return [worker.pid for worker in self._all if worker.pid is not None]

    def close(self) -> None:
        """Stop every worker and release the segment reference (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._all)
            self._all.clear()
        for worker in workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in workers:
            worker.process.join(timeout=_JOIN_TIMEOUT)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=_JOIN_TIMEOUT)
            try:
                worker.conn.close()
            except OSError:
                pass
        # Drain stale idle entries so nothing resurrects a closed pool.
        while True:
            try:
                self._idle.get_nowait()
            except queue.Empty:
                break
        self._segment.release()

    # -- dispatch -----------------------------------------------------------

    def _check_open(self) -> None:
        with self._lock:
            if self._closed:
                raise QueryError("the process shard executor is closed")

    def _lost(self, worker: _Worker) -> TransientBackendError:
        """Retire a worker whose pipe broke; the typed error for its task."""
        pid = worker.pid
        self._retire(worker)
        return TransientBackendError(
            f"shard worker (pid {pid}) died mid-task; a replacement was spawned"
        )

    def _send(self, worker: _Worker, shard: int, queries: np.ndarray, k: int) -> None:
        try:
            worker.conn.send((shard, queries, k))
        except OSError as exc:
            raise self._lost(worker) from exc

    def _receive(self, worker: _Worker):
        """The reply to ``worker``'s task; the worker goes back to the idle
        queue (or is replaced, if it died)."""
        try:
            status, payload = worker.conn.recv()
        except (EOFError, OSError) as exc:
            raise self._lost(worker) from exc
        self._idle.put(worker)
        if status == "error":
            raise payload
        results, wire = payload
        return results, CostAccount.from_wire(wire)

    def _call(self, shard: int, queries: np.ndarray, k: int):
        """Run one shard task on any idle worker; typed error if it dies."""
        self._check_open()
        worker = self._idle.get()
        self._send(worker, shard, np.asarray(queries, dtype=np.float64), int(k))
        return self._receive(worker)

    def search_shards(self, queries: np.ndarray, k: int, before) -> list:
        """Every shard's ``(results, CostAccount)`` or exception, in shard order.

        Scatter, then gather: each shard task goes to an idle worker, and
        the replies are received in send order.  A caller still holding an
        unreceived task only *tries* for another worker — when none is idle
        it receives its oldest reply, which frees that worker — and blocks
        on the idle queue only while it holds nothing.  Callers sharing a
        pool with fewer workers than shards therefore never wait on one
        another's workers in a cycle.
        """
        self._check_open()
        queries = np.asarray(queries, dtype=np.float64)
        k = int(k)
        outcomes: list = [None] * self._num_shards
        sent: deque[tuple[int, _Worker]] = deque()

        def gather_oldest() -> None:
            shard, worker = sent.popleft()
            try:
                outcomes[shard] = self._receive(worker)
            except Exception as exc:
                outcomes[shard] = exc

        def next_worker() -> _Worker:
            while sent:
                try:
                    return self._idle.get_nowait()
                except queue.Empty:
                    gather_oldest()
            return self._idle.get()

        try:
            for shard in range(self._num_shards):
                try:
                    before(shard)
                    worker = next_worker()
                    self._send(worker, shard, queries, k)
                except Exception as exc:
                    outcomes[shard] = exc
                    continue
                sent.append((shard, worker))
        finally:
            # Even when interrupted, every sent task is received, so its
            # worker returns to the idle queue.
            while sent:
                gather_oldest()
        return outcomes

    def search_batch(self, shard: int, queries: np.ndarray, k: int):
        """One shard's batch search: ``(list[SearchResult], CostAccount)``."""
        return self._call(shard, queries, k)

    def search(self, shard: int, query: np.ndarray, k: int):
        """One shard's single-query search, run as a batch of one:
        ``(SearchResult, CostAccount)``."""
        results, cost = self._call(shard, np.asarray(query)[None], k)
        return results[0], cost
