"""Shard executors: what one shard is, and where its searches run.

:class:`EngineSpec` is the **single recipe** for "one shard of engine kind
X": from ``(kind, metric, bound, ordering, schedule)`` it cuts a shard's
store views out of the parent's (a zero-copy row slice of the exact store
with a private :class:`~repro.engine.cost.CostModel` and, for
``kind="compressed"``, the matching code-column slice under the parent's
quantisation grid) and builds that shard's searcher.  Both executors build
from it and answer the same two-method protocol —

* ``search_batch(shard, queries, k) -> (results, CostAccount)``: one shard's
  top-k lists for a query matrix plus the cost account the shard's searcher
  measured for it (a single query is a batch of one);
* ``close()``;

— so the sharded engine of :mod:`repro.core.parallel` dispatches, applies its
failure policy and merges without knowing which one it holds:

* :class:`InProcessShardExecutor` runs the shard searchers in the calling
  process, against the parent's own arrays;
* :class:`ProcessShardExecutor` moves each shard's whole search into a
  **worker process** running the identical searcher over the identical
  bytes: the parent publishes the store's fragment columns once into shared
  memory (:mod:`repro.cluster.shm`), workers attach zero-copy and build their
  shards from the pickled spec, results travel back as plain picklable
  :class:`~repro.core.result.SearchResult` objects (float64 survives
  pickling bit for bit) and cost accounts as the explicit
  :meth:`~repro.engine.cost.CostAccount.to_wire` tuples — never as live
  lock-holding models.  Answers and accounts are bitwise the in-process
  executor's.

A worker that dies mid-task (killed, OOM, crashed interpreter) surfaces as a
:class:`~repro.errors.TransientBackendError` raised from that shard's task —
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
import pickle
import queue
import threading

import numpy as np

from repro.cluster.shm import SharedStoreSegment, StoreSpec, attach_store
from repro.core.bond import BondSearcher
from repro.core.compressed import CompressedBondSearcher
from repro.engine.cost import CostAccount
from repro.errors import BackendError, QueryError, TransientBackendError
from repro.storage.compressed import CompressedStore
from repro.storage.decomposed import DecomposedStore
from repro.storage.sharding import ShardPlan, shard_view

#: Seconds a closing pool waits for a worker to exit before terminating it.
_JOIN_TIMEOUT = 5.0


class EngineSpec:
    """The picklable recipe for one shard's store views and searcher.

    ``kind`` is ``"exact"`` (:class:`~repro.core.bond.BondSearcher` over a
    decomposed shard) or ``"compressed"``
    (:class:`~repro.core.compressed.CompressedBondSearcher` over a compressed
    shard view); this class is the only place that branches on it.  ``bound``
    and ``schedule`` are copied per shard, so no two shards share mutable
    scratch.
    """

    def __init__(self, *, kind: str, metric, bound=None, ordering=None, schedule=None) -> None:
        if kind not in ("exact", "compressed"):
            raise QueryError(f"engine kind must be 'exact' or 'compressed', got {kind!r}")
        if kind == "compressed" and bound is not None:
            raise QueryError("the compressed filter derives its own bounds; bound= is exact-only")
        self.kind = kind
        self.metric = metric
        self.bound = bound
        self.ordering = ordering
        self.schedule = schedule

    @classmethod
    def for_store(cls, store: DecomposedStore | CompressedStore, **components) -> "EngineSpec":
        """The spec whose kind matches ``store`` (the kind follows the store)."""
        kind = "compressed" if isinstance(store, CompressedStore) else "exact"
        return cls(kind=kind, **components)

    def split(
        self, store: DecomposedStore | CompressedStore
    ) -> tuple[DecomposedStore, CompressedStore | None]:
        """``store`` as the ``(exact, compressed)`` pair a publication or an
        attachment carries (``compressed`` is ``None`` for the exact kind)."""
        return (store.exact, store) if self.kind == "compressed" else (store, None)

    def shard_searcher(
        self,
        exact: DecomposedStore,
        compressed: CompressedStore | None,
        plan: ShardPlan,
        shard: int,
    ) -> BondSearcher | CompressedBondSearcher:
        """Shard ``shard``'s searcher over its views of the parent store(s).

        The compressed view shares the exact view's private cost model, so
        one account covers a shard's filter *and* refinement work.
        """
        view = shard_view(exact, plan, shard)
        schedule = copy.copy(self.schedule)
        if self.kind == "compressed":
            start, stop = plan.ranges[shard]
            return CompressedBondSearcher(
                CompressedStore.row_slice(compressed, start, stop, exact=view),
                metric=self.metric,
                ordering=self.ordering,
                schedule=schedule,
            )
        return BondSearcher(
            view,
            metric=self.metric,
            bound=copy.copy(self.bound),
            ordering=self.ordering,
            schedule=schedule,
        )


class InProcessShardExecutor:
    """The executor protocol over shard searchers living in this process."""

    def __init__(self, searchers) -> None:
        self._searchers = searchers

    def search_batch(self, shard: int, queries: np.ndarray, k: int):
        """One shard's batch search: ``(list[SearchResult], CostAccount)``."""
        batch = self._searchers[shard].search_batch(queries, k)
        return batch.results, batch.cost

    def close(self) -> None:
        """Nothing to release: the searchers belong to the engine."""


def _shard_worker_main(conn, store_spec: StoreSpec, engine_spec: EngineSpec, plan: ShardPlan):
    """Worker loop: attach once, build shard searchers lazily, serve tasks.

    A task is ``(shard, queries, k)``; the reply is ``("ok", (results,
    cost_wire))`` or ``("error", exception)``.  Exits on a ``None`` sentinel
    or a closed pipe.
    """
    attached = attach_store(store_spec)
    searchers: dict[int, BondSearcher | CompressedBondSearcher] = {}
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
                        attached.decomposed, attached.compressed, plan, shard
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
        Worker-process count (clamped to the shard count).
    context:
        Start method (``"fork"`` / ``"spawn"`` / ``"forkserver"``); default
        is the platform's (``fork`` on Linux).
    """

    def __init__(
        self,
        segment: SharedStoreSegment,
        engine_spec: EngineSpec,
        plan: ShardPlan,
        workers: int,
        *,
        context: str | None = None,
    ) -> None:
        self._segment = segment.acquire()
        self._workers = max(1, min(int(workers), plan.num_shards))
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
        store: DecomposedStore | CompressedStore,
        engine_spec: EngineSpec,
        plan: ShardPlan,
        workers: int,
        *,
        context: str | None = None,
    ) -> "ProcessShardExecutor":
        """Publish ``store`` and start a pool over it; the pool holds the
        segment's only reference, so :meth:`close` unlinks it."""
        exact, compressed = engine_spec.split(store)
        segment = SharedStoreSegment(exact, compressed=compressed)
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

    def _call(self, shard: int, queries: np.ndarray, k: int):
        """Run one shard task on any idle worker; typed error if it dies."""
        with self._lock:
            if self._closed:
                raise QueryError("the process shard executor is closed")
        worker = self._idle.get()
        try:
            worker.conn.send((shard, np.asarray(queries, dtype=np.float64), int(k)))
            status, payload = worker.conn.recv()
        except (EOFError, BrokenPipeError, OSError) as exc:
            pid = worker.pid
            self._retire(worker)
            raise TransientBackendError(
                f"shard worker (pid {pid}) died mid-task; a replacement was spawned"
            ) from exc
        self._idle.put(worker)
        if status == "error":
            raise payload
        results, wire = payload
        return results, CostAccount.from_wire(wire)

    def search_batch(self, shard: int, queries: np.ndarray, k: int):
        """One shard's batch search: ``(list[SearchResult], CostAccount)``."""
        return self._call(shard, queries, k)

    def search(self, shard: int, query: np.ndarray, k: int):
        """One shard's single-query search, run as a batch of one:
        ``(SearchResult, CostAccount)``."""
        results, cost = self._call(shard, np.asarray(query)[None], k)
        return results[0], cost
