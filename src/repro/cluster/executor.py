"""The process-pool shard executor: shard searchers in worker processes.

This is the multi-core back end of the sharded engines in
:mod:`repro.core.parallel`.  The thread pool there already parallelises the
NumPy block operations (which release the GIL), but every Python-level byte
of the scan loop still serialises on one interpreter; this executor moves
each shard's whole search into a **worker process** running the identical
searcher over the identical bytes:

* the parent publishes the store's fragment columns once into shared memory
  (:mod:`repro.cluster.shm`) — workers attach zero-copy;
* per-shard stores are the same :meth:`row_slice` views over the same shard
  plan, charging the same private :class:`~repro.engine.cost.CostModel`
  from the same checkpoints, so a worker's ``(result, cost delta)`` is
  bitwise what the thread path computes for that shard;
* results travel back as plain picklable
  :class:`~repro.core.result.SearchResult` objects (float64 survives
  pickling bit for bit) and cost deltas as the explicit
  :meth:`~repro.engine.cost.CostAccount.to_wire` tuples — never as live
  lock-holding models.

The parent keeps the existing thread-pool *dispatch* (one thread per shard
task blocks on its worker's pipe), so the ``shard.map`` fault point, the
``on_shard_failure`` policies and the deterministic merge in
:mod:`repro.core.parallel` apply unchanged.  A worker that dies mid-task
(killed, OOM, crashed interpreter) surfaces as a
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
from repro.engine.cost import CostAccount, CostModel
from repro.errors import BackendError, QueryError, TransientBackendError
from repro.storage.compressed import CompressedStore
from repro.storage.decomposed import DecomposedStore
from repro.storage.sharding import ShardPlan

#: Seconds a closing pool waits for a worker to exit before terminating it.
_JOIN_TIMEOUT = 5.0


class EngineSpec:
    """The picklable recipe a worker uses to build one shard's searcher.

    Mirrors exactly the constructor arguments the thread-path engines in
    :mod:`repro.core.parallel` forward to their per-shard searchers —
    including the per-shard ``copy.copy`` of bound and schedule, which the
    worker re-applies so no two shards share mutable scratch.
    """

    def __init__(
        self,
        *,
        kind: str,
        metric,
        bound=None,
        ordering=None,
        schedule=None,
        candidate_mode: str = "auto",
        switch_selectivity: float = 0.05,
    ) -> None:
        if kind not in ("exact", "compressed"):
            raise QueryError(f"engine kind must be 'exact' or 'compressed', got {kind!r}")
        self.kind = kind
        self.metric = metric
        self.bound = bound
        self.ordering = ordering
        self.schedule = schedule
        self.candidate_mode = candidate_mode
        self.switch_selectivity = switch_selectivity

    def build_searcher(self, store):
        """One shard's searcher over its (attached) shard store."""
        if self.kind == "compressed":
            return CompressedBondSearcher(
                store,
                metric=self.metric,
                ordering=self.ordering,
                schedule=copy.copy(self.schedule) if self.schedule is not None else None,
            )
        return BondSearcher(
            store,
            metric=self.metric,
            bound=copy.copy(self.bound) if self.bound is not None else None,
            ordering=self.ordering,
            schedule=copy.copy(self.schedule) if self.schedule is not None else None,
            candidate_mode=self.candidate_mode,
            switch_selectivity=self.switch_selectivity,
        )


def _shard_worker_main(conn, store_spec: StoreSpec, engine_spec: EngineSpec, plan: ShardPlan):
    """Worker loop: attach once, build shard searchers lazily, serve tasks.

    Replies ``("ok", (payload, cost_wire))`` or ``("error", exception)``;
    exits on a ``None`` sentinel or a closed pipe.  The per-task cost delta
    is checkpointed exactly like the thread path: searcher construction
    happens *before* the checkpoint, the search inside it.
    """
    attached = attach_store(store_spec)
    shards: dict[int, tuple] = {}

    def shard_state(shard: int) -> tuple:
        state = shards.get(shard)
        if state is None:
            start, stop = plan.ranges[shard]
            cost = CostModel()
            exact = DecomposedStore.row_slice(
                attached.decomposed,
                start,
                stop,
                cost=cost,
                name=f"{store_spec.name}.shard{shard}",
            )
            if engine_spec.kind == "compressed":
                store = CompressedStore.row_slice(
                    attached.compressed, start, stop, exact=exact
                )
            else:
                store = exact
            state = (store, engine_spec.build_searcher(store))
            shards[shard] = state
        return state

    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message is None:
                break
            kind, shard, payload, k = message
            try:
                store, searcher = shard_state(shard)
                checkpoint = store.cost.checkpoint()
                if kind == "search":
                    result = searcher.search(payload, k)
                elif kind == "batch":
                    result = searcher.search_batch(payload, k).results
                else:
                    raise QueryError(f"unknown shard task {kind!r}")
                wire = store.cost.since(checkpoint).to_wire()
                reply = ("ok", (result, wire))
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
        shards.clear()
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
        self._plan = plan
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

    @property
    def workers(self) -> int:
        """Worker-process budget of the pool."""
        return self._workers

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

    def _call(self, message):
        """Run one shard task on any idle worker; typed error if it dies."""
        with self._lock:
            if self._closed:
                raise QueryError("the process shard executor is closed")
        worker = self._idle.get()
        try:
            worker.conn.send(message)
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
        return payload

    def search(self, shard: int, query: np.ndarray, k: int):
        """One shard's single-query search: ``(SearchResult, CostAccount)``."""
        result, wire = self._call(
            ("search", shard, np.asarray(query, dtype=np.float64), int(k))
        )
        return result, CostAccount.from_wire(wire)

    def search_batch(self, shard: int, queries: np.ndarray, k: int):
        """One shard's batch search: ``(list[SearchResult], CostAccount)``."""
        results, wire = self._call(("batch", shard, queries, int(k)))
        return results, CostAccount.from_wire(wire)
