"""The cluster subsystem: shared-memory publication and process-pool shard
workers.

The load-bearing contract is **bitwise identity**: for any shard count,
worker count, backend and mode — exact, compressed, and the live-tail
overlay — the process-pool answer (OIDs, scores, cost account) must equal
the inline answer must equal the unsharded answer, bit for bit.  On
top sit the lifecycle guarantees (reference-counted segments, nothing left
in ``/dev/shm`` after ``close()``) and the failure matrix (a killed worker
surfaces as a typed transient error or a degraded partial answer — never a
wrong one — and the pool respawns a replacement).
"""

from __future__ import annotations

import errno
import gc
import glob
import multiprocessing
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import SeedBondSearcher

import repro.core.parallel as parallel_module
from repro.api.index import Index
from repro.api.query import Query
from repro.cluster import (
    EngineSpec,
    SharedStoreSegment,
    attach_store,
)
from repro.cluster.executor import InProcessShardExecutor, ProcessShardExecutor
from repro.cluster.shm import decompose_shared, publish
from repro.core.bond import BondSearcher
from repro.core.compressed import CompressedBondSearcher
from repro.core.parallel import POOL_MIN_BATCH, ShardedBondSearcher
from repro.core.result import BatchSearchResult
from repro.engine.cost import CostAccount
from repro.errors import (
    FaultInjectionError,
    QueryError,
    StorageError,
    TransientBackendError,
)
from repro.metrics.euclidean import SquaredEuclidean
from repro.metrics.histogram import HistogramIntersection
from repro.reliability import FaultPlan, fault_point
from repro.storage.compressed import CompressedStore
from repro.storage.decomposed import DecomposedStore
from repro.storage.sharding import ShardPlan


def leaked_segments() -> list[str]:
    return glob.glob("/dev/shm/repro_shm_*")


def results_identical(left, right) -> bool:
    return bool(
        left.oids.tobytes() == right.oids.tobytes()
        and left.scores.tobytes() == right.scores.tobytes()
    )


def as_list(answer) -> list:
    """A single answer or a batch's answers, as a list."""
    return list(answer) if isinstance(answer, BatchSearchResult) else [answer]


def pool_batch(vectors: np.ndarray, first: int) -> np.ndarray:
    """The smallest batch a process engine scatters to its worker pool (a
    smaller one runs its shards inline): ``POOL_MIN_BATCH`` rows of
    ``vectors``, every 37th from ``first`` on, wrapping."""
    return vectors[(first + 37 * np.arange(POOL_MIN_BATCH)) % vectors.shape[0]]


@pytest.fixture(scope="module")
def collection(corel_histograms):
    # Small enough that a worker pool spins up in well under a second; the
    # values are rounded to two decimals (then renormalised, keeping them
    # valid histograms) so score ties are common and the deterministic
    # tie-break is genuinely exercised.
    rounded = np.round(np.asarray(corel_histograms[:300], dtype=np.float64), 2)
    rounded[rounded.sum(axis=1) == 0.0, 0] = 1.0
    return rounded / rounded.sum(axis=1, keepdims=True)


# -- the cost-delta wire form -------------------------------------------------


class TestCostWire:
    def test_round_trip_preserves_every_counter(self):
        account = CostAccount(
            bytes_read=11,
            tuples_scanned=22,
            arithmetic_ops=33,
            comparisons=44,
            heap_operations=55,
            random_accesses=66,
            sequential_accesses=77,
        )
        wire = account.to_wire()
        assert wire == (11, 22, 33, 44, 55, 66, 77)
        assert CostAccount.from_wire(wire).as_dict() == account.as_dict()

    def test_wire_is_plain_ints(self):
        wire = CostAccount(bytes_read=3).to_wire()
        assert all(type(value) is int for value in wire)

    def test_longer_wire_rejected(self):
        with pytest.raises(ValueError):
            CostAccount.from_wire((1,) * 10)

    def test_shorter_wire_fills_missing_fields_with_zero(self):
        # Forward compatibility: an older worker's shorter tuple still loads.
        account = CostAccount.from_wire((5, 6))
        assert account.bytes_read == 5 and account.tuples_scanned == 6
        assert account.comparisons == 0


# -- publication and attachment ----------------------------------------------


class TestSharedStoreSegment:
    def test_attached_store_is_bitwise_the_published_store(self, collection):
        store = DecomposedStore(collection)
        store.materialize_row_sums()
        segment = SharedStoreSegment(store)
        attached = attach_store(segment.spec)
        try:
            for dim in range(store.dimensionality):
                assert (
                    attached.decomposed._tails[dim].tobytes()
                    == store._tails[dim].tobytes()
                )
            assert attached.decomposed.has_row_sums
            assert attached.decomposed.cardinality == store.cardinality
            assert attached.decomposed.format.dtype == store.format.dtype
        finally:
            attached.close()
            segment.release()
        assert not leaked_segments()

    def test_compressed_attachment_shares_grid_and_codes(self, collection):
        exact = DecomposedStore(collection)
        compressed = CompressedStore(exact, bits=8)
        segment = SharedStoreSegment(exact, compressed=compressed)
        attached = attach_store(segment.spec)
        try:
            assert attached.compressed is not None
            assert attached.compressed.bits == 8
            np.testing.assert_array_equal(
                attached.compressed.minimums, compressed.minimums
            )
            for dim in range(exact.dimensionality):
                assert (
                    attached.compressed._code_tails[dim].tobytes()
                    == compressed._code_tails[dim].tobytes()
                )
        finally:
            attached.close()
            segment.release()
        assert not leaked_segments()

    def test_mismatched_compressed_store_rejected(self, collection):
        exact = DecomposedStore(collection)
        other = CompressedStore(DecomposedStore(collection), bits=8)
        with pytest.raises(StorageError):
            SharedStoreSegment(exact, compressed=other)

    def test_refcounting_unlinks_on_last_release_only(self, collection):
        segment = SharedStoreSegment(DecomposedStore(collection))
        name = segment.name
        segment.acquire()
        assert segment.references == 2
        segment.release()
        assert os.path.exists(f"/dev/shm/{name}")
        segment.release()
        assert not os.path.exists(f"/dev/shm/{name}")
        assert segment.references == 0
        with pytest.raises(StorageError):
            segment.acquire()
        # Releasing past zero stays a no-op.
        segment.release()

    def test_unpicklable_engine_component_fails_fast(self, collection):
        class Unpicklable(HistogramIntersection):
            def __reduce__(self):
                raise TypeError("nope")

        store = DecomposedStore(collection)
        segment = SharedStoreSegment(store)
        plan = ShardPlan.balanced(store.cardinality, 2)
        with pytest.raises(QueryError, match="picklable"):
            ProcessShardExecutor(
                segment, EngineSpec(kind="exact", metric=Unpicklable()), plan, 2
            )
        # The rejected constructor released its reference; ours remains.
        assert segment.references == 1
        segment.release()
        assert not leaked_segments()

    @pytest.mark.parametrize("code", [errno.ENOSPC, errno.EIO], ids=["ENOSPC", "EIO"])
    def test_segment_reservation_failure_leaves_no_segment(
        self, collection, monkeypatch, code
    ):
        # A sparse segment past a full /dev/shm would SIGBUS on the first
        # write; reserving its blocks turns that into an error up front.
        def full(fd, offset, length):
            raise OSError(code, os.strerror(code))

        monkeypatch.setattr(os, "posix_fallocate", full)
        store = DecomposedStore(collection)
        expected = StorageError if code == errno.ENOSPC else OSError
        with pytest.raises(expected) as caught:
            SharedStoreSegment(store)
        if code == errno.ENOSPC:
            assert "/dev/shm" in str(caught.value)
        with pytest.raises(expected):
            decompose_shared(collection)
        assert not leaked_segments()

    def test_decomposed_into_a_segment_is_bitwise_the_private_store(self, collection):
        for spec in ("float64", "float32", "float16"):
            private = DecomposedStore(collection, format=spec)
            shared = decompose_shared(collection, format=spec)
            try:
                memory = np.frombuffer(shared.segment._buffer, dtype=np.uint8)
                for dim in range(private.dimensionality):
                    assert shared._tails[dim].tobytes() == private._tails[dim].tobytes()
                    assert np.shares_memory(shared._tails[dim], memory)
                assert shared._row_sums.tail.tobytes() == private._row_sums.tail.tobytes()
                assert np.shares_memory(shared._flat[0], memory)
                oids = np.array([7, 3, 250, 3])
                assert (
                    shared.gather_block([5, 0, 2], oids).tobytes()
                    == private.gather_block([5, 0, 2], oids).tobytes()
                )
                attached = attach_store(shared.segment.spec)
                try:
                    for dim in range(private.dimensionality):
                        assert (
                            attached.decomposed._tails[dim].tobytes()
                            == private._tails[dim].tobytes()
                        )
                finally:
                    attached.close()
            finally:
                shared.segment.release()
        with pytest.raises(StorageError):
            decompose_shared(collection, format="float64/mmap")
        assert not leaked_segments()

    def test_release_never_waits_on_a_held_view(self, collection):
        store = decompose_shared(collection)
        column = store.fragment_tail(4)
        name = store.segment.name
        store.segment.release()
        assert not os.path.exists(f"/dev/shm/{name}")
        del store
        assert column.tobytes() == np.ascontiguousarray(collection[:, 4]).tobytes()

    def test_publish_attaches_a_carried_segment_and_copies_otherwise(self, collection):
        shared = decompose_shared(collection)
        private = DecomposedStore(collection)
        try:
            assert publish(shared) is shared.segment
            assert shared.segment.references == 2
            shared.segment.release()
            codes = publish(shared, compressed=CompressedStore(shared, bits=8))
            assert codes.spec.segment == shared.segment.name
            assert codes.spec.code_segment == codes.name != shared.segment.name
            assert codes.spec.columns == shared.segment.spec.columns
            # The code segment holds the carried one until it goes itself.
            assert shared.segment.references == 2
            codes.release()
            assert shared.segment.references == 1
            copy = publish(private)
            assert copy.spec.segment == copy.name
            copy.release()
        finally:
            shared.segment.release()
        # A released carried segment is not attached again: the store is
        # published like any other.
        again = publish(shared)
        assert again is not shared.segment
        again.release()
        assert not leaked_segments()


# -- bitwise identity: process == thread == unsharded -------------------------


class TestProcessPoolIdentity:
    @settings(max_examples=6, deadline=None)
    @given(
        shards=st.integers(min_value=1, max_value=4),
        workers=st.integers(min_value=1, max_value=3),
        compressed=st.booleans(),
        euclidean=st.booleans(),
    )
    def test_any_shard_and_worker_count_matches_thread_and_unsharded(
        self, collection, shards, workers, compressed, euclidean
    ):
        metric = SquaredEuclidean() if euclidean else HistogramIntersection()
        queries = pool_batch(collection, 7)
        if compressed:
            make_store = lambda: CompressedStore(DecomposedStore(collection), bits=8)
            single = CompressedBondSearcher(make_store(), metric=metric)
        else:
            make_store = lambda: DecomposedStore(collection)
            single = BondSearcher(make_store(), metric=metric)
        with ShardedBondSearcher(
            make_store(), metric=metric, shards=shards, executor="thread"
        ) as threaded, ShardedBondSearcher(
            make_store(), metric=metric, shards=shards, workers=workers,
            executor="process",
        ) as processed:
            for vector in queries:
                reference = single.search(vector, 10)
                via_threads = threaded.search(vector, 10)
                via_processes = processed.search(vector, 10)
                assert results_identical(reference, via_threads)
                assert results_identical(via_threads, via_processes)
                assert (
                    via_threads.cost.as_dict() == via_processes.cost.as_dict()
                )
            thread_batch = threaded.search_batch(queries, 6)
            process_batch = processed.search_batch(queries, 6)
            for left, right in zip(thread_batch.results, process_batch.results):
                assert results_identical(left, right)
            assert thread_batch.cost.as_dict() == process_batch.cost.as_dict()
        assert not leaked_segments()

    def test_forced_score_ties_merge_identically(self):
        # Four identical blocks of rows: every score appears four times, so
        # the merged top-k is decided purely by the ascending-OID tie-break.
        block = np.round(np.random.default_rng(5).random((25, 8)), 1) + 0.05
        block /= block.sum(axis=1, keepdims=True)
        data = np.vstack([block, block, block, block])
        query = block[3]
        single = BondSearcher(DecomposedStore(data), metric=HistogramIntersection())
        reference = single.search(query, 12)
        with ShardedBondSearcher(
            DecomposedStore(data), shards=4, workers=2, executor="process"
        ) as engine:
            result = engine.search(query, 12)
        assert results_identical(reference, result)
        assert not leaked_segments()

    def test_spawn_context_matches_fork(self, collection):
        with ShardedBondSearcher(
            DecomposedStore(collection), shards=2, workers=2, executor="process"
        ) as forked, ShardedBondSearcher(
            DecomposedStore(collection),
            shards=2,
            workers=2,
            executor="process",
            process_context="spawn",
        ) as spawned:
            left = forked.search_batch(pool_batch(collection, 9), 10)
            right = spawned.search_batch(pool_batch(collection, 9), 10)
            assert forked._executor is not None and spawned._executor is not None
        assert all(map(results_identical, left, right))
        assert left.cost.as_dict() == right.cost.as_dict()
        assert not leaked_segments()

    def test_invalid_executor_rejected(self, collection):
        with pytest.raises(QueryError, match="executor must be one of"):
            ShardedBondSearcher(
                DecomposedStore(collection), shards=2, executor="rocket"
            )

    @pytest.mark.parametrize("workers", [0, -3, 2.7, 2.0, "2", True])
    def test_invalid_worker_count_rejected_not_clamped(self, collection, workers):
        store = DecomposedStore(collection)
        with pytest.raises(QueryError, match="workers must be an integer >= 1"):
            ShardedBondSearcher(store, shards=2, workers=workers, executor="process")
        spec = EngineSpec.for_store(store, metric=HistogramIntersection())
        with pytest.raises(QueryError, match="workers must be an integer >= 1"):
            ProcessShardExecutor.over(
                store, spec, ShardPlan.balanced(store.cardinality, 2), workers
            )
        assert not leaked_segments()

    def test_worker_count_above_shard_count_is_clamped(self, collection):
        with ShardedBondSearcher(
            DecomposedStore(collection), shards=2, workers=np.int64(5), executor="process"
        ) as engine:
            engine.search_batch(pool_batch(collection, 3), 5)
            assert len(engine._executor.worker_pids()) == 2


# -- facade integration -------------------------------------------------------


class TestIndexProcessExecutor:
    def test_facade_answers_identical_across_executors(self, collection):
        reference = Index.build(collection, shards=1)
        threaded = Index.build(collection, shards=3, shard_executor="thread")
        processed = Index.build(collection, shards=3, shard_executor="process")
        try:
            # A single query runs its shards inline; the batch goes to the pool.
            for query_vector in (collection[11], pool_batch(collection, 11)):
                for mode in ("exact", "compressed"):
                    base = reference.answer(Query(query_vector, k=9, mode=mode))
                    left = threaded.answer(
                        Query(query_vector, k=9, mode=mode, backend="sharded_bond")
                    )
                    right = processed.answer(
                        Query(query_vector, k=9, mode=mode, backend="sharded_bond")
                    )
                    assert all(map(results_identical, as_list(base), as_list(left)))
                    assert all(map(results_identical, as_list(left), as_list(right)))
        finally:
            reference.close()
            threaded.close()
            processed.close()
        assert not leaked_segments()

    def test_live_tail_overlay_identical_across_executors(self, collection):
        query_vector = pool_batch(collection, 40)
        threaded = Index.build(collection, shards=3, shard_executor="thread")
        processed = Index.build(collection, shards=3, shard_executor="process")
        try:
            fresh = np.round(collection[:5] * 0.5 + 0.05, 2)
            for index in (threaded, processed):
                index.insert(fresh)
                index.delete([2, 17, 33])
            left = threaded.answer(Query(query_vector, k=9, backend="sharded_bond"))
            right = processed.answer(Query(query_vector, k=9, backend="sharded_bond"))
            assert all(map(results_identical, left, right))
        finally:
            threaded.close()
            processed.close()
        assert not leaked_segments()

    def test_planner_charges_process_scatter_premium(self, collection):
        threaded = Index.build(collection, shards=3, shard_executor="thread")
        processed = Index.build(collection, shards=3, shard_executor="process")
        try:
            query = Query(collection[0], k=5, backend="sharded_bond")
            cheap = threaded.plan(query)
            dear = processed.plan(query)
            assert dear.estimate.arithmetic_ops > cheap.estimate.arithmetic_ops
            assert "process" in dear.estimate.detail
        finally:
            threaded.close()
            processed.close()

    def test_shard_executor_survives_the_manifest_round_trip(
        self, collection, tmp_path
    ):
        index = Index.build(collection, shards=2, shard_executor="process")
        index.save(tmp_path / "store")
        index.close()
        reopened = Index.open(tmp_path / "store")
        try:
            assert reopened.shard_executor == "process"
            assert reopened.shards == 2
        finally:
            reopened.close()

    def test_close_shuts_worker_pools_and_context_manager_closes(self, collection):
        with Index.build(collection, shards=2, shard_executor="process") as index:
            index.answer(Query(pool_batch(collection, 3), k=5, backend="sharded_bond"))
            searcher = next(iter(index._epoch.searchers.values()))
            pool = searcher._executor
            assert pool is not None and pool.worker_pids()
        deadline = time.monotonic() + 10
        while any(_alive(pid) for pid in pool.worker_pids()):
            assert time.monotonic() < deadline, "workers survived close()"
            time.sleep(0.05)
        assert not leaked_segments()

    def test_reorganize_retires_the_old_epoch_resources(self, collection):
        index = Index.build(collection, shards=2, shard_executor="process")
        try:
            index.answer(Query(pool_batch(collection, 3), k=5, backend="sharded_bond"))
            old_epoch = index._epoch
            assert old_epoch.searchers
            index.insert(np.round(collection[:2] * 0.9, 2))
            index.reorganize()
            assert index._epoch is not old_epoch
            assert not old_epoch.searchers
            assert not leaked_segments()
            # The new epoch answers normally (fresh pool on demand).
            index.answer(Query(pool_batch(collection, 3), k=5, backend="sharded_bond"))
        finally:
            index.close()
        assert not leaked_segments()

    def test_invalid_shard_executor_rejected(self, collection):
        # The facade reuses the engine's check (and its message).
        with pytest.raises(QueryError, match="executor must be one of"):
            Index.build(collection, shards=2, shard_executor="carrier-pigeon")


class TestPoolOnNeed:
    """A process-sharded index runs a batch below ``POOL_MIN_BATCH`` inline
    on the calling thread and scatters larger batches, or a call that finds
    another running inline, to its worker pool, which starts on that first
    need.  Either way the answer and cost account are the thread index's."""

    def test_small_batches_start_no_worker_pool(self, collection):
        children = set(multiprocessing.active_children())
        with Index.build(collection, shards=2, shard_executor="process") as index:
            for mode in ("exact", "compressed"):
                for vectors in (collection[5], collection[: POOL_MIN_BATCH - 1]):
                    index.answer(Query(vectors, k=5, mode=mode, backend="sharded_bond"))
            engines = list(index._epoch.searchers.values())
            assert len(engines) == 2
            assert all(engine._executor is None for engine in engines)
            assert set(multiprocessing.active_children()) == children
        assert not leaked_segments()

    @pytest.mark.parametrize("mode", ["exact", "compressed"])
    def test_answers_and_costs_match_the_thread_index_across_the_cut_off(
        self, collection, mode
    ):
        threaded = Index.build(collection, shards=3, shard_executor="thread")
        processed = Index.build(collection, shards=3, shard_executor="process")
        try:
            for size in (1, POOL_MIN_BATCH - 1, POOL_MIN_BATCH, 2 * POOL_MIN_BATCH):
                query = Query(
                    collection[20 : 20 + size], k=8, mode=mode, backend="sharded_bond", batch=True
                )
                left, right = threaded.answer(query), processed.answer(query)
                assert len(right) == size
                assert all(map(results_identical, left, right))
                assert left.cost.as_dict() == right.cost.as_dict()
                (engine,) = processed._epoch.searchers.values()
                assert (engine._executor is not None) == (size >= POOL_MIN_BATCH)
        finally:
            threaded.close()
            processed.close()
        assert not leaked_segments()

    def test_a_caller_that_finds_the_inline_path_busy_goes_to_the_pool(
        self, collection, monkeypatch
    ):
        """Two threads behind a barrier answer single queries on one index.
        Whichever reaches the inline shards first holds them until the other
        has answered, which it can only do through the pool: the two never
        share the in-process shard searchers."""
        rows = [5, 60]
        oracle = SeedBondSearcher(collection)
        index = Index.build(collection, shards=2, shard_executor="process")
        guard, holder = threading.Lock(), []
        answered = threading.Event()
        inline = InProcessShardExecutor.search_shards

        def hold_the_first_inline_call(self, queries, k, before):
            with guard:
                first = not holder
                holder.append(threading.current_thread())
            if first:
                assert answered.wait(timeout=30), "the other caller never answered"
            return inline(self, queries, k, before)

        start = threading.Barrier(2, timeout=30)
        answers: dict = {}
        failures: list = []

        def ask(row: int) -> None:
            try:
                start.wait()
                answers[row] = index.answer(Query(collection[row], k=6, backend="sharded_bond"))
                answered.set()
            except Exception as exc:  # reported below, on the test thread
                failures.append(exc)

        try:
            # The engine exists before the race, as under steady traffic.
            index.answer(Query(collection[0], k=6, backend="sharded_bond"))
            (engine,) = index._epoch.searchers.values()
            assert engine._executor is None
            monkeypatch.setattr(InProcessShardExecutor, "search_shards", hold_the_first_inline_call)
            threads = [threading.Thread(target=ask, args=(row,)) for row in rows]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert not failures
            assert len(holder) == 1  # one caller ran inline
            assert engine._executor is not None  # the other went to the pool
            for row in rows:
                assert results_identical(answers[row], oracle.search(collection[row], 6))
        finally:
            index.close()
        assert not leaked_segments()

    def test_callers_outnumbering_the_cores_never_share_inline_shards(self, collection):
        """Three threads (more than this box's cores) fire single queries at
        one process engine with a short switch interval: every answer must
        be bitwise the sequential one, whichever executor served it."""
        rows = list(range(0, 300, 10))
        reference = ShardedBondSearcher(DecomposedStore(collection), shards=2)
        expected = {row: reference.search(collection[row], 6) for row in rows}
        failures: list = []
        finished: list = []
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ShardedBondSearcher(
                DecomposedStore(collection), shards=2, executor="process"
            ) as engine:

                def drive(offset: int) -> None:
                    try:
                        for row in rows[offset:] + rows[:offset]:
                            got = engine.search(collection[row], 6)
                            assert results_identical(got, expected[row]), row
                        finished.append(True)
                    except Exception as exc:  # reported below, on the test thread
                        failures.append(exc)

                threads = [
                    threading.Thread(target=drive, args=(offset,), daemon=True)
                    for offset in (0, 10, 20)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(switch_interval)
        assert not failures and len(finished) == 3
        assert not leaked_segments()


class TestOneCopy:
    """A process-sharded index keeps one copy of its fragments: its store is
    decomposed straight into one segment, which every process pool of the
    epoch attaches whatever its metric; compressed engines add a segment of
    their code columns alone."""

    QUERIES = (("histogram", HistogramIntersection()), ("euclidean", SquaredEuclidean()))

    def answers_match_oracle(self, index, vectors, row):
        # The row repeated to the size of batch that goes to the worker pool,
        # so every engine starts one.
        batch = np.repeat(vectors[row][None], POOL_MIN_BATCH, axis=0)
        for name, metric in self.QUERIES:
            oracle = SeedBondSearcher(vectors, metric)
            got = index.answer(Query(batch, k=7, metric=name, backend="sharded_bond"))
            for vector, result in zip(batch, got):
                assert results_identical(result, oracle.search(vector, 7)), name

    def test_every_engine_attaches_the_store_segment(self, collection):
        reference = Index.build(collection)
        index = Index.build(collection, shards=3, shard_executor="process")
        try:
            store = index.decomposed
            segment = store.segment
            memory = np.frombuffer(segment._buffer, dtype=np.uint8)
            assert all(np.shares_memory(tail, memory) for tail in store._tails)
            assert np.shares_memory(store._row_sums.tail, memory)
            self.answers_match_oracle(index, collection, 12)
            batch = pool_batch(collection, 12)
            compressed = Query(batch, k=7, mode="compressed")
            assert all(
                map(
                    results_identical,
                    index.answer(Query(batch, k=7, mode="compressed", backend="sharded_bond")),
                    reference.answer(compressed),
                )
            )
            pools = [engine._executor for engine in index._epoch.searchers.values()]
            assert len(pools) == 3
            assert sorted(pool._segment.spec.segment for pool in pools) == [segment.name] * 3
            names = {os.path.basename(path) for path in leaked_segments()}
            code_segments = names - {segment.name}
            assert segment.name in names and len(code_segments) == 1
            # The exact engines hold the store segment itself; the compressed
            # one holds its code segment, which holds the store segment.
            assert segment.references == 4
        finally:
            index.close()
            reference.close()
        assert not leaked_segments()
        assert segment.references == 0
        assert index._epoch.decomposed is None
        # A closed index answers again over a fresh segment.
        try:
            self.answers_match_oracle(index, collection, 30)
            assert index.decomposed.segment is not segment
        finally:
            index.close()
        assert not leaked_segments()

    @pytest.mark.parametrize(
        "options",
        [
            {"shards": 1, "shard_executor": "process"},
            {"shards": 2, "shard_executor": "thread"},
            {"shards": 2, "shard_executor": "process", "format": "float64/mmap"},
        ],
    )
    def test_other_indexes_keep_a_private_store(self, collection, options):
        with Index.build(collection, **options) as index:
            assert index.decomposed.segment is None
            index.answer(Query(collection[3], k=5, backend="sharded_bond"))
        assert not leaked_segments()

    def test_opened_index_publishes_by_copy(self, collection, tmp_path):
        with Index.build(collection, shards=2, shard_executor="process") as built:
            built.save(tmp_path / "store")
        with Index.open(tmp_path / "store") as reopened:
            assert reopened.decomposed.segment is None
            self.answers_match_oracle(reopened, collection, 5)
            assert len(leaked_segments()) == 2  # one copy per metric's engine
        assert not leaked_segments()

    def test_reorganize_keeps_the_old_segment_for_a_pinned_reader(self, collection):
        index = Index.build(collection, shards=2, shard_executor="process")
        fresh = np.round(collection[:4] * 0.5 + 0.05, 2)
        fresh /= fresh.sum(axis=1, keepdims=True)
        merged = np.concatenate([collection, fresh])
        try:
            with index.pin():
                self.answers_match_oracle(index, collection, 8)
                old = index.decomposed.segment
                index.insert(fresh)
                assert index.reorganize() == 1
                # The pinned reader still reads the old generation, over the
                # old segment, which the swap did not release.
                assert os.path.exists(f"/dev/shm/{old.name}")
                self.answers_match_oracle(index, collection, 8)
            gc.collect()
            assert old.references == 0
            assert not leaked_segments()
            self.answers_match_oracle(index, merged, 8)
            assert index.decomposed.segment is not old
            assert len(leaked_segments()) == 1
        finally:
            index.close()
        assert not leaked_segments()

    def test_failed_reorganize_commit_releases_the_new_segment(
        self, collection, tmp_path
    ):
        index = Index.build(collection, shards=2, shard_executor="process")
        try:
            index.save(tmp_path / "store")
            index.insert(np.round(collection[:2] * 0.9, 2))
            plan = FaultPlan(seed=7).arm("manifest.commit", error=FaultInjectionError, times=1)
            with plan:
                with pytest.raises(FaultInjectionError):
                    index.reorganize()
            assert index.generation == 0
            assert len(leaked_segments()) == 1
            assert index.reorganize() == 1
        finally:
            index.close()
        assert not leaked_segments()


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


# -- worker death -------------------------------------------------------------


class TestWorkerDeath:
    def test_fail_mode_raises_typed_error_then_recovers(self, collection):
        queries = pool_batch(collection, 8)
        with ShardedBondSearcher(
            DecomposedStore(collection), shards=2, workers=2, executor="process"
        ) as engine:
            before = engine.search_batch(queries, 6)
            pool = engine._executor
            for pid in pool.worker_pids():
                os.kill(pid, signal.SIGKILL)
            with pytest.raises(TransientBackendError, match="died mid-task"):
                engine.search_batch(queries, 6)
            # Replacements were spawned; the same engine answers again,
            # bitwise as before.
            after = engine.search_batch(queries, 6)
            assert all(map(results_identical, before, after))
        assert not leaked_segments()

    def test_partial_mode_degrades_never_lies(self, collection):
        with ShardedBondSearcher(
            DecomposedStore(collection),
            shards=2,
            workers=2,
            executor="process",
            on_shard_failure="partial",
        ) as engine:
            queries = pool_batch(collection, 8)
            complete = engine.search_batch(queries, 6)
            pool = engine._executor
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            plan = engine.shard_plan
            for degraded in engine.search_batch(queries, 6):
                assert degraded.degraded
                assert len(degraded.failed_shards) >= 1
                surviving = [
                    shard
                    for shard in range(2)
                    if shard not in degraded.failed_shards
                ]
                # Every returned OID really belongs to a surviving shard: the
                # degraded answer is partial, not fabricated.
                for oid in degraded.oids:
                    assert plan.shard_of(int(oid)) in surviving
            # And a later batch (on respawned workers) is complete again.
            recovered = engine.search_batch(queries, 6)
            assert all(map(results_identical, complete, recovered))
            assert not any(result.degraded for result in recovered)
        assert not leaked_segments()


# -- scatter / gather over the worker pool ------------------------------------


def assert_seed_answers(collection, queries, k, results) -> None:
    seed = SeedBondSearcher(collection)
    results = list(results)
    assert len(results) == len(queries)
    for query, result in zip(queries, results):
        assert results_identical(seed.search(query, k), result)


class TestScatterGather:
    @pytest.mark.parametrize("shards", [2, 3])
    def test_one_worker_over_many_shards_is_the_oracle(self, collection, shards):
        queries = pool_batch(collection, 7)
        with ShardedBondSearcher(
            DecomposedStore(collection), shards=shards, workers=1, executor="process"
        ) as engine:
            batch = engine.search_batch(queries, 9)
            # As if another call held the inline searchers: singles go to the pool.
            with engine._inline_lock:
                singles = [engine.search(query, 9) for query in queries]
            assert len(engine._executor.worker_pids()) == 1
        assert_seed_answers(collection, queries, 9, batch)
        assert_seed_answers(collection, queries, 9, singles)

    def test_threads_sharing_one_worker_never_deadlock(self, collection):
        """Three threads (more than this box's cores) scatter 2 shards onto
        one worker: each must finish, and never read another's reply."""
        queries = collection[[3, 77]]
        spec = EngineSpec(kind="exact", metric=HistogramIntersection())
        store = DecomposedStore(collection)
        executor = ProcessShardExecutor.over(
            store, spec, ShardPlan.balanced(store.cardinality, 2), workers=1
        )
        no_fault = lambda shard: None
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            reference = executor.search_shards(queries, 5, no_fault)
            failures: list = []
            finished: list = []

            def drive() -> None:
                try:
                    for _ in range(50):
                        outcomes = executor.search_shards(queries, 5, no_fault)
                        for (want, _), (got, _) in zip(reference, outcomes):
                            assert all(map(results_identical, want, got))
                    finished.append(True)
                except Exception as exc:  # reported below, on the test thread
                    failures.append(exc)

            threads = [threading.Thread(target=drive, daemon=True) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads), "scatter deadlocked"
            assert not failures and len(finished) == 3
        finally:
            sys.setswitchinterval(switch_interval)
            executor.close()

    def test_worker_killed_mid_scatter_degrades_then_recovers(self, collection, monkeypatch):
        queries = pool_batch(collection, 8)
        with ShardedBondSearcher(
            DecomposedStore(collection),
            shards=2,
            workers=2,
            executor="process",
            on_shard_failure="partial",
        ) as engine:
            engine.search_batch(queries, 6)
            pool = engine._executor
            killed = []

            def kill_the_next_worker(point, shard):
                # Shard 0 is already out on one worker; shard 1 is about to
                # be sent to the other, the head of the idle queue.
                if shard == 1 and not killed:
                    killed.append(pool._idle.queue[0].pid)
                    os.kill(killed[0], signal.SIGKILL)

            monkeypatch.setattr(parallel_module, "fault_point", kill_the_next_worker)
            batch = engine.search_batch(queries, 6)
            assert killed
            for degraded in batch:
                assert degraded.degraded and degraded.failed_shards == (1,)
                assert all(engine.shard_plan.shard_of(int(oid)) == 0 for oid in degraded.oids)
            pids = pool.worker_pids()
            assert len(pids) == 2 and killed[0] not in pids
            recovered = engine.search_batch(queries, 6)
            assert not any(result.degraded for result in recovered)
        assert_seed_answers(collection, queries, 6, recovered)

    def test_armed_shard_map_fault_fails_only_that_shard(self, collection):
        queries = pool_batch(collection, 8)
        with ShardedBondSearcher(
            DecomposedStore(collection),
            shards=2,
            executor="process",
            on_shard_failure="partial",
        ) as engine:
            engine.search_batch(queries, 6)
            pids = engine._executor.worker_pids()
            with FaultPlan(seed=1).arm("shard.map", where={"shard": 1}):
                batch = engine.search_batch(queries, 6)
                outcomes = engine._executor.search_shards(
                    queries, 6, lambda shard: fault_point("shard.map", shard=shard)
                )
            for degraded in batch:
                assert degraded.degraded and degraded.failed_shards == (1,)
                assert all(engine.shard_plan.shard_of(int(oid)) == 0 for oid in degraded.oids)
            assert isinstance(outcomes[0], tuple)
            assert isinstance(outcomes[1], TransientBackendError)
            assert engine._executor.worker_pids() == pids  # no worker was lost
            complete = engine.search_batch(queries, 6)
        assert not any(result.degraded for result in complete)
        assert_seed_answers(collection, queries, 6, complete)
