"""The reliability layer: deterministic faults, deadlines, failover, checksums.

The contract pinned here is the one :mod:`repro.reliability` states: under
any seeded fault schedule, every query resolves to either the right answer
(bitwise after a retry, OIDs equal and scores within 1e-9 after a failover)
or a **typed** :class:`~repro.errors.ReproError` — never a silently wrong
answer.
"""

from __future__ import annotations

import asyncio
import dataclasses
import pathlib
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Index, Query
from repro.core.parallel import ShardedBondSearcher
from repro.errors import (
    BackendError,
    CorruptFragmentError,
    DeadlineExceeded,
    FailoverExhausted,
    FaultInjectionError,
    ManifestVersionError,
    ReproError,
    ServingError,
    StorageError,
    TransientBackendError,
)
from repro.reliability import (
    CircuitBreaker,
    FaultPlan,
    FaultSpec,
    RetryBudget,
    RetryPolicy,
    active_plan,
    fault_point,
)
from repro.serving import SearchService, ServingConfig
from repro.storage.persistence import (
    MANIFEST_NAME,
    fragment_checksum,
    fragment_digest,
    fragment_file_name,
    load_decomposed,
    save_decomposed,
)
from repro.storage.decomposed import DecomposedStore


def results_identical(a, b) -> bool:
    return np.array_equal(a.oids, b.oids) and np.array_equal(a.scores, b.scores)


def results_equivalent(a, b) -> bool:
    """Same answer up to cross-backend float-summation order.

    Retrying on the *same* backend is bitwise reproducible; failing over to a
    *different* exact backend can differ in the last ULP of a score (the
    engines accumulate partial similarities in different orders), which is
    why the repo's cross-engine checks compare scores at 1e-9 (see
    :func:`repro.workload.result_scores_match`).  OIDs must still agree.
    """
    return np.array_equal(a.oids, b.oids) and bool(
        np.allclose(a.scores, b.scores, atol=1e-9, rtol=0.0)
    )


@pytest.fixture(scope="module")
def vectors() -> np.ndarray:
    rng = np.random.default_rng(4242)
    histograms = rng.random((300, 16))
    return histograms / histograms.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Fault injection: determinism and semantics
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_error_fault_fires_typed_and_deterministic(self):
        def workload(plan: FaultPlan) -> list[str]:
            outcomes = []
            with plan:
                for _ in range(40):
                    try:
                        fault_point("backend.answer", backend="bond")
                        outcomes.append("ok")
                    except TransientBackendError:
                        outcomes.append("fault")
            return outcomes

        first = workload(FaultPlan(seed=7).arm("backend.answer", rate=0.3))
        second = workload(FaultPlan(seed=7).arm("backend.answer", rate=0.3))
        assert first == second
        assert "fault" in first and "ok" in first
        third = workload(FaultPlan(seed=8).arm("backend.answer", rate=0.3))
        assert third != first  # overwhelmingly likely over 40 Bernoulli draws

    def test_after_and_times_windows(self):
        plan = FaultPlan(seed=1).arm("backend.answer", rate=1.0, after=2, times=3)
        fired = 0
        with plan:
            for _ in range(10):
                try:
                    fault_point("backend.answer")
                except TransientBackendError:
                    fired += 1
        assert fired == 3
        assert plan.fired("backend.answer") == 3
        assert plan.hits("backend.answer") == 10
        # The first two hits passed (after=2), then three fired.
        assert [event.hit for event in plan.events] == [2, 3, 4]

    def test_where_filter_and_custom_error(self):
        plan = FaultPlan(seed=3).arm(
            "shard.map", where={"shard": 1}, error=BackendError, message="shard one down"
        )
        with plan:
            fault_point("shard.map", shard=0)  # filtered out
            with pytest.raises(BackendError, match="shard one down"):
                fault_point("shard.map", shard=1)
        assert plan.fired() == 1

    def test_rate_zero_never_fires_and_plan_exclusive(self):
        plan = FaultPlan(seed=5).arm("executor.dispatch", rate=0.0)
        with plan:
            for _ in range(20):
                fault_point("executor.dispatch")
            with pytest.raises(FaultInjectionError):
                with FaultPlan(seed=6):
                    pass  # pragma: no cover
        assert plan.fired() == 0
        assert active_plan() is None

    def test_unknown_point_and_bad_spec_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultSpec(point="nope.where")
        with pytest.raises(FaultInjectionError):
            FaultSpec(point="shard.map", kind="explode")
        with pytest.raises(FaultInjectionError):
            FaultSpec(point="shard.map", rate=1.5)

    def test_fault_point_is_noop_without_plan(self):
        assert active_plan() is None
        fault_point("backend.answer", backend="bond")  # must not raise


# ---------------------------------------------------------------------------
# Storage integrity: checksums and manifest versions
# ---------------------------------------------------------------------------


class TestChecksums:
    def test_round_trip_with_verification(self, vectors, tmp_path):
        store = DecomposedStore(vectors, name="chk")
        save_decomposed(store, tmp_path)
        loaded = load_decomposed(tmp_path, verify="checksum")
        assert np.array_equal(loaded.matrix, vectors)

    def test_flipped_byte_names_the_fragment(self, vectors, tmp_path):
        save_decomposed(DecomposedStore(vectors, name="chk"), tmp_path)
        victim = tmp_path / fragment_file_name(3)
        blob = bytearray(victim.read_bytes())
        blob[17] ^= 0xFF
        victim.write_bytes(bytes(blob))
        with pytest.raises(CorruptFragmentError, match=fragment_file_name(3)):
            load_decomposed(tmp_path, verify="checksum")
        # Unverified loads still read the (corrupt) bytes — verify is opt-in.
        load_decomposed(tmp_path, verify="none")

    def test_index_open_verify_checksum(self, vectors, tmp_path):
        Index.build(vectors, name="chk").save(tmp_path)
        opened = Index.open(tmp_path, verify="checksum")
        assert opened.cardinality == vectors.shape[0]
        victim = tmp_path / fragment_file_name(0)
        blob = bytearray(victim.read_bytes())
        blob[-1] ^= 0x01
        victim.write_bytes(bytes(blob))
        with pytest.raises(CorruptFragmentError, match=fragment_file_name(0)):
            Index.open(tmp_path, verify="checksum")

    def test_v1_manifest_loads_but_cannot_verify(self, vectors, tmp_path):
        import json

        save_decomposed(DecomposedStore(vectors, name="chk"), tmp_path)
        manifest_path = tmp_path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["layout_version"] = 1
        del manifest["checksums"]
        manifest_path.write_text(json.dumps(manifest))
        loaded = load_decomposed(tmp_path)  # verify="none" still works
        assert loaded.cardinality == vectors.shape[0]
        with pytest.raises(ManifestVersionError, match="re-save"):
            load_decomposed(tmp_path, verify="checksum")

    def test_unsupported_layout_version(self, vectors, tmp_path):
        import json

        save_decomposed(DecomposedStore(vectors, name="chk"), tmp_path)
        manifest_path = tmp_path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["layout_version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ManifestVersionError):
            load_decomposed(tmp_path)

    def test_unknown_verify_mode(self, vectors, tmp_path):
        save_decomposed(DecomposedStore(vectors, name="chk"), tmp_path)
        with pytest.raises(StorageError, match="verify"):
            load_decomposed(tmp_path, verify="paranoid")

    def test_checksum_format(self):
        data = np.arange(8, dtype="<f8")
        digest = fragment_checksum(np.ascontiguousarray(data))
        assert digest.startswith("crc32:") and len(digest) == len("crc32:") + 8
        fold = fragment_digest(data)
        assert fold.startswith("fold64:") and fold == fragment_digest(data.copy())
        assert fragment_digest(np.arange(1, 9, dtype="<f8")) != fold

    def test_crc_fallback_when_manifest_has_no_fold_records(self, vectors, tmp_path):
        import json

        save_decomposed(DecomposedStore(vectors, name="chk"), tmp_path)
        manifest_path = tmp_path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        del manifest["digests"]  # e.g. a manifest written by an external tool
        manifest_path.write_text(json.dumps(manifest))
        loaded = load_decomposed(tmp_path, verify="checksum")
        assert np.array_equal(loaded.matrix, vectors)
        victim = tmp_path / fragment_file_name(2)
        blob = bytearray(victim.read_bytes())
        blob[9] ^= 0x40
        victim.write_bytes(bytes(blob))
        with pytest.raises(CorruptFragmentError, match=fragment_file_name(2)):
            load_decomposed(tmp_path, verify="checksum")

    def test_inconsistent_fold_record_is_corruption(self, vectors, tmp_path):
        import json

        save_decomposed(DecomposedStore(vectors, name="chk"), tmp_path)
        manifest_path = tmp_path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        # The fragment bytes are intact but the fold record rotted: the
        # CRC-32 corroboration must blame the manifest, not pass silently.
        manifest["digests"][fragment_file_name(1)] = "fold64:" + "0" * 16 + ":" + "0" * 16
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CorruptFragmentError, match="inconsistent"):
            load_decomposed(tmp_path, verify="checksum")

    def test_read_fragment_fault_point(self, vectors, tmp_path):
        save_decomposed(DecomposedStore(vectors, name="chk"), tmp_path)
        plan = FaultPlan(seed=2).arm(
            "store.read_fragment", where={"dimension": 5}, error=StorageError
        )
        with plan:
            with pytest.raises(StorageError):
                load_decomposed(tmp_path)


# ---------------------------------------------------------------------------
# Graceful degradation: shard failure policies and planner failover
# ---------------------------------------------------------------------------


class TestShardFailure:
    def test_fail_mode_reraises(self, vectors):
        searcher = ShardedBondSearcher(
            DecomposedStore(vectors), shards=3, on_shard_failure="fail"
        )
        with FaultPlan(seed=1).arm("shard.map", where={"shard": 1}):
            with pytest.raises(TransientBackendError):
                searcher.search(vectors[0], 5)
        searcher.close()

    def test_partial_mode_degrades_and_flags(self, vectors):
        full = ShardedBondSearcher(DecomposedStore(vectors), shards=3)
        reference = full.search(vectors[0], 5)
        partial = ShardedBondSearcher(
            DecomposedStore(vectors), shards=3, on_shard_failure="partial"
        )
        with FaultPlan(seed=1).arm("shard.map", where={"shard": 1}):
            degraded = partial.search(vectors[0], 5)
        assert degraded.degraded and degraded.failed_shards == (1,)
        assert not reference.degraded
        # The degraded top-k is the exact answer over the surviving shards:
        # no OID from the dead shard's row range, all OIDs valid.
        plan = partial.shard_plan
        dead = set(range(plan.boundaries[1], plan.boundaries[2]))
        assert not (set(degraded.oids.tolist()) & dead)
        # Batch path carries the same flags per result.
        with FaultPlan(seed=1).arm("shard.map", where={"shard": 1}):
            batch = partial.search_batch(vectors[:4], 5)
        assert batch.degraded and all(r.failed_shards == (1,) for r in batch)
        full.close()
        partial.close()

    def test_partial_mode_with_no_survivors_raises(self, vectors):
        searcher = ShardedBondSearcher(
            DecomposedStore(vectors), shards=2, on_shard_failure="partial"
        )
        with FaultPlan(seed=1).arm("shard.map"):
            with pytest.raises(TransientBackendError):
                searcher.search(vectors[0], 5)
        searcher.close()

    def test_policy_validated(self, vectors):
        from repro.errors import QueryError

        with pytest.raises(QueryError, match="on_shard_failure"):
            ShardedBondSearcher(DecomposedStore(vectors), on_shard_failure="retry")
        with pytest.raises(QueryError, match="on_shard_failure"):
            Index.build(vectors, on_shard_failure="retry")

    def test_policy_persisted(self, vectors, tmp_path):
        Index.build(vectors, shards=2, on_shard_failure="partial").save(tmp_path)
        assert Index.open(tmp_path).on_shard_failure == "partial"


class TestIndexFailover:
    def test_failover_chain_shape(self, vectors):
        index = Index.build(vectors)
        plan = index.plan(Query(vectors[0], k=5, metric="histogram"))
        chain = plan.failover_chain()
        assert chain[0] == plan.backend_name
        assert len(chain) == len(set(chain))
        eligible = {c.backend for c in plan.candidates if c.eligible}
        assert set(chain) == eligible

    def test_pinned_query_has_single_entry_chain(self, vectors):
        index = Index.build(vectors)
        plan = index.plan(Query(vectors[0], k=5, metric="histogram", backend="bond"))
        assert plan.failover_chain() == ("bond",)

    def test_answer_fails_over_equivalently(self, vectors):
        index = Index.build(vectors)
        query = Query(vectors[0], k=5, metric="histogram")
        planned = index.plan(query).backend_name
        reference = index.answer(query)
        with FaultPlan(seed=1).arm(
            "backend.answer", where={"backend": planned}, error=BackendError
        ):
            recovered = index.answer(query, failover=True)
        assert results_equivalent(reference, recovered)

    def test_answer_without_failover_raises(self, vectors):
        index = Index.build(vectors)
        query = Query(vectors[0], k=5, metric="histogram")
        planned = index.plan(query).backend_name
        with FaultPlan(seed=1).arm(
            "backend.answer", where={"backend": planned}, error=BackendError
        ):
            with pytest.raises(BackendError):
                index.answer(query)

    def test_exhausted_chain_collects_attempts(self, vectors):
        index = Index.build(vectors)
        query = Query(vectors[0], k=5, metric="histogram")
        with FaultPlan(seed=1).arm("backend.answer", error=BackendError):
            with pytest.raises(FailoverExhausted) as info:
                index.answer(query, failover=True)
        chain = index.plan(query).failover_chain()
        assert [name for name, _ in info.value.attempts] == list(chain)

    def test_probe_raising_a_non_backend_error_frees_the_breaker(self, vectors):
        """A half-open probe that raises a StorageError must not leave the
        probe held: the next failover answer probes the backend again."""
        index = Index.build(vectors)
        query = Query(vectors[0], k=5, metric="histogram")
        planned = index.plan(query).backend_name
        assert len(index.plan(query).failover_chain()) > 1
        clock = [0.0]
        breaker = CircuitBreaker(planned, clock=lambda: clock[0])
        index._breakers[planned] = breaker
        with FaultPlan(seed=1).arm(
            "backend.answer", where={"backend": planned}, error=BackendError
        ):
            for _ in range(5):
                with pytest.raises(BackendError):
                    index.answer(query)
        assert breaker.state == "open"
        clock[0] = 31.0  # past the default cooldown: one half-open probe
        with FaultPlan(seed=1).arm(
            "backend.answer", where={"backend": planned}, error=StorageError, times=1
        ):
            with pytest.raises(StorageError):
                index.answer(query, failover=True)
        answer = index.answer(query, failover=True)
        assert answer.backend == planned and not answer.failed_over
        assert breaker.state == "closed"

    def test_breakers_are_created_once_under_contention(self, vectors):
        """Direct and served threads share the index's breakers: racing
        first uses of a backend's breaker must not lose its counts."""
        index = Index.build(vectors)
        names = [f"backend{i}" for i in range(500)]
        start = threading.Barrier(8, timeout=30)

        def report():
            start.wait()
            for name in names:
                index._breaker(name).record_success()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=report) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        states = index.breaker_states()
        assert [state.backend for state in states] == sorted(names)
        assert all(state.total_successes == len(threads) for state in states)


# ---------------------------------------------------------------------------
# Retry primitives
# ---------------------------------------------------------------------------


class TestRetryPrimitives:
    def test_policy_backoff_is_bounded(self):
        policy = RetryPolicy(base_delay=0.01, max_delay=0.05, multiplier=2.0)
        assert policy.delay(0) == pytest.approx(0.01)
        assert policy.delay(1) == pytest.approx(0.02)
        assert policy.delay(10) == pytest.approx(0.05)

    def test_budget_drains_and_none_is_unlimited(self):
        budget = RetryBudget(2)
        assert budget.try_acquire() and budget.try_acquire()
        assert not budget.try_acquire()
        assert budget.remaining == 0
        assert all(RetryBudget(None).try_acquire() for _ in range(100))

    def test_breaker_protocol(self):
        clock = [0.0]
        breaker = CircuitBreaker("bond", threshold=2, cooldown=10.0, clock=lambda: clock[0])
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        clock[0] = 11.0  # cooldown elapsed: exactly one half-open probe
        assert breaker.allow()
        assert not breaker.allow()
        breaker.record_failure()  # failed probe re-opens
        assert breaker.state == "open"
        clock[0] = 22.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        snap = breaker.snapshot()
        assert snap.total_failures == 3 and snap.total_successes == 1


# ---------------------------------------------------------------------------
# Serving hardening: deadlines, retry, failover, bounded drain, health
# ---------------------------------------------------------------------------


def run(coroutine):
    return asyncio.run(coroutine)


class TestServingReliability:
    def test_retry_absorbs_transient_fault(self, vectors):
        index = Index.build(vectors)
        reference = index.answer(Query(vectors[0], k=5, metric="histogram"))

        async def main():
            config = ServingConfig(latency_budget=0.0, retry_base_delay=0.001)
            async with SearchService(index, config=config) as service:
                result = await service.submit(vectors[0], k=5, metric="histogram")
                return result, service.stats()

        with FaultPlan(seed=1).arm("executor.dispatch", times=1):
            result, stats = run(main())
        assert results_identical(result, reference)
        assert stats.retries == 1 and stats.failed == 0

    def test_retry_budget_exhaustion_fails_typed(self, vectors):
        index = Index.build(vectors)

        async def main():
            config = ServingConfig(latency_budget=0.0, max_retries=3, retry_budget=0)
            async with SearchService(index, config=config) as service:
                with pytest.raises(TransientBackendError):
                    await service.submit(vectors[0], k=5, metric="histogram")
                return service.stats()

        with FaultPlan(seed=1).arm("executor.dispatch"):
            stats = run(main())
        assert stats.retries == 0 and stats.failed == 1

    def test_max_retries_exhaustion_fails_typed(self, vectors):
        index = Index.build(vectors)

        async def main():
            config = ServingConfig(latency_budget=0.0, max_retries=2, retry_base_delay=0.001)
            async with SearchService(index, config=config) as service:
                with pytest.raises(TransientBackendError):
                    await service.submit(vectors[0], k=5, metric="histogram")
                return service.stats()

        with FaultPlan(seed=1).arm("executor.dispatch"):  # every dispatch faults
            stats = run(main())
        assert stats.retries == 2

    def test_failover_to_next_backend(self, vectors):
        index = Index.build(vectors)
        query = Query(vectors[0], k=5, metric="histogram")
        planned = index.plan(query).backend_name
        reference = index.answer(query)

        async def main():
            config = ServingConfig(latency_budget=0.0)
            async with SearchService(index, config=config) as service:
                result = await service.submit(vectors[0], k=5, metric="histogram")
                return result, service.stats()

        # A persistent (non-transient) failure of the planned backend only:
        # the chain moves on instead of retrying in place.
        with FaultPlan(seed=1).arm(
            "backend.answer", where={"backend": planned}, error=BackendError
        ):
            result, stats = run(main())
            direct = index.answer(query, failover=True)
        assert results_equivalent(result, reference)
        assert stats.failovers == 1 and stats.retries == 0
        assert stats.recent_batches[-1].backend != planned
        # Served and direct walk one chain: the same substitute, bitwise.
        assert results_identical(result, direct)
        assert result.backend == direct.backend == stats.recent_batches[-1].backend
        assert result.failed_over and direct.failed_over

    def test_failover_answers_on_the_planned_epoch(self, vectors, monkeypatch):
        """The plan and every attempt of one answer share one pinned epoch,
        direct or served: a substitute answers in the coordinates the
        planned backend failed in, even if a reorganisation renumbered the
        OIDs in between; the next answer sees the new epoch."""

        def live_index():
            index = Index.build(vectors)
            index.insert(vectors[[7]])
            index.delete([2])
            return index

        query = Query(vectors[0], k=5, metric="histogram")
        direct_index, served_index = live_index(), live_index()
        plan = direct_index.plan(query)
        substitute = plan.failover_chain()[1]
        pinned = Query(vectors[0], k=5, metric="histogram", backend=substitute)
        before = direct_index.answer(pinned)

        def reorganize_then_fail(index, query, metric, **options):
            index.reorganize()
            raise BackendError("the planned backend failed after a reorganisation")

        monkeypatch.setattr(plan.backend, "answer", reorganize_then_fail)
        direct = direct_index.answer(query, failover=True)

        async def main():
            config = ServingConfig(latency_budget=0.0)
            async with SearchService(served_index, config=config) as service:
                return await service.submit(vectors[0], k=5, metric="histogram")

        served = run(main())
        monkeypatch.undo()
        assert results_identical(direct, before)
        assert results_identical(served, before)
        for index, result in ((direct_index, direct), (served_index, served)):
            assert index.generation == 1
            assert result.backend == substitute and result.failed_over
            after = index.answer(query)
            rebuilt = Index.build(index.vectors)
            assert results_identical(after, rebuilt.answer(query))
            assert not np.array_equal(after.oids, before.oids)
            rebuilt.close()
            index.close()

    def test_breaker_opens_and_health_reports_it(self, vectors):
        index = Index.build(vectors)
        query = Query(vectors[0], k=5, metric="histogram")
        planned = index.plan(query).backend_name

        async def main():
            config = ServingConfig(latency_budget=0.0)
            async with SearchService(index, config=config) as service:
                # The index's breaker opens after 5 consecutive failures.
                for _ in range(6):
                    await service.submit(vectors[0], k=5, metric="histogram")
                return service, service.stats()

        with FaultPlan(seed=1).arm(
            "backend.answer", where={"backend": planned}, error=BackendError
        ) as plan:
            service, stats = run(main())
            hits = len(plan.events)
            # Direct calls share the served breakers: the open one is skipped.
            direct = index.answer(query, failover=True)
            assert len(plan.events) == hits
        assert direct.failed_over and direct.backend != planned
        health = service.health()
        assert planned in health.open_breakers
        states = {b.backend: b for b in health.breakers}
        assert states[planned].state == "open"
        assert stats.completed == 6  # every request still answered via failover
        assert health.as_dict()["breakers"][planned]["state"] == "open"

        def counters(breakers):
            return [dataclasses.replace(b, seconds_until_probe=0.0) for b in breakers]

        assert counters(index.breaker_states()) == counters(health.breakers)

    def test_deadline_expires_in_queue(self, vectors):
        """A request queued behind a busy worker expires without running."""
        index = Index.build(vectors)
        gate = threading.Event()
        executor = ThreadPoolExecutor(max_workers=1)

        async def main():
            # The budget would let the second request wait 5 s for a worker.
            config = ServingConfig(latency_budget=5.0)
            async with SearchService(index, config=config, executor=executor) as service:
                executor.submit(gate.wait)  # hold the only worker
                first = asyncio.ensure_future(
                    service.submit(vectors[0], k=5, metric="histogram")
                )
                await asyncio.sleep(0.01)  # dispatched: the one running batch
                with pytest.raises(DeadlineExceeded):
                    await service.submit(
                        vectors[1], k=5, metric="histogram", timeout=0.05
                    )
                gate.set()
                await first
                return service.stats()

        try:
            stats = run(main())
        finally:
            gate.set()
            executor.shutdown(wait=True)
        assert stats.expired == 1 and stats.completed == 1
        # Only the first request ever reached the backend.
        assert [batch.sequence_numbers for batch in stats.recent_batches] == [(0,)]

    def test_deadline_validation(self, vectors):
        index = Index.build(vectors)

        async def main():
            async with SearchService(index) as service:
                with pytest.raises(ServingError, match="timeout"):
                    await service.submit(vectors[0], k=5, timeout=0.0)

        run(main())

    def test_expired_rider_evicted_before_batch(self, vectors):
        index = Index.build(vectors)

        async def main():
            config = ServingConfig(
                latency_budget=0.0, max_retries=3, retry_base_delay=0.2
            )
            async with SearchService(index, config=config) as service:
                with pytest.raises(DeadlineExceeded):
                    # The first attempt faults; the deadline passes during the
                    # 0.2s backoff, so the retry must evict instead of execute.
                    await service.submit(
                        vectors[0], k=5, metric="histogram", timeout=0.05
                    )
                return service.stats()

        with FaultPlan(seed=1).arm("executor.dispatch", times=1):
            stats = run(main())
        assert stats.expired == 1
        assert stats.retries == 1

    def test_drain_timeout_unwedges_stop(self, vectors):
        index = Index.build(vectors)

        async def main():
            config = ServingConfig(latency_budget=0.0, max_retries=0)
            service = await SearchService(index, config=config).start()
            submission = asyncio.ensure_future(
                service.submit(vectors[0], k=5, metric="histogram")
            )
            await asyncio.sleep(0.1)  # let the batch dispatch and hang
            await service.stop(drain_timeout=0.3)
            with pytest.raises(ServingError, match="drain_timeout"):
                await submission

        plan = FaultPlan(seed=1).arm("executor.dispatch", kind="hang", hang_timeout=30.0)
        with plan:
            run(main())
        # Leaving the plan context released the parked worker thread.

    def test_config_validation(self):
        with pytest.raises(ServingError):
            ServingConfig(drain_timeout=0.0)
        with pytest.raises(ServingError):
            ServingConfig(max_retries=-1)
        with pytest.raises(ServingError):
            SearchService(object(), config=ServingConfig(retry_base_delay=-1.0))
        # Failover and the breakers belong to the index, not the service.
        for removed in ("failover", "breaker_threshold", "breaker_cooldown"):
            with pytest.raises(TypeError):
                ServingConfig(**{removed: 1})


# ---------------------------------------------------------------------------
# The chaos property: identical answer or typed error, never silently wrong
# ---------------------------------------------------------------------------


class TestChaosProperty:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10_000), rate=st.floats(0.05, 0.6))
    def test_identity_or_typed_error(self, vectors, seed, rate):
        index = Index.build(vectors)
        queries = vectors[:6]
        references = [
            index.answer(Query(q, k=5, metric="histogram")) for q in queries
        ]

        async def main():
            config = ServingConfig(
                latency_budget=0.0,
                max_retries=3,
                retry_base_delay=0.001,
                retry_max_delay=0.004,
            )
            async with SearchService(index, config=config) as service:
                outcomes = []
                for query in queries:  # sequential: deterministic hit order
                    try:
                        outcomes.append(
                            await service.submit(query, k=5, metric="histogram")
                        )
                    except ReproError as error:
                        outcomes.append(error)
                return outcomes

        plan = (
            FaultPlan(seed=seed)
            .arm("executor.dispatch", rate=rate)
            .arm("backend.answer", rate=rate / 2)
        )
        with plan:
            outcomes = run(main())
        for reference, outcome in zip(references, outcomes):
            if isinstance(outcome, ReproError):
                continue  # a typed error is an acceptable outcome
            assert results_equivalent(reference, outcome)

    def test_transient_faults_under_budget_are_invisible(self, vectors):
        """The stronger half: with ample retries, every answer is identical."""
        index = Index.build(vectors)
        queries = vectors[:6]
        references = [
            index.answer(Query(q, k=5, metric="histogram")) for q in queries
        ]

        async def main():
            config = ServingConfig(
                latency_budget=0.0, max_retries=8, retry_base_delay=0.001
            )
            async with SearchService(index, config=config) as service:
                return [
                    await service.submit(q, k=5, metric="histogram") for q in queries
                ]

        with FaultPlan(seed=11).arm("executor.dispatch", rate=0.4) as plan:
            results = run(main())
        assert plan.fired() > 0  # the schedule actually injected faults
        for reference, result in zip(references, results):
            assert results_identical(reference, result)

    def test_fault_schedule_replays_identically(self, vectors):
        """Two runs of the same workload under the same seed observe the
        same fault sequence — what makes a chaos run debuggable."""
        index_a = Index.build(vectors)
        index_b = Index.build(vectors)

        def one_run(index):
            async def main():
                config = ServingConfig(latency_budget=0.0, retry_base_delay=0.001)
                async with SearchService(index, config=config) as service:
                    return [
                        await service.submit(q, k=5, metric="histogram")
                        for q in vectors[:5]
                    ]

            plan = FaultPlan(seed=99).arm("executor.dispatch", rate=0.5)
            with plan:
                results = run(main())
            return plan.events, results

        events_a, results_a = one_run(index_a)
        events_b, results_b = one_run(index_b)
        assert events_a == events_b
        assert all(results_identical(a, b) for a, b in zip(results_a, results_b))
