"""The asyncio serving layer: identity, budgets, backpressure, admission.

The serving contract is that micro-batching is *invisible* in the answers:
every served result must be bitwise identical to the direct
``Index.answer(Query(...))`` call for the same query, for every backend and
mode.  On top sit the operational properties — an idle service dispatches
at once and coalesces what queues behind a busy worker, the latency budget
caps the wait, flushes keep arrival order, the bounded queue rejects
overflow explicitly, shutdown
drains, admission policies group deterministically, and per-batch cost
attribution adds up to what the index actually charged.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import SeedBondSearcher

from repro.api import Index, Query
from repro.errors import (
    ExperimentError,
    QueryError,
    QueueFull,
    ServiceClosed,
    ServingError,
)
from repro.reliability import FaultPlan
from repro.serving import (
    FifoAdmission,
    OverlapAdmission,
    SearchService,
    ServingConfig,
    replay_open_loop,
    resolve_admission,
)
from repro.workload.arrivals import ArrivalSchedule, burst_arrivals, poisson_arrivals
from repro.workload.queries import sample_queries


def results_identical(a, b) -> bool:
    return np.array_equal(a.oids, b.oids) and np.array_equal(a.scores, b.scores)


def serve(index, submissions, *, config=None):
    """Run one service life: submit everything concurrently, return results."""

    async def main():
        async with SearchService(index, config=config) as service:
            results = await asyncio.gather(
                *(service.submit(vector, **kwargs) for vector, kwargs in submissions)
            )
        return results, service.stats()

    return asyncio.run(main())


@pytest.fixture(scope="module")
def corel_index(corel_histograms) -> Index:
    return Index.build(corel_histograms, name="serving-corel")


@pytest.fixture(scope="module")
def sharded_index(corel_histograms) -> Index:
    return Index.build(corel_histograms, name="serving-sharded", shards=2)


@pytest.fixture(scope="module")
def clustered_index(clustered_vectors) -> Index:
    return Index.build(clustered_vectors, name="serving-clustered")


class TestServedIdentity:
    """Served answers == direct ``Index.answer`` answers, bit for bit."""

    BATCHING = ServingConfig(latency_budget=0.05, max_batch_size=4)

    def assert_served_identical(self, index, vectors, **query_kwargs):
        direct = [index.answer(Query(v, **query_kwargs)) for v in vectors]
        served, stats = serve(
            index, [(v, dict(query_kwargs)) for v in vectors], config=self.BATCHING
        )
        assert stats.completed == len(vectors)
        for mine, reference in zip(served, direct):
            assert results_identical(mine, reference)
        # The budget/batch-size settings really coalesced (not batches of 1).
        assert stats.max_batch_size > 1

    @pytest.mark.parametrize(
        "backend,mode",
        [
            ("bond", "exact"),
            ("compressed_bond", "compressed"),
            ("sequential_scan", "exact"),
            ("vafile", "compressed"),
            ("partial_abandon", "exact"),
            (None, "exact"),
            (None, "compressed"),
            (None, "approx"),
        ],
    )
    def test_every_backend_histogram(self, corel_index, corel_histograms, backend, mode):
        self.assert_served_identical(
            corel_index,
            corel_histograms[:8],
            k=5,
            metric="histogram",
            mode=mode,
            backend=backend,
        )

    @pytest.mark.parametrize("backend", ["rtree", "bond", None])
    def test_euclidean_backends(self, clustered_index, clustered_vectors, backend):
        self.assert_served_identical(
            clustered_index, clustered_vectors[:8], k=5, metric="euclidean", backend=backend
        )

    @pytest.mark.parametrize("mode", ["exact", "compressed"])
    def test_sharded_backend(self, sharded_index, corel_histograms, mode):
        self.assert_served_identical(
            sharded_index,
            corel_histograms[:8],
            k=5,
            metric="histogram",
            mode=mode,
            backend="sharded_bond",
        )

    def test_weighted_and_subspace(self, clustered_index, clustered_vectors):
        dims = clustered_vectors.shape[1]
        weights = np.linspace(0.5, 2.0, dims)
        self.assert_served_identical(
            clustered_index, clustered_vectors[:6], k=4, weights=weights
        )
        self.assert_served_identical(
            clustered_index, clustered_vectors[:6], k=4, subspace=np.arange(0, dims, 2)
        )

    def test_overlap_policy_identity(self, corel_index, corel_histograms):
        vectors = corel_histograms[:12]
        direct = [corel_index.answer(Query(v, k=5, metric="histogram")) for v in vectors]
        served, stats = serve(
            corel_index,
            [(v, {"k": 5, "metric": "histogram"}) for v in vectors],
            config=ServingConfig(latency_budget=0.05, max_batch_size=4, admission="overlap"),
        )
        assert stats.max_batch_size > 1
        for mine, reference in zip(served, direct):
            assert results_identical(mine, reference)

    def test_mixed_specs_never_share_a_batch(self, corel_index, corel_histograms):
        """Incompatible requests (different k / mode) coalesce separately."""
        submissions = []
        for i, vector in enumerate(corel_histograms[:8]):
            submissions.append(
                (vector, {"k": 3 if i % 2 else 7, "metric": "histogram"})
            )
        served, stats = serve(
            corel_index,
            submissions,
            config=ServingConfig(latency_budget=0.05, max_batch_size=8),
        )
        for (vector, kwargs), result in zip(submissions, served):
            assert results_identical(
                result, corel_index.answer(Query(vector, **kwargs))
            )
        for batch in stats.recent_batches:
            # All riders of one batch were answered at one k.
            assert len({served[s].k for s in batch.sequence_numbers}) == 1


def serve_in_turn(index, vectors, k):
    """One service life that submits ``vectors`` one after another, so each
    is a batch of one (a batch of several may plan another backend)."""

    async def main():
        async with SearchService(index) as service:
            results = [await service.submit(vector, k=k) for vector in vectors]
        return results, service.stats()

    return asyncio.run(main())


class TestShardedServing:
    """One service over a sharded index is the scatter-gather deployment:
    the index scatters each batch to its shards and merges, the service
    adds batching, retries and failover on top."""

    def serve_shard_faulted(self, data, queries, *, shard_executor, on_shard_failure):
        """Serve ``queries`` (k=7) with shard 1's ``shard.map`` faulted; return the
        answers, the service stats and a fault-free ``index.answer`` of each."""
        index = Index.build(
            data, shards=3, shard_executor=shard_executor, on_shard_failure=on_shard_failure
        )
        try:
            direct = [index.answer(Query(vector, k=7)) for vector in queries]
            assert index.plan(Query(queries[0], k=7)).backend_name == "sharded_bond"
            with FaultPlan(seed=1).arm("shard.map", where={"shard": 1}):
                served, stats = serve_in_turn(index, queries, 7)
            return served, stats, direct, index.shard_plan
        finally:
            index.close()

    def test_fault_free_answers_are_index_answer_and_the_oracle(self, corel_histograms):
        queries = corel_histograms[[4, 250, 999]]
        with Index.build(
            corel_histograms, shards=3, shard_executor="process", on_shard_failure="partial"
        ) as index:
            assert index.plan(Query(queries[0], k=7)).backend_name == "sharded_bond"
            served, stats = serve_in_turn(index, queries, 7)
            direct = [index.answer(Query(vector, k=7)) for vector in queries]
        assert {batch.backend for batch in stats.recent_batches} == {"sharded_bond"}
        seed = SeedBondSearcher(corel_histograms)
        for vector, mine, reference in zip(queries, served, direct):
            assert not mine.degraded
            assert results_identical(mine, reference)
            assert results_identical(mine, seed.search(vector, 7))

    @pytest.mark.parametrize("shard_executor", ["thread", "process"])
    def test_partial_policy_serves_a_degraded_answer_without_the_dead_shard(
        self, corel_histograms, shard_executor
    ):
        served, stats, _, plan = self.serve_shard_faulted(
            corel_histograms,
            corel_histograms[[4, 250, 999]],
            shard_executor=shard_executor,
            on_shard_failure="partial",
        )
        for result in served:
            assert result.degraded and result.failed_shards == (1,)
            assert all(plan.shard_of(int(oid)) != 1 for oid in result.oids)
        assert stats.failovers == 0 and stats.failed == 0
        assert {batch.backend for batch in stats.recent_batches} == {"sharded_bond"}

    @pytest.mark.parametrize("shard_executor", ["thread", "process"])
    def test_fail_policy_fails_over_to_a_complete_answer(
        self, corel_histograms, shard_executor
    ):
        queries = corel_histograms[[4]]
        served, stats, direct, _ = self.serve_shard_faulted(
            corel_histograms, queries, shard_executor=shard_executor, on_shard_failure="fail"
        )
        (result,) = served
        assert not result.degraded
        assert results_identical(result, direct[0])
        assert results_identical(result, SeedBondSearcher(corel_histograms).search(queries[0], 7))
        assert stats.failovers == 1
        assert stats.recent_batches[-1].backend != "sharded_bond"


class TestBudgetAndFlushOrdering:
    def test_budget_expiry_flushes_partial_batch(self, corel_index, corel_histograms):
        """A run smaller than max_batch_size flushes when the budget runs out."""
        served, stats = serve(
            corel_index,
            [(v, {"k": 5, "metric": "histogram"}) for v in corel_histograms[:3]],
            config=ServingConfig(latency_budget=0.02, max_batch_size=32),
        )
        assert stats.completed == 3
        assert stats.batches == 1  # one coalesced flush, not three
        assert stats.recent_batches[0].batch_size == 3

    def test_full_batch_flushes_before_budget(self, corel_index, corel_histograms):
        """max_batch_size flushes immediately — waits stay far below a huge budget."""
        served, stats = serve(
            corel_index,
            [(v, {"k": 5, "metric": "histogram"}) for v in corel_histograms[:8]],
            config=ServingConfig(latency_budget=30.0, max_batch_size=4),
        )
        assert stats.completed == 8
        assert all(batch.batch_size == 4 for batch in stats.recent_batches)
        assert stats.queue_wait_p99 < 5.0  # nowhere near the 30 s budget

    def test_fifo_flushes_preserve_arrival_order(self, corel_index, corel_histograms):
        """Earlier submissions ride earlier batches, in order, under fifo."""
        served, stats = serve(
            corel_index,
            [(v, {"k": 5, "metric": "histogram"}) for v in corel_histograms[:12]],
            config=ServingConfig(latency_budget=30.0, max_batch_size=4),
        )
        batches = sorted(stats.recent_batches, key=lambda b: min(b.sequence_numbers))
        flat = [s for batch in batches for s in batch.sequence_numbers]
        assert flat == sorted(flat)
        assert [batch.batch_size for batch in batches] == [4, 4, 4]

    def test_zero_budget_serves_immediately(self, corel_index, corel_histograms):
        """budget=0 is the one-query-per-submit configuration."""

        async def main():
            async with SearchService(
                corel_index, config=ServingConfig(latency_budget=0.0)
            ) as service:
                for vector in corel_histograms[:3]:
                    result = await service.submit(vector, k=5, metric="histogram")
                    assert results_identical(
                        result, corel_index.answer(Query(vector, k=5, metric="histogram"))
                    )
                return service.stats()

        stats = asyncio.run(main())
        # Sequential awaiting can never coalesce: three batches of one.
        assert stats.batches == 3
        assert stats.mean_batch_size == 1.0


@contextlib.contextmanager
def gated_executor():
    """A one-thread executor whose thread waits on ``gate`` before anything
    else runs: batches dispatched to it stay *running* until the gate opens."""
    gate = threading.Event()
    executor = ThreadPoolExecutor(max_workers=1)
    executor.submit(gate.wait)
    try:
        yield gate, executor
    finally:
        gate.set()
        executor.shutdown(wait=True)


def batch_sizes(stats) -> list[int]:
    """Batch sizes in dispatch order."""
    batches = sorted(stats.recent_batches, key=lambda batch: min(batch.sequence_numbers))
    return [batch.batch_size for batch in batches]


class TestWorkConservingAdmission:
    """An idle worker takes a request at once; the budget only caps waits."""

    def test_idle_service_dispatches_at_once(self, corel_index, corel_histograms):
        budget = 5.0
        vector = corel_histograms[0]

        async def main():
            async with SearchService(
                corel_index, config=ServingConfig(latency_budget=budget)
            ) as service:
                started = time.perf_counter()
                result = await service.submit(vector, k=5, metric="histogram")
                return result, time.perf_counter() - started, service.stats()

        result, elapsed, stats = asyncio.run(main())
        assert elapsed < 1.0
        assert stats.recent_batches[0].queue_waits[0] < 0.1 * budget
        assert results_identical(
            result, corel_index.answer(Query(vector, k=5, metric="histogram"))
        )

    def test_arrivals_coalesce_behind_a_busy_worker(self, corel_index, corel_histograms):
        vectors = corel_histograms[:6]

        async def main():
            with gated_executor() as (gate, executor):
                service = SearchService(
                    corel_index, config=ServingConfig(latency_budget=30.0), executor=executor
                )
                await service.start()
                first = asyncio.ensure_future(
                    service.submit(vectors[0], k=5, metric="histogram")
                )
                await asyncio.sleep(0.01)  # dispatched: the one running batch
                rest = [
                    asyncio.ensure_future(service.submit(v, k=5, metric="histogram"))
                    for v in vectors[1:]
                ]
                await asyncio.sleep(0.01)
                waiting = service.stats().pending
                gate.set()
                results = await asyncio.gather(first, *rest)
                await service.stop()
            return waiting, results, service.stats()

        waiting, results, stats = asyncio.run(main())
        assert waiting == 5
        assert batch_sizes(stats) == [1, 5]
        for vector, result in zip(vectors, results):
            assert results_identical(
                result, corel_index.answer(Query(vector, k=5, metric="histogram"))
            )

    def test_budget_caps_the_wait_while_every_worker_is_busy(
        self, corel_index, corel_histograms
    ):
        vectors = corel_histograms[:3]

        async def main():
            # Two batches may run at once; the gated executor keeps both
            # of the first two requests' batches running.
            config = ServingConfig(latency_budget=0.25, executor_workers=2)
            with gated_executor() as (gate, executor):
                service = SearchService(corel_index, config=config, executor=executor)
                await service.start()
                futures = []
                for vector in vectors:
                    futures.append(
                        asyncio.ensure_future(service.submit(vector, k=5, metric="histogram"))
                    )
                    await asyncio.sleep(0.01)
                before_budget = service.stats().pending
                await asyncio.sleep(0.6)
                after_budget = service.stats().pending
                gate.set()
                results = await asyncio.gather(*futures)
                await service.stop()
            return before_budget, after_budget, results, service.stats()

        before_budget, after_budget, results, stats = asyncio.run(main())
        assert before_budget == 1  # both workers busy: the third request waits
        assert after_budget == 0  # past its deadline it dispatched anyway
        assert batch_sizes(stats) == [1, 1, 1]
        for vector, result in zip(vectors, results):
            assert results_identical(
                result, corel_index.answer(Query(vector, k=5, metric="histogram"))
            )

    def test_stop_drains_requests_queued_behind_a_busy_worker(
        self, corel_index, corel_histograms
    ):
        vectors = corel_histograms[:4]

        async def main():
            with gated_executor() as (gate, executor):
                service = SearchService(
                    corel_index, config=ServingConfig(latency_budget=30.0), executor=executor
                )
                await service.start()
                futures = [
                    asyncio.ensure_future(service.submit(vectors[0], k=4, metric="histogram"))
                ]
                await asyncio.sleep(0.01)
                futures += [
                    asyncio.ensure_future(service.submit(v, k=4, metric="histogram"))
                    for v in vectors[1:]
                ]
                await asyncio.sleep(0.01)
                asyncio.get_running_loop().call_later(0.05, gate.set)
                await service.stop()  # the queued three flush, budget waived
                return await asyncio.gather(*futures), service.stats()

        results, stats = asyncio.run(main())
        assert stats.completed == 4 and not stats.pending
        assert batch_sizes(stats) == [1, 3]
        for vector, result in zip(vectors, results):
            assert results_identical(
                result, corel_index.answer(Query(vector, k=4, metric="histogram"))
            )


class TestBackpressureAndLifecycle:
    def test_queue_overflow_rejected(self, corel_index, corel_histograms):
        async def main():
            service = SearchService(
                corel_index,
                config=ServingConfig(latency_budget=30.0, max_batch_size=32, max_queue=2),
            )
            await service.start()
            first = asyncio.ensure_future(
                service.submit(corel_histograms[0], k=3, metric="histogram")
            )
            second = asyncio.ensure_future(
                service.submit(corel_histograms[1], k=3, metric="histogram")
            )
            await asyncio.sleep(0)  # both enqueue, neither flushes (huge budget)
            with pytest.raises(QueueFull):
                await service.submit(corel_histograms[2], k=3, metric="histogram")
            rejected_stats = service.stats()
            await service.stop()  # drain answers the two queued requests
            return rejected_stats, await first, await second, service.stats()

        rejected_stats, first, second, final_stats = asyncio.run(main())
        assert rejected_stats.rejected == 1
        assert rejected_stats.pending == 2
        assert results_identical(
            first, corel_index.answer(Query(corel_histograms[0], k=3, metric="histogram"))
        )
        assert results_identical(
            second, corel_index.answer(Query(corel_histograms[1], k=3, metric="histogram"))
        )
        assert final_stats.completed == 2

    def test_drain_on_shutdown_answers_everything(self, corel_index, corel_histograms):
        """stop() waives the budget but still answers every queued request."""

        async def main():
            service = SearchService(
                corel_index, config=ServingConfig(latency_budget=30.0, max_batch_size=32)
            )
            await service.start()
            futures = [
                asyncio.ensure_future(service.submit(v, k=4, metric="histogram"))
                for v in corel_histograms[:5]
            ]
            await asyncio.sleep(0)
            await service.stop()
            return await asyncio.gather(*futures), service.stats()

        results, stats = asyncio.run(main())
        assert stats.completed == 5
        assert not stats.pending
        for vector, result in zip(corel_histograms[:5], results):
            assert results_identical(
                result, corel_index.answer(Query(vector, k=4, metric="histogram"))
            )

    def test_stop_without_drain_fails_pending(self, corel_index, corel_histograms):
        async def main():
            service = SearchService(
                corel_index, config=ServingConfig(latency_budget=30.0, max_batch_size=32)
            )
            await service.start()
            future = asyncio.ensure_future(
                service.submit(corel_histograms[0], k=4, metric="histogram")
            )
            await asyncio.sleep(0)
            await service.stop(drain=False)
            with pytest.raises(ServiceClosed):
                await future
            with pytest.raises(ServiceClosed):
                await service.submit(corel_histograms[1], k=4, metric="histogram")
            # The abandoned request is accounted for, not silently dropped.
            stats = service.stats()
            assert stats.failed == 1
            assert stats.submitted == stats.completed + stats.failed

        asyncio.run(main())

    def test_backpressure_counts_inflight_requests(self, corel_index, corel_histograms):
        """Dispatched-but-unfinished work still occupies max_queue slots."""
        import threading
        from concurrent.futures import ThreadPoolExecutor

        async def main():
            gate = threading.Event()
            executor = ThreadPoolExecutor(max_workers=1)
            try:
                service = SearchService(
                    corel_index,
                    config=ServingConfig(latency_budget=0.0, max_queue=2),
                    executor=executor,
                )
                await service.start()
                executor.submit(gate.wait)  # stall the only worker
                first = asyncio.ensure_future(
                    service.submit(corel_histograms[0], k=3, metric="histogram")
                )
                await asyncio.sleep(0.01)  # dispatched: in flight behind the gate
                second = asyncio.ensure_future(
                    service.submit(corel_histograms[1], k=3, metric="histogram")
                )
                await asyncio.sleep(0.01)
                # Nothing is *waiting* (both dispatched), but two requests
                # occupy the service — the third must still be shed.
                with pytest.raises(QueueFull):
                    await service.submit(corel_histograms[2], k=3, metric="histogram")
                gate.set()
                results = await asyncio.gather(first, second)
                await service.stop()
                return results, service.stats()
            finally:
                gate.set()
                executor.shutdown(wait=True)

        results, stats = asyncio.run(main())
        assert stats.rejected == 1
        assert stats.completed == 2
        for vector, result in zip(corel_histograms[:2], results):
            assert results_identical(
                result, corel_index.answer(Query(vector, k=3, metric="histogram"))
            )

    def test_submit_before_start_and_after_stop(self, corel_index, corel_histograms):
        async def main():
            service = SearchService(corel_index)
            with pytest.raises(ServiceClosed):
                await service.submit(corel_histograms[0], k=3)
            await service.start()
            with pytest.raises(ServingError):
                await service.start()  # one life only
            await service.stop()
            with pytest.raises(ServiceClosed):
                await service.submit(corel_histograms[0], k=3)
            await service.stop()  # idempotent once closed

        asyncio.run(main())

    def test_batch_submission_rejected(self, corel_index, corel_histograms):
        async def main():
            async with SearchService(corel_index) as service:
                with pytest.raises(ServingError):
                    await service.submit(corel_histograms[:4], k=3)

        asyncio.run(main())

    def test_validation_errors_surface_at_submit(self, corel_index, corel_histograms):
        """Bad queries are rejected synchronously, before anything queues."""

        async def main():
            async with SearchService(corel_index) as service:
                with pytest.raises(QueryError):
                    await service.submit(corel_histograms[0], k=0)
                bad = corel_histograms[0].copy()
                bad[3] = np.nan
                with pytest.raises(QueryError):
                    await service.submit(bad, k=3)
                assert service.stats().submitted == 0

        asyncio.run(main())

    def test_cancelled_submit_releases_queue_slot(self, corel_index, corel_histograms):
        """A caller that times out must not hold a slot or ride a batch."""

        async def main():
            service = SearchService(
                corel_index,
                config=ServingConfig(latency_budget=30.0, max_batch_size=32, max_queue=2),
            )
            await service.start()
            doomed = asyncio.ensure_future(
                service.submit(corel_histograms[0], k=3, metric="histogram")
            )
            live = asyncio.ensure_future(
                service.submit(corel_histograms[1], k=3, metric="histogram")
            )
            await asyncio.sleep(0)
            doomed.cancel()
            # The queue is nominally full (2 slots), but the dead request's
            # slot is reclaimed instead of rejecting live traffic.
            third = asyncio.ensure_future(
                service.submit(corel_histograms[2], k=3, metric="histogram")
            )
            await asyncio.sleep(0)
            await service.stop()
            return doomed, await live, await third, service.stats()

        doomed, live, third, stats = asyncio.run(main())
        assert doomed.cancelled()
        assert results_identical(
            live, corel_index.answer(Query(corel_histograms[1], k=3, metric="histogram"))
        )
        assert results_identical(
            third, corel_index.answer(Query(corel_histograms[2], k=3, metric="histogram"))
        )
        assert stats.rejected == 0
        assert stats.cancelled == 1
        # The cancelled request never rode a batch: only the live two completed.
        assert stats.completed == 2

    def test_broken_admission_policy_fails_loudly(self, corel_index, corel_histograms):
        """A misbehaving user policy must not hang submitters forever."""

        class ExplodingPolicy(FifoAdmission):
            name = "exploding"

            def group(self, signatures, *, max_batch_size):
                raise RuntimeError("boom")

        class LossyPolicy(FifoAdmission):
            name = "lossy"

            def group(self, signatures, *, max_batch_size):
                return [[0]]  # drops every other request: invalid partition

        async def drive(policy):
            service = SearchService(
                corel_index,
                config=ServingConfig(latency_budget=0.0, admission=policy),
            )
            await service.start()
            with pytest.raises(ServingError, match="admission"):
                await asyncio.gather(
                    *(
                        service.submit(v, k=3, metric="histogram")
                        for v in corel_histograms[:3]
                    )
                )
            assert not service.is_running  # broken, not silently hung
            with pytest.raises(ServiceClosed):
                await service.submit(corel_histograms[0], k=3, metric="histogram")
            await service.stop()  # still shuts down cleanly

        asyncio.run(drive(ExplodingPolicy()))
        asyncio.run(drive(LossyPolicy()))

    def test_replay_rejects_mismatched_schedule(self, corel_index, corel_histograms):
        async def main():
            async with SearchService(corel_index) as service:
                with pytest.raises(ServingError, match="offset per query"):
                    await replay_open_loop(
                        service,
                        corel_histograms[:4],
                        burst_arrivals(2),
                        k=3,
                        metric="histogram",
                    )

        asyncio.run(main())

    def test_config_validation(self):
        with pytest.raises(ServingError):
            ServingConfig(latency_budget=-0.1)
        with pytest.raises(ServingError):
            ServingConfig(max_batch_size=0)
        with pytest.raises(ServingError):
            ServingConfig(max_queue=0)
        with pytest.raises(ServingError):
            ServingConfig(executor_workers=0)
        with pytest.raises(ServingError):
            resolve_admission("nope")


class TestCostAttribution:
    def test_batch_deltas_sum_to_live_account(self, corel_histograms):
        """Per-batch deltas reconstruct exactly what the index charged."""
        index = Index.build(corel_histograms, name="serving-cost")
        # Materialise the store and warm the searcher cache first so the
        # serving window charges only query work.
        index.answer(Query(corel_histograms[0], k=3, metric="histogram"))
        before = index.cost.snapshot()
        _, stats = serve(
            index,
            [(v, {"k": 3, "metric": "histogram"}) for v in corel_histograms[:9]],
            config=ServingConfig(latency_budget=0.05, max_batch_size=4),
        )
        live_delta = index.cost.delta_since(before)
        assert stats.cost.as_dict() == live_delta.as_dict()
        assert stats.cost.bytes_read > 0
        assert sum(b.cost.bytes_read for b in stats.recent_batches) == stats.cost.bytes_read

    def test_backend_recorded_per_batch(self, corel_index, corel_histograms):
        _, stats = serve(
            corel_index,
            [(v, {"k": 3, "metric": "histogram", "backend": "sequential_scan"}) for v in corel_histograms[:4]],
            config=ServingConfig(latency_budget=0.05, max_batch_size=4),
        )
        assert {batch.backend for batch in stats.recent_batches} == {"sequential_scan"}


class TestAdmissionPolicies:
    def overlap_groups_are_partition(self, signatures, max_batch_size):
        groups = OverlapAdmission().group(signatures, max_batch_size=max_batch_size)
        flat = [index for group in groups for index in group]
        assert sorted(flat) == list(range(len(signatures)))
        assert all(1 <= len(group) <= max_batch_size for group in groups)
        return groups

    @settings(max_examples=50, deadline=None)
    @given(
        signatures=st.lists(
            st.tuples(*[st.integers(0, 15)] * 4), min_size=1, max_size=24
        ),
        max_batch_size=st.integers(1, 8),
    )
    def test_overlap_grouping_deterministic_partition(self, signatures, max_batch_size):
        """Same inputs => same groups, and the groups partition the run."""
        first = self.overlap_groups_are_partition(signatures, max_batch_size)
        second = self.overlap_groups_are_partition(signatures, max_batch_size)
        assert first == second

    def test_overlap_groups_equal_signatures_together(self):
        a, b = (1, 2, 3, 4), (9, 10, 11, 12)
        groups = OverlapAdmission().group([a, b, a, b], max_batch_size=2)
        assert groups == [[0, 2], [1, 3]]

    def test_overlap_seed_is_oldest_request(self):
        """The oldest waiting request anchors every batch — no starvation."""
        far = (100, 101, 102, 103)
        near = (1, 2, 3, 4)
        groups = OverlapAdmission().group([far, near, near, near], max_batch_size=2)
        assert groups[0][0] == 0

    def test_fifo_chunks_in_arrival_order(self):
        groups = FifoAdmission().group([None] * 7, max_batch_size=3)
        assert groups == [[0, 1, 2], [3, 4, 5], [6]]

    def test_signature_tracks_processing_order(self, corel_histograms):
        policy = OverlapAdmission(signature_dims=6)
        query = Query(corel_histograms[0], k=3)
        signature = policy.signature(query)
        assert signature == tuple(np.argsort(-corel_histograms[0], kind="stable")[:6])
        assert policy.signature(Query(corel_histograms[0], k=3)) == signature

    def test_signature_respects_subspace(self, corel_histograms):
        dims = corel_histograms.shape[1]
        subspace = np.arange(dims // 2, dims)
        policy = OverlapAdmission(signature_dims=4)
        signature = policy.signature(Query(corel_histograms[1], k=3, subspace=subspace))
        assert set(signature) <= set(int(d) for d in subspace)

    def test_overlap_reduces_distinct_fragments_per_batch(self, corel_histograms):
        """The point of the policy: batches share their early dimensions.

        Build two families of queries with disjoint dominant dimensions,
        interleave them, and check overlap admission yields batches whose
        signature unions are smaller (fewer distinct fragments per shared
        round) than fifo's interleaved batches.
        """
        rng = np.random.default_rng(5)
        dims = corel_histograms.shape[1]
        half = dims // 2
        low = rng.random((8, dims)) * 0.01
        low[:, :half] += rng.random((8, half))  # dominant dims in the low half
        high = rng.random((8, dims)) * 0.01
        high[:, half:] += rng.random((8, half))  # dominant dims in the high half
        interleaved = np.empty((16, dims))
        interleaved[0::2] = low
        interleaved[1::2] = high
        policy = OverlapAdmission(signature_dims=8)
        signatures = [
            policy.signature(Query(vector, k=3, metric="euclidean"))
            for vector in interleaved
        ]

        def mean_distinct(groups):
            unions = [
                len(set().union(*(signatures[i] for i in group))) for group in groups
            ]
            return float(np.mean(unions))

        fifo_groups = FifoAdmission().group(signatures, max_batch_size=4)
        overlap_groups = policy.group(signatures, max_batch_size=4)
        assert mean_distinct(overlap_groups) < mean_distinct(fifo_groups)


class TestArrivalsAndWorkload:
    def test_poisson_reproducible_and_shaped(self):
        first = poisson_arrivals(64, rate=100.0, seed=3)
        second = poisson_arrivals(64, rate=100.0, seed=3)
        assert np.array_equal(first.times, second.times)
        first == second  # identity comparison, never an ambiguous-array error
        assert len(first) == 64
        assert first.times[0] > 0
        assert np.all(np.diff(first.times) >= 0)
        assert first.mean_rate == pytest.approx(
            (len(first) - 1) / first.duration
        )
        # The seeded mean rate lands near the requested one.
        assert 50.0 < first.mean_rate < 200.0

    def test_schedule_slicing_and_scaling(self):
        schedule = poisson_arrivals(32, rate=10.0, seed=1)
        tail = schedule[16:]
        assert isinstance(tail, ArrivalSchedule)
        assert tail.times[0] == 0.0  # re-anchored
        assert len(tail) == 16
        assert isinstance(schedule[4], float)
        doubled = schedule.scaled(2.0)
        assert np.allclose(doubled.interarrivals(), 2.0 * schedule.interarrivals())
        with pytest.raises(ExperimentError):
            schedule.scaled(-1.0)

    def test_burst_and_invalid(self):
        burst = burst_arrivals(5)
        assert np.array_equal(burst.times, np.zeros(5))
        assert burst.mean_rate == float("inf")
        with pytest.raises(ExperimentError):
            poisson_arrivals(0, rate=1.0)
        with pytest.raises(ExperimentError):
            poisson_arrivals(3, rate=0.0)
        with pytest.raises(ExperimentError):
            ArrivalSchedule(times=np.array([2.0, 1.0]))
        with pytest.raises(ExperimentError):
            ArrivalSchedule(times=np.array([np.inf]))

    def test_workload_slicing_helpers(self, corel_histograms):
        workload = sample_queries(corel_histograms, 10, seed=2)
        assert np.array_equal(workload[3], workload.queries[3])
        head = workload.take(4)
        assert len(head) == 4
        assert np.array_equal(head.source_oids, workload.source_oids[:4])
        chunks = list(workload.chunks(4))
        assert [len(chunk) for chunk in chunks] == [4, 4, 2]
        assert np.array_equal(chunks[-1].queries, workload.queries[8:])
        with pytest.raises(ExperimentError):
            workload.take(11)
        with pytest.raises(ExperimentError):
            list(workload.chunks(0))

    def test_open_loop_replay_through_service(self, corel_index, corel_histograms):
        """An open-loop Poisson replay serves every query correctly."""
        workload = sample_queries(corel_histograms, 12, seed=4)
        schedule = poisson_arrivals(len(workload), rate=2000.0, seed=4)

        async def replay():
            async with SearchService(
                corel_index, config=ServingConfig(latency_budget=0.005, max_batch_size=8)
            ) as service:
                results = await replay_open_loop(
                    service, workload, schedule, k=4, metric="histogram"
                )
            return results, service.stats()

        results, stats = asyncio.run(replay())
        assert stats.completed == len(workload)
        for vector, result in zip(workload, results):
            assert results_identical(
                result, corel_index.answer(Query(vector, k=4, metric="histogram"))
            )


class TestQueryFiniteness:
    """The facade-boundary bugfix: non-finite vectors are rejected loudly."""

    def test_nan_vector_rejected(self, corel_histograms):
        bad = corel_histograms[0].copy()
        bad[0] = np.nan
        with pytest.raises(QueryError, match="finite"):
            Query(bad, k=3)

    def test_inf_in_batch_rejected(self, corel_histograms):
        bad = corel_histograms[:4].copy()
        bad[2, 5] = np.inf
        with pytest.raises(QueryError, match="finite"):
            Query(bad, k=3)

    def test_finite_vectors_pass(self, corel_histograms):
        Query(corel_histograms[0], k=3)
        Query(corel_histograms[:4], k=3)


class TestCostSnapshotDelta:
    def test_snapshot_delta_roundtrip(self, corel_histograms):
        index = Index.build(corel_histograms, name="snapshot-cost")
        before = index.cost.snapshot()
        index.answer(Query(corel_histograms[0], k=3, metric="histogram"))
        delta = index.cost.delta_since(before)
        assert delta.bytes_read > 0
        # The live account moved by exactly the delta.
        assert index.cost.account.bytes_read == before.bytes_read + delta.bytes_read

    def test_snapshot_is_a_copy(self, corel_histograms):
        index = Index.build(corel_histograms, name="snapshot-copy")
        snap = index.cost.snapshot()
        index.answer(Query(corel_histograms[1], k=3, metric="histogram"))
        assert snap.bytes_read == 0
