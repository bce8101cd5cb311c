"""Async serving: micro-batching a stream of arriving queries.

Builds a Corel-like collection, wraps it in the ``Index`` facade, and serves
an open-loop Poisson query stream through the asyncio ``SearchService``:
independent ``await service.submit(...)`` calls that arrive while a batch
runs are coalesced into micro-batches (a 3 ms latency budget caps the
wait), executed through
``Index.answer(Query(..., batch=True))`` on a worker thread, and answered
with results bitwise identical to direct single-query calls.  The same
stream is then replayed one query at a time to show what batching bought,
and a deliberately over-full burst shows the bounded queue shedding load.

Run with::

    python examples/async_serving.py
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro import (
    Index,
    Query,
    QueueFull,
    SearchService,
    ServingConfig,
    make_corel_like,
    poisson_arrivals,
)
from repro.serving import replay_open_loop


async def main() -> None:
    # 1. A collection of 20,000 image histograms behind one Index facade.
    histograms = make_corel_like(cardinality=20_000, dimensionality=166, seed=7)
    index = Index.build(histograms, name="corel-serving")
    rng = np.random.default_rng(3)
    queries = histograms[rng.choice(len(histograms), size=64, replace=False)]
    print(f"collection: {histograms.shape[0]} x {histograms.shape[1]}, 64 arriving queries")
    # Warm the facade once so the lazily materialised stores and searcher
    # caches exist before serving starts (a long-lived service is warm).
    index.answer(Query(histograms[0], k=10, metric="histogram"))

    # 2. Serve an open-loop Poisson stream: queries arrive on their own clock;
    #    an idle service dispatches at once and coalesces what arrives while a
    #    batch runs.
    config = ServingConfig(
        latency_budget=0.003,   # a ceiling: the oldest request waits at most 3 ms
        max_batch_size=16,      # a full batch flushes immediately
        max_queue=256,          # admission control: overflow is rejected
        admission="overlap",    # group by predicted dimension-order overlap
    )
    async with SearchService(index, config=config) as service:
        schedule = poisson_arrivals(len(queries), rate=4000.0, seed=11)
        results = await replay_open_loop(service, queries, schedule, k=10, metric="histogram")
    stats = service.stats()

    print("\nopen-loop serving (overlap admission):")
    print(f"  completed        : {stats.completed} queries in {stats.batches} micro-batches")
    print(f"  mean batch size  : {stats.mean_batch_size:.1f} (max {stats.max_batch_size})")
    print(f"  queue wait       : p50 {1e3 * stats.queue_wait_p50:.2f} ms, "
          f"p99 {1e3 * stats.queue_wait_p99:.2f} ms")
    print(f"  request latency  : p50 {1e3 * stats.request_seconds_p50:.2f} ms, "
          f"p99 {1e3 * stats.request_seconds_p99:.2f} ms")
    print(f"  batch cost       : {stats.cost.bytes_read / 1e6:.1f} MB read across all batches")

    # 3. Served answers are bitwise identical to direct Index.answer calls.
    direct = [index.answer(Query(q, k=10, metric="histogram")) for q in queries]
    assert all(
        np.array_equal(a.oids, b.oids) and np.array_equal(a.scores, b.scores)
        for a, b in zip(results, direct)
    ), "served answers must match direct answers bit for bit"
    print("  identity         : served == direct Index.answer, bit for bit")

    # 4. What did micro-batching buy?  The same 64 queries as a saturated
    #    burst (arrivals all at once) vs one query per submit (zero budget).
    loop = asyncio.get_running_loop()
    async with SearchService(
        index, config=ServingConfig(latency_budget=0.003, max_batch_size=16)
    ) as burst:
        started = loop.time()
        await asyncio.gather(
            *(burst.submit(query, k=10, metric="histogram") for query in queries)
        )
        burst_wall = loop.time() - started
    async with SearchService(
        index, config=ServingConfig(latency_budget=0.0, max_batch_size=1)
    ) as sequential:
        started = loop.time()
        for query in queries:
            await sequential.submit(query, k=10, metric="histogram")
        sequential_wall = loop.time() - started
    print("\nmicro-batched burst vs one query per submit:")
    print(f"  batched burst    : {1e3 * burst_wall:.0f} ms "
          f"(mean batch {burst.stats().mean_batch_size:.1f})")
    print(f"  one at a time    : {1e3 * sequential_wall:.0f} ms "
          f"=> {sequential_wall / burst_wall:.2f}x slower")

    # 5. Backpressure: a queue bound of 8 against a burst of 64 sheds load
    #    explicitly instead of queueing without bound.
    async with SearchService(
        index,
        config=ServingConfig(latency_budget=0.05, max_batch_size=8, max_queue=8),
    ) as bounded:
        submissions = [
            asyncio.ensure_future(bounded.submit(q, k=10, metric="histogram"))
            for q in queries
        ]
        outcomes = await asyncio.gather(*submissions, return_exceptions=True)
    rejected = sum(1 for outcome in outcomes if isinstance(outcome, QueueFull))
    print("\nbounded queue under a 64-query burst (max_queue=8):")
    print(f"  answered {len(outcomes) - rejected}, rejected {rejected} with QueueFull")


if __name__ == "__main__":
    asyncio.run(main())
