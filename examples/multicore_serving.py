"""Multi-core search: process-pool shards, answered directly and served.

Demonstrates ``repro.cluster`` and the contract it holds — answers bitwise
identical to the single-process engines, or a typed error:

1. ``Index.build(..., shard_executor="process")``: a batch of at least
   ``POOL_MIN_BATCH`` queries runs its per-shard fused engines in worker
   processes that attach zero-copy to one shared-memory publication of the
   fragments, per-shard cost deltas travel back as explicit wire tuples,
   and the deterministic top-k merge makes the answer bit for bit the
   unsharded one (exact *and* compressed mode).  A single query does not
   repay the pipe round trip: its shards run inline on the calling thread,
   and the worker pool starts only when the first large batch arrives.
2. One ``SearchService`` over that process-sharded index: the index
   scatters each micro-batch to its shards and merges; the service adds
   batching, retries and failover.  With ``on_shard_failure="partial"`` a
   failed shard yields an honestly ``degraded`` answer over the survivors.

On a single-core machine the process executor cannot be faster — the
identity checks below are the point; speedups need real cores.

Run with::

    python examples/multicore_serving.py
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os

from repro import FaultPlan, Index, Query, SearchService, make_corel_like
from repro.core.parallel import POOL_MIN_BATCH


def identical(a, b) -> bool:
    return (
        a.oids.tobytes() == b.oids.tobytes()
        and a.scores.tobytes() == b.scores.tobytes()
    )


async def main() -> None:
    cores = os.cpu_count() or 1
    print(f"visible cores: {cores} (speedups need >1; identity never does)")

    # 1. One collection, one query and one batch large enough for the worker
    #    pool, with single-process reference answers for the exact scan and
    #    the compressed filter-and-refine mode.
    histograms = make_corel_like(cardinality=12_000, dimensionality=64, seed=11)
    query = Query(histograms[42], k=10, metric="histogram")
    batch = Query(histograms[42 : 42 + POOL_MIN_BATCH], k=10, metric="histogram")
    compressed_batch = Query(
        histograms[42 : 42 + POOL_MIN_BATCH], k=10, metric="histogram", mode="compressed"
    )
    single = Index.build(histograms, name="corel-ref")
    reference = single.answer(query)
    batch_reference = single.answer(batch)
    compressed_reference = single.answer(compressed_batch)

    # 2. The same index sharded 4 ways.  The single query runs its shards
    #    inline; the batches go to worker processes, started on that first
    #    need.  Index.close() (or the context manager) shuts the pools down
    #    and unlinks the shared-memory segment; nothing survives in /dev/shm.
    with Index.build(
        histograms,
        name="corel-mp",
        shards=4,
        shard_executor="process",
        on_shard_failure="partial",
    ) as index:
        inline = index.answer(query)
        workers = len(multiprocessing.active_children())
        print(f"single query, inline    : bitwise == reference: {identical(inline, reference)}"
              f" (worker processes: {workers})")
        exact = index.answer(batch)
        workers = len(multiprocessing.active_children())
        print(f"batch of {POOL_MIN_BATCH}, process pool: bitwise == reference: "
              f"{all(map(identical, exact, batch_reference))} (worker processes: {workers})")
        compressed = index.answer(compressed_batch)
        print(f"batch of {POOL_MIN_BATCH}, compressed  : bitwise == reference: "
              f"{all(map(identical, compressed, compressed_reference))}")
        pinned = Query(histograms[42], k=10, metric="histogram", backend="sharded_bond")
        print(f"planner detail          : {index.plan(pinned).estimate.detail}")

        # 3. Served: one SearchService over the process-sharded index.  A
        #    fault armed on shard 1 degrades the answer instead of failing it:
        #    the survivors' top-k, flagged, with no row of the lost shard.
        async with SearchService(index) as service:
            served = await service.submit(histograms[42], k=10, metric="histogram")
            print(f"served                  : bitwise == reference: {identical(served, reference)}")
            with FaultPlan(seed=1).arm("shard.map", where={"shard": 1}):
                degraded = await service.submit(histograms[42], k=10, metric="histogram")
            lost = [int(oid) for oid in degraded.oids if index.shard_plan.shard_of(int(oid)) == 1]
            print(
                f"shard 1 faulted         : degraded={degraded.degraded} "
                f"failed_shards={degraded.failed_shards} oids from shard 1: {lost}"
            )
            print(f"service health          : running={service.health().running}")

    single.close()
    print(f"top oids: {reference.oids.tolist()}")


if __name__ == "__main__":
    asyncio.run(main())
