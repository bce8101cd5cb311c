"""Per-layer metrics: one probe per group of layers, the same in every traced
run, over the run's seeded inputs.

A probe sets up the workload that puts its layers on the blocking path, runs
a short stretch of it under the tracer and calls the layer's public
callables directly where a span cannot isolate them (a kernel on full-height
columns, one shard in-process).  Layer names are the repo's module names.
Metrics marked (count) repeat exactly for a fixed seed.  Which end-to-end
metric each should move is tabled in README.md.

Work inside shard worker processes cannot be seen from outside; it is
estimated by running the same shard's searcher in-process.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro import CompressedStore, DecomposedStore, HistogramIntersection, Query
from repro.cluster import ProcessShardExecutor, SharedStoreSegment
from repro.cluster.executor import EngineSpec
from repro.core.parallel import ShardedBondSearcher
from repro.kernels.block import kernel_for
from repro.kernels.interval import IntervalWorkspace, dequantize_bounds, interval_kernel_for
from repro.storage.sharding import ShardPlan

from harness import K, METRIC, Inputs, median_time, memcpy_gb_per_s
from tracing import Tracer, durations, layer_self_seconds
from workloads import CompressedBatch, ExactSingle, LiveUpdates, Measurement, ShardedServing

#: Columns per kernel call: the paper's pruning period m.
PERIOD = 8


def _traced(tracer: Tracer, function):
    """Run `function` with the wrappers installed; (its result, its spans)."""
    tracer.install()
    try:
        result = function()
    finally:
        tracer.uninstall()
    return result, tracer.take_spans()


def _self_us_per_query(spans, queries: int, layers) -> dict[str, float]:
    totals = layer_self_seconds(spans)
    return {
        f"{layer}.self_us_per_query": totals.get(layer, 0.0) / queries * 1e6 for layer in layers
    }


def probe_exact(inputs: Inputs, tracer: Tracer) -> dict[str, float]:
    """api, core.bond, kernels.block, core.candidates, engine.cost, core.batch,
    storage.decomposed — the layers `exact_single` and `live_updates` read through."""
    data, scale = inputs.data, inputs.scale
    count = min(256, scale.num_queries)
    out = {"storage.decomposed.build_s": median_time(lambda: DecomposedStore(data), 3)}
    workload = ExactSingle(inputs)
    workload.setup()
    try:
        index = workload.index
        plan = index.plan(workload.query(0))
        searcher = index.searcher_for(plan.backend, plan.query, plan.metric)
        # Facade against the searcher it dispatches to, alternating per query
        # so both see the same cache state and machine noise.
        facade, direct, answers = [], [], []
        for number in range(count):
            vector = inputs.query(number)
            started = time.perf_counter()
            index.answer(Query(vector, k=K, metric=METRIC))
            between = time.perf_counter()
            answers.append(searcher.search(vector, K))
            direct.append(time.perf_counter() - between)
            facade.append(between - started)
        out["api.facade.overhead_us_p50"] = (statistics.median(facade) - statistics.median(direct)) * 1e6
        out["core.bond.search_ms_p50"] = statistics.median(direct) * 1e3

        _, spans = _traced(
            tracer, lambda: [index.answer(workload.query(n)) for n in range(count)]
        )
        plans = durations(spans, "api.planner.plan")
        out["api.planner.plan_us_p50"] = statistics.median(plans) * 1e6
        out["api.planner.plans_per_query"] = len(plans) / count
        out["core.candidates.prune_us_p50"] = statistics.median(durations(spans, "core.candidates.prune")) * 1e6
        out.update(
            _self_us_per_query(
                spans,
                count,
                (
                    "api.facade",
                    "api.planner",
                    "api.backends",
                    "core.bond",
                    "kernels.block",
                    "core.candidates",
                ),
            )
        )

        traces = [answer.candidate_trace.candidates_remaining for answer in answers]
        out["core.bond.rounds_per_query"] = statistics.fmean(len(t) - 1 for t in traces)
        out["core.candidates.survivors_after_round1_share"] = statistics.fmean(
            t[1] / scale.cardinality for t in traces
        )
        bytes_read = statistics.fmean(answer.cost.bytes_read for answer in answers)
        out["engine.cost.bytes_read_per_query"] = bytes_read
        out["engine.cost.arithmetic_ops_per_query"] = statistics.fmean(
            answer.cost.arithmetic_ops for answer in answers
        )
        floor_ms = bytes_read / (memcpy_gb_per_s() * 1e9) * 1e3
        out["engine.cost.analytic_floor_ms"] = floor_ms
        out["core.bond.floor_share"] = floor_ms / out["core.bond.search_ms_p50"]

        store, query = index.decomposed, inputs.query(0)
        dimensions = np.arange(PERIOD)
        columns = store.fragment_columns(dimensions, charge=False)
        scores = np.zeros(scale.cardinality)
        workspace = np.empty(scale.cardinality)
        kernel = kernel_for(HistogramIntersection())
        seconds = median_time(
            lambda: kernel.accumulate_scan(columns, query[dimensions], dimensions, scores, workspace),
            30,
        )
        out["kernels.block.accumulate_ns_per_value"] = seconds / (PERIOD * scale.cardinality) * 1e9

        batch = inputs.query_batch(0, scale.batch_size)
        batch_seconds = median_time(lambda: searcher.search_batch(batch, K), 5)
        out["core.batch.search_batch_ms_p50"] = batch_seconds * 1e3
        out["core.batch.batch_gain"] = scale.batch_size * statistics.median(direct) / batch_seconds
    finally:
        workload.close()
    return out


def probe_compressed(inputs: Inputs, tracer: Tracer) -> dict[str, float]:
    """core.compressed, kernels.interval, storage.compressed — `compressed_batch`'s layers."""
    scale, out = inputs.scale, {}
    workload = CompressedBatch(inputs)
    workload.setup()
    try:
        index = workload.index
        compressed = index.compressed
        out["storage.compressed.build_s"] = median_time(
            lambda: CompressedStore(index.decomposed), 3
        )
        out["storage.compressed.bytes_per_user_byte"] = (
            compressed.storage_bytes() / inputs.data.nbytes
        )
        plan = index.plan(workload.batch_query(0))
        searcher = index.searcher_for(plan.backend, plan.query, plan.metric)
        seconds, survivors = [], []
        for number in range(5):
            batch = inputs.query_batch(number, scale.batch_size)
            started = time.perf_counter()
            answers = searcher.search_batch(batch, K)
            seconds.append(time.perf_counter() - started)
            survivors.extend(a.candidate_trace.candidates_remaining[-1] for a in answers)
        out["core.compressed.search_batch_ms_p50"] = statistics.median(seconds) * 1e3
        out["core.compressed.refine_rows_per_query"] = statistics.fmean(survivors)

        _, spans = _traced(
            tracer, lambda: [index.answer(workload.batch_query(n)) for n in range(3)]
        )
        out.update(
            _self_us_per_query(
                spans, 3 * scale.batch_size, ("core.compressed", "kernels.interval")
            )
        )

        dimensions, query = np.arange(PERIOD), inputs.query(0)
        codes = compressed.code_columns(dimensions, charge=False)
        lower, upper = np.zeros(scale.cardinality), np.zeros(scale.cardinality)
        workspace = IntervalWorkspace()
        kernel = interval_kernel_for(HistogramIntersection())
        block_seconds = median_time(
            lambda: kernel.accumulate_block(
                codes,
                compressed.minimums[dimensions],
                compressed.cell_widths[dimensions],
                query[dimensions],
                dimensions,
                lower,
                upper,
                workspace,
            ),
            30,
        )
        values = PERIOD * scale.cardinality
        out["kernels.interval.accumulate_ns_per_value"] = block_seconds / values * 1e9
        low, high = workspace.value_buffers(scale.cardinality)
        minimum, width = float(compressed.minimums[0]), float(compressed.cell_widths[0])
        column_seconds = median_time(
            lambda: dequantize_bounds(codes[0], minimum, width, low, high), 100
        )
        out["kernels.interval.dequantize_ns_per_value"] = column_seconds / scale.cardinality * 1e9
    finally:
        workload.close()
    return out


def _segment_bytes(segment: SharedStoreSegment) -> int:
    spec = segment.spec
    arrays = [*spec.columns, *spec.code_columns]
    if spec.row_sums is not None:
        arrays.append(spec.row_sums)
    return max(a.offset + a.length * np.dtype(a.dtype).itemsize for a in arrays)


def probe_sharded(inputs: Inputs, tracer: Tracer) -> dict[str, float]:
    """core.parallel, cluster, serving — `sharded_serving`'s layers."""
    scale, out = inputs.scale, {}
    batch = inputs.query_batch(0, 2)  # the size most micro-batches have at the workload's rate

    # The cluster layer alone: publish, start a pool, one shard's round trip
    # against the same shard's searcher in-process.  Forked before any
    # wrapper is installed, so the workers run unwrapped code.
    store = DecomposedStore(inputs.data)
    plan = ShardPlan.balanced(scale.cardinality, 2)
    started = time.perf_counter()
    segment = SharedStoreSegment(store)
    published = time.perf_counter()
    executor = ProcessShardExecutor(
        segment, EngineSpec(kind="exact", metric=HistogramIntersection()), plan, plan.num_shards
    )
    out["cluster.shm.publish_s"] = published - started
    out["cluster.executor.start_s"] = time.perf_counter() - published
    out["cluster.shm.segment_mb"] = _segment_bytes(segment) / 1e6
    try:
        executor.search_batch(0, batch, K)
        roundtrip = median_time(lambda: executor.search_batch(0, batch, K), 30)
    finally:
        executor.close()
        segment.release()
    shards = ShardedBondSearcher(store, shards=plan).shard_searchers
    for searcher in shards:
        searcher.search_batch(batch, K)
    in_process = [median_time(lambda: s.search_batch(batch, K), 20) for s in shards]
    out["cluster.executor.roundtrip_ms_p50"] = roundtrip * 1e3
    out["cluster.executor.ipc_overhead_ms_p50"] = (roundtrip - in_process[0]) * 1e3
    out["core.parallel.shard_skew"] = max(in_process) / statistics.fmean(in_process)

    workload = ShardedServing(inputs)
    workload.setup()
    try:
        measured, spans = _traced(
            tracer, lambda: workload.measure(scale.probe_seconds, warmup=False)
        )
    finally:
        workload.close()
    stats = measured.notes["serving_stats"]
    out["core.parallel.search_batch_ms_p50"] = (
        statistics.median(durations(spans, "core.parallel.search_batch")) * 1e3
    )
    out["core.parallel.merge_us_p50"] = statistics.median(durations(spans, "core.parallel.merge")) * 1e6
    out["serving.queue_wait_ms_p50"] = stats["queue_wait_p50"] * 1e3
    out["serving.queue_wait_ms_p99"] = stats["queue_wait_p99"] * 1e3
    out["serving.batch_size_mean"] = stats["mean_batch_size"]
    out["serving.batch_ms_p50"] = stats["batch_seconds_p50"] * 1e3
    out["serving.overhead_ms_p50"] = (
        stats["request_seconds_p50"] - stats["queue_wait_p50"] - stats["batch_seconds_p50"]
    ) * 1e3
    out["serving.rejected"] = stats["rejected"]
    out["serving.retries"] = stats["retries"]
    out["bench.generator_lag_ms_p90"] = measured.notes["generator_lag_ms_p90"]
    out.update(_self_us_per_query(spans, measured.attempted, ("core.parallel", "cluster")))
    return out


def _directory_bytes(path) -> dict[str, int]:
    return {entry.name: entry.stat().st_size for entry in path.iterdir()}


def probe_live(inputs: Inputs, tracer: Tracer) -> dict[str, float]:
    """mutability, storage.persistence — what `live_updates` adds to the read path."""
    scale = inputs.scale
    cycles = min(6, scale.cycles_per_period)
    row_bytes = scale.dimensionality * 8
    out, saves, opens = {}, [], []
    workload = None
    try:
        for _ in range(3):
            if workload is not None:
                workload.close()
            workload = LiveUpdates(inputs)
            workload.setup()
            saves.append(workload.timings["save_s"])
            opens.append(workload.timings["open_s"])
        out["storage.persistence.save_s"] = statistics.median(saves)
        out["storage.persistence.open_s"] = statistics.median(opens)
        out["storage.persistence.bytes_per_user_byte"] = (
            sum(_directory_bytes(workload.home).values()) / inputs.data.nbytes
        )

        # Three write-only periods: acknowledgement and reorganize times, and
        # the bytes each made the log and the store grow by.
        log = Measurement()
        wal_per_user, rewritten_per_tail = [], []

        def periods() -> None:
            for _ in range(3):
                for _ in range(cycles):
                    workload.write_cycle(log)
                period = workload.period
                tail_bytes = len(period.row_numbers) * row_bytes
                wal_per_user.append(
                    workload.wal_bytes() / (tail_bytes + len(period.deleted) * 8)
                )
                before = _directory_bytes(workload.home)
                workload.reorganize(log)
                after = _directory_bytes(workload.home)
                fresh = sum(size for name, size in after.items() if name not in before)
                rewritten_per_tail.append(fresh / tail_bytes)

        _, spans = _traced(tracer, periods)
        out["mutability.insert_ack_ms_p50"] = statistics.median(log.notes["insert_s"]) * 1e3
        out["mutability.delete_ack_ms_p50"] = statistics.median(log.notes["delete_s"]) * 1e3
        out["mutability.reorganize_s_p50"] = statistics.median(log.notes["reorganize_s"])
        out["mutability.wal.bytes_per_user_byte"] = statistics.fmean(wal_per_user)
        out["mutability.reorganize.bytes_written_per_tail_byte"] = statistics.fmean(
            rewritten_per_tail
        )
        by_id = {span["id"]: span for span in spans}
        acks = {"mutability.insert", "mutability.delete"}
        ack_fsyncs = [
            span["end"] - span["start"]
            for span in spans
            if span["name"] == "os.fsync" and by_id[span["parent"]]["name"] in acks
        ]
        out["mutability.wal.fsyncs_per_ack"] = len(ack_fsyncs) / (2 * 3 * cycles)
        out["mutability.wal.fsync_ms_p50"] = statistics.median(ack_fsyncs) * 1e3
        out["mutability.reorganize.persist_share"] = sum(
            durations(spans, "storage.persistence.save")
        ) / sum(durations(spans, "mutability.reorganize"))

        # The tail overlay's cost on the read path: the same queries over an
        # empty tail (just reorganized) and over a full period's tail.
        index, count = workload.index, min(64, scale.num_queries)

        def query_p50() -> float:
            index.answer(workload.query(0))
            samples = []
            for number in range(count):
                started = time.perf_counter()
                index.answer(workload.query(number))
                samples.append(time.perf_counter() - started)
            return statistics.median(samples)

        empty = query_p50()
        for _ in range(scale.cycles_per_period):
            workload.write_cycle(log)
        out["mutability.overlay.latency_ratio"] = query_p50() / empty
    finally:
        if workload is not None:
            workload.close()
    return out


def probe_layers(inputs: Inputs, tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric, by name."""
    out: dict[str, float] = {}
    for probe in (probe_exact, probe_compressed, probe_sharded, probe_live):
        out.update(probe(inputs, tracer))
    return out
