"""Sharded engine suite: plan/slicing invariants, bitwise identity of
sharded results against the unsharded fused engines (the one lattice over
engine kind x executor x shard count x call shape x schedule, plus metrics
and forced ties), cost aggregation, and the query-side early-out of the
compressed filter."""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import PerDimensionCompressedSearcher

from repro.core.bond import BondSearcher
from repro.core.compressed import CompressedBondSearcher
from repro.core.parallel import ShardedBondSearcher, merge_traces
from repro.core.planner import FixedPeriodSchedule, MassAwareSchedule
from repro.core.result import PruningTrace
from repro.engine.cost import CostAccount, CostModel
from repro.errors import QueryError, StorageError
from repro.kernels.interval import provably_zero_dimensions
from repro.metrics.euclidean import SquaredEuclidean
from repro.metrics.histogram import HistogramIntersection
from repro.metrics.weighted import WeightedSquaredEuclidean
from repro.storage.compressed import CompressedStore
from repro.storage.decomposed import DecomposedStore
from repro.storage.sharding import ShardPlan, shard_view
from repro.workload.ground_truth import exact_top_k


def results_identical(left, right) -> bool:
    return bool(
        np.array_equal(left.oids, right.oids) and np.array_equal(left.scores, right.scores)
    )


def batches_identical(left, right) -> bool:
    return len(list(left)) == len(list(right)) and all(
        results_identical(a, b) for a, b in zip(left, right)
    )


# -- the shard plan ----------------------------------------------------------


class TestShardPlan:
    def test_balanced_tiles_the_collection_exactly_once(self):
        plan = ShardPlan.balanced(1003, 4)
        assert plan.num_shards == 4
        assert plan.boundaries[0] == 0 and plan.boundaries[-1] == 1003
        sizes = [plan.rows(shard) for shard in range(plan.num_shards)]
        assert sum(sizes) == 1003
        assert max(sizes) - min(sizes) <= 1

    def test_balanced_clamps_shards_to_rows(self):
        plan = ShardPlan.balanced(3, 8)
        assert plan.num_shards == 3
        assert all(plan.rows(shard) == 1 for shard in range(3))

    def test_shard_of_maps_every_oid(self):
        plan = ShardPlan.balanced(100, 3)
        for oid in range(100):
            shard = plan.shard_of(oid)
            start, stop = plan.ranges[shard]
            assert start <= oid < stop
        with pytest.raises(StorageError):
            plan.shard_of(100)

    def test_manifest_round_trip(self):
        plan = ShardPlan.balanced(59_619, 4)
        assert ShardPlan.from_manifest(plan.to_manifest()) == plan

    def test_malformed_manifest_rejected(self):
        with pytest.raises(StorageError):
            ShardPlan.from_manifest({"cardinality": 10})

    @pytest.mark.parametrize(
        "boundaries", [(0, 5), (1, 10), (0, 5, 5, 10), (0, 7, 3, 10)]
    )
    def test_invalid_boundaries_rejected(self, boundaries):
        if boundaries == (0, 5):  # valid shape but wrong cardinality
            with pytest.raises(StorageError):
                ShardPlan(cardinality=10, boundaries=boundaries)
        else:
            with pytest.raises(StorageError):
                ShardPlan(cardinality=10, boundaries=boundaries)

    def test_zero_shards_rejected(self):
        with pytest.raises(StorageError):
            ShardPlan.balanced(10, 0)


# -- store slicing -----------------------------------------------------------


def shard_views(store, plan):
    return [shard_view(store, plan, shard) for shard in range(plan.num_shards)]


class TestShardStores:
    def test_decomposed_shards_hold_the_right_rows(self, corel_histograms):
        store = DecomposedStore(corel_histograms)
        plan = ShardPlan.balanced(store.cardinality, 3)
        shards = shard_views(store, plan)
        for shard, (start, stop) in zip(shards, plan.ranges):
            assert np.array_equal(shard.matrix, corel_histograms[start:stop])
            assert shard.has_row_sums == store.has_row_sums

    def test_shards_charge_private_models(self, corel_histograms):
        store = DecomposedStore(corel_histograms)
        shards = shard_views(store, ShardPlan.balanced(store.cardinality, 2))
        before = store.cost.checkpoint()
        shards[0].fragment(0)  # a full fragment read on the shard
        assert store.cost.since(before).bytes_read == 0
        assert shards[0].cost.account.bytes_read > 0
        assert shards[1].cost.account.bytes_read == 0

    def test_plan_must_match_store(self, corel_histograms):
        store = DecomposedStore(corel_histograms)
        with pytest.raises(StorageError):
            shard_views(store, ShardPlan.balanced(store.cardinality - 1, 2))

    def test_compressed_shards_share_the_global_grid(self, corel_histograms):
        store = CompressedStore(DecomposedStore(corel_histograms))
        plan = ShardPlan.balanced(store.cardinality, 3)
        shards = [s.store for s in ShardedBondSearcher(store, shards=plan).shard_searchers]
        for shard, (start, stop) in zip(shards, plan.ranges):
            assert shard.minimums is store.minimums
            assert shard.cell_widths is store.cell_widths
            # code columns are zero-copy row slices of the parent's
            parent_codes = store.code_columns([0], charge=False)[0]
            shard_codes = shard.code_columns([0], charge=False)[0]
            assert np.shares_memory(shard_codes, parent_codes)
            assert np.array_equal(shard_codes, parent_codes[start:stop])

    def test_row_slice_validates_ranges(self, corel_histograms):
        store = CompressedStore(DecomposedStore(corel_histograms))
        exact = DecomposedStore(corel_histograms[:10])
        with pytest.raises(StorageError):
            CompressedStore.row_slice(store, 5, 5, exact=exact)
        with pytest.raises(StorageError):
            CompressedStore.row_slice(store, 0, 20, exact=exact)  # shape mismatch


# -- bitwise identity of the sharded engines ---------------------------------


def exact_metrics(dimensionality: int):
    rng = np.random.default_rng(17)
    weights = rng.uniform(0.0, 2.0, dimensionality)
    weights[:: max(1, dimensionality // 6)] = 0.0  # subspace-style zero weights
    return [
        HistogramIntersection(),
        SquaredEuclidean(),
        WeightedSquaredEuclidean(weights),
    ]


class TestShardedExactIdentity:
    @pytest.mark.parametrize("metric_index", [0, 1, 2])
    @pytest.mark.parametrize("shards", [1, 3, 4])
    def test_batch_identical_to_unsharded_fused(
        self, corel_histograms, metric_index, shards
    ):
        metric = exact_metrics(corel_histograms.shape[1])[metric_index]
        reference = BondSearcher(DecomposedStore(corel_histograms), metric=metric)
        sharded = ShardedBondSearcher(
            DecomposedStore(corel_histograms), metric=metric, shards=shards
        )
        queries = corel_histograms[[5, 77, 803]]
        assert batches_identical(
            reference.search_batch(queries, 10), sharded.search_batch(queries, 10)
        )

    def test_trace_is_recorded_into_caller_buffer(self, corel_histograms):
        sharded = ShardedBondSearcher(DecomposedStore(corel_histograms), shards=2)
        trace = PruningTrace()
        result = sharded.search(corel_histograms[9], 5, trace=trace)
        assert result.candidate_trace is trace
        assert trace.dimensions_processed  # the merged curve landed in the buffer
        assert trace.candidates_remaining[0] == len(corel_histograms)

    def test_k_larger_than_shard_rows(self, corel_histograms):
        # k exceeds every shard's cardinality share: shards return fewer than
        # k rows each and the merge must still produce the global top-k.
        small = corel_histograms[:30]
        reference = BondSearcher(DecomposedStore(small))
        sharded = ShardedBondSearcher(DecomposedStore(small), shards=4)
        assert results_identical(
            reference.search(small[2], 20), sharded.search(small[2], 20)
        )


class TestShardedCompressedIdentity:
    @pytest.mark.parametrize("metric_index", [0, 1, 2])
    @pytest.mark.parametrize("shards", [1, 3])
    def test_batch_identical_to_unsharded_fused(
        self, corel_histograms, metric_index, shards
    ):
        metric = exact_metrics(corel_histograms.shape[1])[metric_index]
        reference = CompressedBondSearcher(
            CompressedStore(DecomposedStore(corel_histograms)), metric=metric
        )
        sharded = ShardedBondSearcher(
            CompressedStore(DecomposedStore(corel_histograms)),
            metric=metric,
            shards=shards,
        )
        queries = corel_histograms[[8, 450, 1001]]
        assert batches_identical(
            reference.search_batch(queries, 10), sharded.search_batch(queries, 10)
        )

    def test_results_are_exact_top_k(self, clustered_vectors):
        # Off-unit-box Euclidean data: the corner-bound path plus sharding.
        data = clustered_vectors * 3.0 - 1.0
        metric = SquaredEuclidean(require_unit_box=False)
        sharded = ShardedBondSearcher(
            CompressedStore(DecomposedStore(data)), metric=metric, shards=3
        )
        for query_index in (1, 64, 1000):
            expected = exact_top_k(data, data[query_index], 10, metric)
            assert results_identical(expected, sharded.search(data[query_index], 10))
        sharded.close()


@settings(max_examples=12, deadline=None)
@given(
    shards=st.integers(min_value=1, max_value=6),
    k=st.integers(min_value=1, max_value=12),
    data_seed=st.integers(min_value=0, max_value=2**16),
)
def test_sharded_identity_property(shards, k, data_seed):
    """Any shard count / k / data: sharded == unsharded, bit for bit.

    Runs both the exact and the compressed engine over a random histogram-like
    collection (with duplicated rows, so score ties actually occur and the
    merge tie-break is exercised).
    """
    rng = np.random.default_rng(data_seed)
    data = rng.random((180, 12))
    data[90:] = data[:90]  # force exact score ties across shard boundaries
    data /= data.sum(axis=1, keepdims=True)
    queries = data[rng.choice(180, 3, replace=False)]

    exact_reference = BondSearcher(DecomposedStore(data))
    exact_sharded = ShardedBondSearcher(DecomposedStore(data), shards=shards)
    assert batches_identical(
        exact_reference.search_batch(queries, k), exact_sharded.search_batch(queries, k)
    )

    compressed_reference = CompressedBondSearcher(CompressedStore(DecomposedStore(data)))
    compressed_sharded = ShardedBondSearcher(
        CompressedStore(DecomposedStore(data)),
        shards=shards,
    )
    assert batches_identical(
        compressed_reference.search_batch(queries, k),
        compressed_sharded.search_batch(queries, k),
    )


#: The two ways the one engine can run its shards.
EXECUTORS = {
    "inline": {},
    "process": {"executor": "process"},
}


def answer_record(results, cost):
    """Everything an answer carries that must not depend on the executor."""
    return (
        [(r.oids.tobytes(), r.scores.tobytes()) for r in results],
        [
            (r.candidate_trace.dimensions_processed, r.candidate_trace.candidates_remaining)
            for r in results
        ],
        cost.as_dict(),
    )


@pytest.mark.parametrize(
    "schedule", [MassAwareSchedule(), FixedPeriodSchedule(8)], ids=["mass", "m8"]
)
@pytest.mark.parametrize("shards", [1, 2, 3])
@pytest.mark.parametrize("kind", ["exact", "compressed"])
def test_identity_lattice(corel_histograms, kind, shards, schedule):
    """The one engine over kind x executor x shards x call shape x schedule.

    OIDs, scores, trace and cost account are equal across the two
    executors, ``search(q)`` equals ``search_batch(q[None])`` on each of them,
    and (OIDs, scores) are bitwise the unsharded searcher's.
    """
    data = corel_histograms[:400]
    queries = data[[3, 42, 110, 250, 399]]
    unsharded = CompressedBondSearcher if kind == "compressed" else BondSearcher

    def make_store():
        exact = DecomposedStore(data)
        return CompressedStore(exact) if kind == "compressed" else exact

    reference = unsharded(make_store(), schedule=schedule)
    engines = {
        name: ShardedBondSearcher(make_store(), schedule=schedule, shards=shards, **options)
        for name, options in EXECUTORS.items()
    }
    try:
        calls = {
            "search": lambda s: [s.search(queries[0], 7)],
            "batch of 1": lambda s: s.search_batch(queries[:1], 7),
            "batch of 5": lambda s: s.search_batch(queries, 7),
        }
        records = {}
        for shape, call in calls.items():
            expected = call(reference)
            for name, engine in engines.items():
                answer = call(engine)
                results = list(answer)
                cost = results[0].cost if shape == "search" else answer.cost
                records[shape, name] = answer_record(results, cost)
                assert batches_identical(expected, results), (shape, name)
            for name in engines:
                assert records[shape, name] == records[shape, "inline"], (shape, name)
        assert records["search", "inline"] == records["batch of 1", "inline"]
    finally:
        for engine in engines.values():
            engine.close()


def shard_threads() -> list[str]:
    return [thread.name for thread in threading.enumerate() if thread.name.startswith("repro-shard")]


def test_no_engine_configuration_starts_shard_threads(corel_histograms):
    """In-process shards run inline and process shards are scattered from
    the calling thread: an open, searched engine runs no ``repro-shard``
    thread, whatever its executor or worker count."""
    data = corel_histograms[:300]
    query = data[17]
    for options in ({}, {"executor": "process"}, {"executor": "process", "workers": 1}):
        with ShardedBondSearcher(DecomposedStore(data), shards=3, **options) as engine:
            engine.search(query, 5)
            engine.search_batch(data[:4], 5)
            assert not shard_threads(), options


def test_workers_with_the_in_process_executor_is_rejected(corel_histograms):
    store = DecomposedStore(corel_histograms[:300])
    with pytest.raises(QueryError, match="in-process shards run inline"):
        ShardedBondSearcher(store, shards=3, workers=1)
    with pytest.raises(QueryError, match="in-process shards run inline"):
        ShardedBondSearcher(store, shards=3, workers=3, executor="thread")


# -- cost aggregation --------------------------------------------------------


@pytest.mark.parametrize("metric_index", [0, 1, 2], ids=["Hq", "Ev", "weighted"])
def test_one_shard_costs_the_unsharded_search_plus_the_merge(corel_histograms, metric_index):
    # The shard's own account opens after its searcher planned, like the
    # unsharded searcher's — so a bound that tracks T(x+) (Ev, weighted) does
    # not pay the row-sum column copy a second time for being sharded.
    metric = exact_metrics(corel_histograms.shape[1])[metric_index]
    queries, k = corel_histograms[[5, 77, 803]], 10
    plain = BondSearcher(DecomposedStore(corel_histograms), metric=metric)
    sharded = ShardedBondSearcher(DecomposedStore(corel_histograms), metric=metric, shards=1)
    expected = plain.search_batch(queries, k).cost.as_dict()
    expected["heap_operations"] += len(queries) * k
    expected["comparisons"] += len(queries) * k
    assert sharded.search_batch(queries, k).cost.as_dict() == expected


class TestShardedCostAggregation:
    def test_parent_receives_exactly_the_shard_deltas_plus_merge(self, corel_histograms):
        store = DecomposedStore(corel_histograms)
        sharded = ShardedBondSearcher(store, shards=3)
        shard_stores = [searcher.store for searcher in sharded.shard_searchers]
        before_shard = [s.cost.checkpoint() for s in shard_stores]
        result = sharded.search(corel_histograms[12], 10)

        shard_bytes = sum(
            s.cost.since(b).bytes_read for s, b in zip(shard_stores, before_shard)
        )
        # Merge work is charged as heap/comparisons only, so the parent's
        # bytes are exactly the sum of the shard deltas — nothing double
        # charged, nothing lost.
        assert result.cost.bytes_read == shard_bytes
        assert result.cost.heap_operations > sum(
            s.cost.since(b).heap_operations for s, b in zip(shard_stores, before_shard)
        )

    def test_parent_untouched_while_only_shards_charge(self, corel_histograms):
        store = DecomposedStore(corel_histograms)
        sharded = ShardedBondSearcher(store, shards=2)
        checkpoint = store.cost.checkpoint()
        sharded.shard_searchers[0].store.fragment(1)
        assert store.cost.since(checkpoint).bytes_read == 0


class TestCostModelConcurrency:
    def test_merge_account_adds_every_counter(self):
        parent = CostModel()
        parent.charge_scan(10)
        child_delta = CostAccount(bytes_read=5, arithmetic_ops=7, heap_operations=2)
        parent.merge_account(child_delta)
        assert parent.account.bytes_read == 10 * 8 + 5
        assert parent.account.arithmetic_ops == 7
        assert parent.account.heap_operations == 2

    def test_restore_mutates_the_live_account_in_place(self):
        model = CostModel()
        live = model.account  # reference held across the rollback
        checkpoint = model.checkpoint()
        model.charge_scan(100)
        model.restore(checkpoint)
        assert model.account is live  # never rebound
        assert live.bytes_read == 0
        model.charge_scan(1)  # charges after the rollback land in the same object
        assert model.account.bytes_read == 8

    def test_threaded_merge_into_shared_parent_is_exact(self):
        parent = CostModel()
        workers = 8
        per_worker_charges = 200

        def worker():
            model = CostModel()  # private model: the lock-free charging owner
            for _ in range(per_worker_charges):
                checkpoint = model.checkpoint()
                model.charge_scan(3)
                model.charge_arithmetic(2)
                model.restore(checkpoint)  # probe rolled back from this thread
                model.charge_scan(1)
            parent.merge_account(model.account)

        threads = [threading.Thread(target=worker) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert parent.account.bytes_read == workers * per_worker_charges * 8
        assert parent.account.arithmetic_ops == 0  # every probe was rolled back

    def test_worker_thread_restore_does_not_orphan_references(self):
        model = CostModel()
        checkpoint = model.checkpoint()
        model.charge_scan(4)
        done = threading.Event()

        def worker():
            model.restore(checkpoint)
            done.set()

        threading.Thread(target=worker).start()
        assert done.wait(5.0)
        model.charge_scan(2)  # the main thread's handle still charges the model
        assert model.account.bytes_read == 16


# -- the query-side early-out ------------------------------------------------


class TestQuerySideEarlyOut:
    def test_mask_histogram_requires_zero_query_and_nonnegative_range(self):
        metric = HistogramIntersection()
        minimums = np.array([0.5, 0.0, 0.0, 0.2])
        maximums = np.array([1.0, 0.0, 0.4, 0.9])
        cell_widths = np.array([0.1, 0.0, 0.2, 0.0])
        query = np.array([0.0, 0.0, 0.0, 0.3])
        mask = provably_zero_dimensions(metric, minimums, maximums, cell_widths, query)
        # dim 0: q=0, range stays >= 0.45 -> zero contribution, skip.
        # dim 1: constant 0, q=0 -> skip.  dim 2: lower bound dips below 0
        # (0 - 0.1), min(v, 0) can be negative -> keep.  dim 3: q != 0 -> keep.
        assert mask.tolist() == [True, True, False, False]

    def test_mask_euclidean_requires_constant_dimension_on_query(self):
        metric = SquaredEuclidean()
        minimums = np.array([0.3, 0.3, 0.0])
        maximums = np.array([0.3, 0.3, 1.0])
        cell_widths = np.array([0.0, 0.0, 0.1])
        query = np.array([0.3, 0.2, 0.0])
        mask = provably_zero_dimensions(metric, minimums, maximums, cell_widths, query)
        assert mask.tolist() == [True, False, False]

    def test_mask_weighted_includes_zero_weights(self):
        weights = np.array([0.0, 1.0, 2.0])
        metric = WeightedSquaredEuclidean(weights, normalize_to_dimensionality=False)
        mask = provably_zero_dimensions(
            metric,
            np.array([0.1, 0.5, 0.5]),
            np.array([0.9, 0.5, 0.5]),
            np.array([0.1, 0.0, 0.0]),
            np.array([0.4, 0.5, 0.1]),
        )
        assert mask.tolist() == [True, True, False]

    @pytest.fixture()
    def zeroed_collection(self):
        rng = np.random.default_rng(404)
        data = rng.random((60, 12))
        data[:, 5] = 0.0  # an unused histogram bin: constant zero
        data[:, 9] = 0.0
        return data / data.sum(axis=1, keepdims=True)

    def test_skipped_dimensions_are_never_fetched(self, zeroed_collection):
        store = CompressedStore(DecomposedStore(zeroed_collection))
        # One pruning period covering every dimension: the filter issues its
        # single block read before any prune, so the access count is exact.
        searcher = CompressedBondSearcher(
            store, metric=HistogramIntersection(), schedule=FixedPeriodSchedule(12)
        )
        checkpoint = store.cost.checkpoint()
        result = searcher.search(zeroed_collection[3], 5)
        delta = store.cost.since(checkpoint)
        # 12 dimensions, 2 provably zero: only 10 sequential fragment reads.
        assert delta.sequential_accesses == 10
        assert result.full_scan_dimensions == 10
        assert result.dimensions_processed == 12

    def test_early_out_engines_remain_identical_and_exact(self, zeroed_collection):
        data = zeroed_collection
        metric = HistogramIntersection()
        store = CompressedStore(DecomposedStore(data))
        loop = PerDimensionCompressedSearcher(store, metric=metric)
        fused = CompressedBondSearcher(store, metric=metric)
        for query_index in (0, 17, 59):
            query = data[query_index]
            expected = exact_top_k(data, query, 8, metric)
            checkpoint = store.cost.checkpoint()
            loop_result = loop.search(query, 8)
            loop_cost = store.cost.since(checkpoint)
            checkpoint = store.cost.checkpoint()
            fused_result = fused.search(query, 8)
            fused_cost = store.cost.since(checkpoint)
            assert results_identical(expected, loop_result)
            assert results_identical(loop_result, fused_result)
            assert loop_cost.as_dict() == fused_cost.as_dict()

    def test_early_out_in_batch_and_sharded_paths(self, zeroed_collection):
        data = zeroed_collection
        queries = data[:5]
        reference = CompressedBondSearcher(CompressedStore(DecomposedStore(data)))
        batch = reference.search_batch(queries, 6)
        sharded = ShardedBondSearcher(CompressedStore(DecomposedStore(data)), shards=3)
        assert batches_identical(batch, sharded.search_batch(queries, 6))


# -- facade integration ------------------------------------------------------


class TestIndexShardingOptions:
    def test_build_with_shards_exposes_the_plan(self, corel_histograms):
        from repro.api import Index

        index = Index.build(corel_histograms, shards=4)
        assert index.shards == 4
        assert index.shard_plan == ShardPlan.balanced(len(corel_histograms), 4)

    def test_manifest_round_trip_restores_the_layout(self, corel_histograms, tmp_path):
        from repro.api import Index, Query

        index = Index.build(corel_histograms, shards=3)
        index.save(tmp_path / "sharded")
        reopened = Index.open(tmp_path / "sharded")
        assert reopened.shards == 3
        assert reopened.shard_plan == index.shard_plan
        # An explicit override recomputes a fresh balanced plan instead.
        overridden = Index.open(tmp_path / "sharded", shards=2)
        assert overridden.shard_plan.num_shards == 2
        # And the reopened index still answers bit for bit.
        reference = BondSearcher(DecomposedStore(corel_histograms))
        query = corel_histograms[31]
        assert results_identical(
            reference.search(query, 9),
            reopened.answer(Query(query, k=9, backend="sharded_bond")),
        )

    def test_invalid_shard_count_rejected(self, corel_histograms):
        from repro.api import Index

        with pytest.raises(QueryError):
            Index.build(corel_histograms, shards=0)


# -- trace merging -----------------------------------------------------------


def test_merge_traces_sums_last_known_counts():
    left = PruningTrace()
    left.record(0, 100)
    left.record(8, 40)
    left.record(16, 10)
    right = PruningTrace()
    right.record(0, 100)
    right.record(12, 25)
    merged = merge_traces([left, right])
    assert merged.dimensions_processed == [0, 8, 12, 16]
    assert merged.candidates_remaining == [200, 140, 65, 35]
