"""Planner unit tests: capability matching, cost-based choice, pinning,
rejection transcripts, and Capabilities combinations over fake backends."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    Backend,
    BackendRegistry,
    Capabilities,
    CostEstimate,
    DEFAULT_REGISTRY,
    Index,
    Query,
)
from repro.errors import PlanError, QueryError


class FakeBackend(Backend):
    """A backend whose capabilities and cost are fully scripted."""

    def __init__(
        self,
        name: str,
        score: float,
        *,
        metrics: tuple[str, ...] = (),
        modes: tuple[str, ...] = ("exact", "approx"),
        weighted: bool = False,
        subspace: bool = False,
        batched: bool = False,
    ) -> None:
        self.capabilities = Capabilities(
            backend=name,
            description=f"fake backend {name}",
            metrics=frozenset(metrics),
            modes=frozenset(modes),
            weighted=weighted,
            subspace=subspace,
            batched=batched,
        )
        self._score = score
        self.created = 0

    def estimate(self, index, query, metric) -> CostEstimate:
        return CostEstimate(bytes_read=self._score, detail="scripted")

    def create(self, index, metric):
        self.created += 1
        return object()


@pytest.fixture(scope="module")
def small_vectors() -> np.ndarray:
    rng = np.random.default_rng(11)
    histograms = rng.random((200, 16))
    return histograms / histograms.sum(axis=1, keepdims=True)


def make_index(small_vectors, *backends) -> Index:
    registry = BackendRegistry()
    for backend in backends:
        registry.register(backend)
    return Index.build(small_vectors, registry=registry)


class TestBuiltinPlanning:
    def test_exact_histogram_chooses_bond(self, small_vectors):
        index = Index.build(small_vectors)
        plan = index.plan(Query(small_vectors[0], k=5, metric="histogram"))
        assert plan.backend_name == "bond"
        assert plan.engine == "fused"

    def test_compressed_mode_chooses_compressed_bond(self, small_vectors):
        index = Index.build(small_vectors)
        plan = index.plan(Query(small_vectors[0], k=5, mode="compressed"))
        assert plan.backend_name == "compressed_bond"

    def test_low_dimensional_euclidean_chooses_rtree(self):
        rng = np.random.default_rng(3)
        index = Index.build(rng.random((500, 4)))
        plan = index.plan(Query(np.full(4, 0.5), k=5, metric="euclidean"))
        assert plan.backend_name == "rtree"

    def test_high_dimensional_euclidean_avoids_rtree(self):
        rng = np.random.default_rng(3)
        index = Index.build(rng.random((500, 64)))
        plan = index.plan(Query(np.full(64, 0.5), k=5, metric="euclidean"))
        assert plan.backend_name == "bond"

    def test_weighted_query_rejects_incapable_backends(self, small_vectors):
        index = Index.build(small_vectors)
        plan = index.plan(
            Query(small_vectors[0], k=5, weights=np.ones(small_vectors.shape[1]))
        )
        rejections = {c.backend: c.rejection for c in plan.candidates if not c.eligible}
        assert "rtree" in rejections
        assert "weighted" in rejections["rtree"]
        assert plan.backend_name == "bond"

    def test_dimensionality_mismatch(self, small_vectors):
        index = Index.build(small_vectors)
        with pytest.raises(QueryError):
            index.plan(Query(np.ones(small_vectors.shape[1] + 1), k=5))

    def test_pinned_backend_is_honoured(self, small_vectors):
        index = Index.build(small_vectors)
        plan = index.plan(Query(small_vectors[0], k=5, backend="sequential_scan"))
        assert plan.backend_name == "sequential_scan"

    def test_pinned_incapable_backend_fails(self, small_vectors):
        index = Index.build(small_vectors)
        with pytest.raises(PlanError):
            index.plan(Query(small_vectors[0], k=5, metric="histogram", backend="rtree"))

    # hnsw and partial_abandon were registered once and are retired.
    @pytest.mark.parametrize("name", ["quantum", "hnsw", "partial_abandon"])
    def test_unknown_pinned_backend_fails(self, small_vectors, name):
        index = Index.build(small_vectors)
        with pytest.raises(PlanError, match="query pins unknown backend"):
            index.plan(Query(small_vectors[0], k=5, backend=name))

    def test_registry_holds_the_builtin_backends_in_tie_break_order(self):
        assert DEFAULT_REGISTRY.names() == [
            "bond",
            "compressed_bond",
            "sharded_bond",
            "sequential_scan",
            "vafile",
            "rtree",
            "ivf",
        ]

    def test_explain_reports_choice_and_estimate(self, small_vectors):
        index = Index.build(small_vectors)
        transcript = index.explain(Query(small_vectors[0], k=5))
        assert "chosen: bond (engine=fused)" in transcript
        assert "MB read" in transcript
        assert "rejected" in transcript  # at least the compressed backends

    def test_explain_executes_nothing(self, small_vectors):
        backend = FakeBackend("lazy", 1.0)
        index = make_index(small_vectors, backend)
        index.explain(Query(small_vectors[0], k=5))
        assert backend.created == 0


class TestShardedPlanning:
    """The sharded_bond backend wins exactly when its cost estimate says so."""

    def test_unsharded_index_never_plans_sharded(self, small_vectors):
        index = Index.build(small_vectors)  # shards=1
        plan = index.plan(Query(small_vectors[0], k=5))
        assert plan.backend_name != "sharded_bond"
        sharded = next(c for c in plan.candidates if c.backend == "sharded_bond")
        # eligible but strictly pricier: one shard parallelises nothing,
        # the merge and coordination overhead remain.
        assert sharded.eligible
        assert sharded.estimate.score > plan.estimate.score

    def test_sharded_index_plans_sharded_exact_and_unsharded_compressed(self):
        # Paper-scale shape (plans never materialise stores, so zeros do):
        # at 59619 x 166 the per-shard scan dwarfs merge + coordination.
        vectors = np.zeros((59_619, 166))
        index = Index.build(vectors, shards=4)
        query = np.zeros((8, 166))
        assert index.plan(Query(query, k=10)).backend_name == "sharded_bond"
        # The compressed filter is never split.
        plan = index.plan(Query(query, k=10, mode="compressed"))
        assert plan.backend_name == "compressed_bond"
        sharded = next(c for c in plan.candidates if c.backend == "sharded_bond")
        assert not sharded.eligible

    def test_sharding_a_tiny_collection_still_loses(self, small_vectors):
        # 200 rows split four ways: coordination overhead exceeds the scan
        # savings, so the planner honestly keeps the unsharded engine.
        index = Index.build(small_vectors, shards=4)
        plan = index.plan(Query(small_vectors[0], k=5))
        assert plan.backend_name == "bond"

    def test_estimate_scales_with_shard_count(self):
        vectors = np.zeros((59_619, 166))
        query = Query(np.zeros((8, 166)), k=10)

        def sharded_score(shards: int) -> float:
            index = Index.build(vectors, shards=shards)
            plan = index.plan(query)
            return next(
                c for c in plan.candidates if c.backend == "sharded_bond"
            ).estimate.score

        assert sharded_score(4) < sharded_score(2) < sharded_score(1)

    def test_pinned_sharded_backend_executes_identically(self, small_vectors):
        from repro.core.bond import BondSearcher
        from repro.storage.decomposed import DecomposedStore

        index = Index.build(small_vectors)
        facade = index.answer(Query(small_vectors[:4], k=6, backend="sharded_bond"))
        direct = BondSearcher(DecomposedStore(small_vectors)).search_batch(
            small_vectors[:4], 6
        )
        assert all(
            np.array_equal(a.oids, b.oids) and np.array_equal(a.scores, b.scores)
            for a, b in zip(facade, direct)
        )

    def test_sharded_rejects_unsupported_metric(self, small_vectors):
        index = Index.build(small_vectors, shards=4)
        plan = index.plan(
            Query(small_vectors[0], k=5, metric="euclidean_similarity", mode="compressed")
        )
        # The sharded backend serves no compressed query (nor, lacking an
        # exact-mode BOND bound, euclidean_similarity); the unsharded
        # compressed engine serves.
        assert plan.backend_name == "compressed_bond"
        sharded = next(c for c in plan.candidates if c.backend == "sharded_bond")
        assert not sharded.eligible

    def test_explain_transcript_shows_shard_count(self):
        index = Index.build(np.zeros((59_619, 166)), shards=4)
        transcript = index.explain(Query(np.zeros((8, 166)), k=10))
        assert "sharded_bond" in transcript
        assert "4 parallel shards" in transcript
        assert "chosen: sharded_bond (engine=sharded)" in transcript


class TestCapabilitiesCombinations:
    def test_cheapest_eligible_wins(self, small_vectors):
        cheap = FakeBackend("cheap", 10.0)
        pricey = FakeBackend("pricey", 1000.0)
        index = make_index(small_vectors, pricey, cheap)
        assert index.plan(Query(small_vectors[0], k=5)).backend_name == "cheap"

    def test_tie_breaks_by_registration_order(self, small_vectors):
        first = FakeBackend("first", 10.0)
        second = FakeBackend("second", 10.0)
        index = make_index(small_vectors, first, second)
        assert index.plan(Query(small_vectors[0], k=5)).backend_name == "first"

    def test_mode_filter(self, small_vectors):
        exact_only = FakeBackend("exact_only", 1.0, modes=("exact",))
        compressed_only = FakeBackend("compressed_only", 100.0, modes=("compressed",))
        index = make_index(small_vectors, exact_only, compressed_only)
        assert (
            index.plan(Query(small_vectors[0], k=5, mode="compressed")).backend_name
            == "compressed_only"
        )

    def test_metric_filter(self, small_vectors):
        euclid_only = FakeBackend("euclid_only", 1.0, metrics=("squared_euclidean",))
        generic = FakeBackend("generic", 100.0)
        index = make_index(small_vectors, euclid_only, generic)
        plan = index.plan(Query(small_vectors[0], k=5, metric="histogram"))
        assert plan.backend_name == "generic"
        plan = index.plan(Query(small_vectors[0], k=5, metric="euclidean"))
        assert plan.backend_name == "euclid_only"

    def test_weighted_and_subspace_filters(self, small_vectors):
        rigid = FakeBackend("rigid", 1.0)
        flexible = FakeBackend(
            "flexible",
            100.0,
            metrics=("weighted_squared_euclidean",),
            weighted=True,
            subspace=True,
        )
        index = make_index(small_vectors, rigid, flexible)
        weights = np.ones(small_vectors.shape[1])
        assert (
            index.plan(Query(small_vectors[0], k=5, weights=weights)).backend_name
            == "flexible"
        )
        assert (
            index.plan(Query(small_vectors[0], k=5, subspace=[0, 1])).backend_name
            == "flexible"
        )

    def test_no_capable_backend_lists_all_reasons(self, small_vectors):
        a = FakeBackend("alpha", 1.0, modes=("exact",))
        b = FakeBackend("beta", 1.0, modes=("exact",))
        index = make_index(small_vectors, a, b)
        with pytest.raises(PlanError) as excinfo:
            index.plan(Query(small_vectors[0], k=5, mode="compressed"))
        message = str(excinfo.value)
        assert "alpha" in message and "beta" in message

    def test_duplicate_registration_rejected(self):
        registry = BackendRegistry()
        registry.register(FakeBackend("dup", 1.0))
        with pytest.raises(PlanError):
            registry.register(FakeBackend("dup", 2.0))

    def test_batch_share_discount_in_builtin_estimates(self, small_vectors):
        """Natively batched backends report sub-linear batch read growth."""
        index = Index.build(small_vectors)
        single = index.plan(Query(small_vectors[0], k=5))
        batch = index.plan(Query(small_vectors[:8], k=5))
        assert batch.estimate.bytes_read < 8 * single.estimate.bytes_read
        assert batch.estimate.arithmetic_ops == 8 * single.estimate.arithmetic_ops


class CountingBackend(FakeBackend):
    """A fake backend that counts how often the planner asks for an estimate."""

    estimates = 0

    def estimate(self, index, query, metric) -> CostEstimate:
        self.estimates += 1
        return super().estimate(index, query, metric)


class TestPlanCache:
    """The planner decides once per workload shape and index state."""

    @staticmethod
    def assert_same_decision(cached, fresh) -> None:
        assert cached.metric is fresh.metric
        assert cached.backend is fresh.backend
        assert cached.estimate == fresh.estimate
        assert cached.candidates == fresh.candidates
        assert cached.failover_chain() == fresh.failover_chain()

    @pytest.mark.parametrize(
        "extra",
        [
            {},
            {"mode": "compressed"},
            {"backend": "sequential_scan"},
            {"metric": "euclidean", "weights": np.linspace(0.0, 2.0, 16)},
            {"mode": "approx", "metric": "euclidean", "approx_params": {"nprobe": 2}},
        ],
    )
    def test_cached_plan_equals_fresh_plan_field_by_field(self, small_vectors, extra):
        index = Index.build(small_vectors)
        first = Query(small_vectors[0], k=5, **extra)
        second = Query(small_vectors[1], k=5, **extra)
        index.plan(first)
        cached = index.plan(second)
        fresh = index.planner._plan_uncached(second)
        assert cached.query is second  # re-bound, not the query that filled the cache
        self.assert_same_decision(cached, fresh)
        assert cached.describe() == fresh.describe()

    def test_same_shape_plans_once_other_shapes_plan_again(self, small_vectors):
        backend = CountingBackend("counted", 1.0, batched=True)
        index = make_index(small_vectors, backend)
        for row in range(5):
            index.plan(Query(small_vectors[row], k=5))
        assert backend.estimates == 1
        index.plan(Query(small_vectors[0], k=6))
        index.plan(Query(small_vectors[:4], k=5))
        index.plan(Query(small_vectors[:8], k=5))
        assert backend.estimates == 4

    def test_explain_always_replans(self, small_vectors):
        backend = CountingBackend("counted", 1.0)
        index = make_index(small_vectors, backend)
        index.plan(Query(small_vectors[0], k=5))
        index.explain(Query(small_vectors[1], k=5))
        index.explain(Query(small_vectors[2], k=5))
        assert backend.estimates == 3

    def test_updates_and_reorganize_invalidate(self, small_vectors):
        index = Index.build(small_vectors)
        query = Query(small_vectors[0], k=5)
        clean = index.plan(query)
        assert "live tail" not in clean.estimate.detail

        index.insert(small_vectors[:3])
        with_tail = index.plan(query)
        self.assert_same_decision(with_tail, index.planner._plan_uncached(query))
        assert "3 rows, 0 deletes" in with_tail.estimate.detail

        index.delete([7])
        with_delete = index.plan(query)
        self.assert_same_decision(with_delete, index.planner._plan_uncached(query))
        assert "3 rows, 1 deletes" in with_delete.estimate.detail

        index.reorganize()
        merged = index.plan(query)
        self.assert_same_decision(merged, index.planner._plan_uncached(query))
        assert "live tail" not in merged.estimate.detail
        assert merged.estimate != clean.estimate  # 202 rows now, not 200

    def test_failed_plans_are_not_cached(self, small_vectors):
        index = Index.build(small_vectors)
        for _ in range(2):
            with pytest.raises(PlanError):
                index.plan(Query(small_vectors[0], k=5, backend="quantum"))
            with pytest.raises(PlanError):
                index.plan(Query(small_vectors[0], k=5, metric="histogram", backend="rtree"))
            with pytest.raises(QueryError):
                index.plan(Query(np.ones(small_vectors.shape[1] + 1), k=5))
        # ... and a good plan of the same shape is unaffected by them.
        assert index.plan(Query(small_vectors[0], k=5)).backend_name == "bond"

    def test_late_registration_is_seen(self, small_vectors):
        index = make_index(small_vectors, FakeBackend("first", 10.0))
        assert index.plan(Query(small_vectors[0], k=5)).backend_name == "first"
        index.planner.registry.register(FakeBackend("cheaper", 1.0))
        assert index.plan(Query(small_vectors[1], k=5)).backend_name == "cheaper"

    def test_cache_is_bounded(self, small_vectors):
        index = Index.build(small_vectors)
        planner = index.planner
        for k in range(1, 3 * planner.PLAN_CACHE_SIZE):
            index.plan(Query(small_vectors[0], k=k))
        assert len(planner._plans) <= planner.PLAN_CACHE_SIZE
