"""The approximate tier: IVF clustered pruning.

Pins the contracts ``docs/API.md`` documents for ``mode="approx"``:

* **determinism** — same build seed + knobs means bitwise-identical
  structures (k-means plan, manifests, sidecars) and answers;
* **exhaustive equivalence** — ``ivf`` with ``nprobe >= n_clusters``
  returns the exact tier's top-k OID for OID (ties included: duplicated
  rows resolve by ascending OID, exactly like the exact engines);
* **planner eligibility** — ``ivf`` only ever serves ``mode="approx"``;
  the failover chain substitutes exact backends only;
* **persistence** — manifest v4 round-trips the cluster plan through
  checksummed sidecars, v3 manifests still open (plan rebuilt lazily from
  the vectors), and manifests that still carry the retired HNSW graph's
  knobs and sidecars open and answer as before;
* **honesty** — approximate answers carry ``exact=False`` unless the
  parameters made them provably exhaustive, and cost charging scales with
  the probed volume.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Index, Query
from repro.api.query import ApproxParams
from repro.approx import ApproxConfig, build_cluster_plan, effective_nprobe
from repro.datasets.clustered import (
    ClusteredConfig,
    make_clustered,
    make_clustered_collection,
)
from repro.errors import CorruptFragmentError, PlanError, QueryError
from repro.metrics.euclidean import SquaredEuclidean
from repro.serving import SearchService
from repro.storage.persistence import (
    MANIFEST_NAME,
    approx_sidecar_records,
    write_approx_sidecars,
)
from repro.workload.ground_truth import exact_top_k


def results_identical(a, b) -> bool:
    return np.array_equal(a.oids, b.oids) and np.array_equal(a.scores, b.scores)


@st.composite
def small_matrices(draw, max_rows: int = 120, max_dims: int = 12):
    """Small float64 matrices, sometimes with duplicated rows (forced ties)."""
    rows = draw(st.integers(min_value=4, max_value=max_rows))
    dims = draw(st.integers(min_value=2, max_value=max_dims))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    duplicates = draw(st.integers(min_value=0, max_value=min(6, rows - 1)))
    rng = np.random.default_rng(seed)
    matrix = rng.random((rows, dims))
    if duplicates:
        # Copy early rows over later ones: guaranteed exact score ties that
        # only the ascending-OID tie-break can order deterministically.
        victims = rng.choice(np.arange(1, rows), size=duplicates, replace=False)
        matrix[victims] = matrix[0]
    return matrix


# -- parameter validation ---------------------------------------------------------


class TestApproxParams:
    @pytest.mark.parametrize("params", [{"nprobe": 2, "beam_width": 7}, {"ef_search": 16}])
    def test_unknown_keys_rejected_at_the_boundary(self, params):
        with pytest.raises(
            QueryError, match=r"unknown approx_params key.*known: \['nprobe', 'target_recall'\]"
        ):
            ApproxParams.coerce(params)

    def test_params_require_approx_mode(self):
        vector = np.zeros(4)
        with pytest.raises(QueryError, match="approx_params"):
            Query(vector, k=1, metric="euclidean", approx_params={"nprobe": 2})
        with pytest.raises(QueryError, match="approx_params"):
            Query(vector, k=1, metric="euclidean", mode="compressed", approx_params={"nprobe": 2})

    @pytest.mark.parametrize(
        "params",
        [
            {"nprobe": 0},
            {"nprobe": -1},
            {"nprobe": True},
            {"target_recall": 0.0},
            {"target_recall": 1.5},
            {"target_recall": float("nan")},
        ],
    )
    def test_invalid_values_rejected(self, params):
        with pytest.raises(QueryError):
            ApproxParams.coerce(params)

    def test_dict_coerces_to_frozen_hashable_params(self):
        query = Query(
            np.zeros(4), k=1, metric="euclidean", mode="approx", approx_params={"nprobe": 3}
        )
        assert isinstance(query.approx_params, ApproxParams)
        assert query.approx_params.nprobe == 3
        hash(query.approx_params)  # must be usable inside a serving batch key
        assert "nprobe=3" in query.describe()

    def test_exact_backends_ignore_approx_params(self, uniform_vectors):
        index = Index.build(uniform_vectors)
        plain = index.answer(Query(uniform_vectors[5], k=5, metric="euclidean"))
        routed = index.answer(
            Query(
                uniform_vectors[5],
                k=5,
                metric="euclidean",
                mode="approx",
                backend="bond",
                approx_params={"nprobe": 1, "target_recall": 0.5},
            )
        )
        assert results_identical(plain, routed)


class TestApproxConfig:
    # The last three are the retired HNSW graph's knobs.
    @pytest.mark.parametrize(
        "record", [{"n_custers": 4}, {"m": 8}, {"ef_construction": 48}, {"default_ef_search": 32}]
    )
    def test_unknown_keys_rejected(self, record):
        with pytest.raises(QueryError, match="unknown approx"):
            ApproxConfig.coerce(record)
        with pytest.raises(TypeError):
            ApproxConfig(**record)

    def test_resolve_n_clusters_defaults_to_sqrt(self):
        config = ApproxConfig()
        assert config.resolve_n_clusters(10_000) == 100
        assert config.resolve_n_clusters(3) == 2  # round(sqrt(3)) == 2
        assert ApproxConfig(n_clusters=64).resolve_n_clusters(10_000) == 64
        assert ApproxConfig(n_clusters=64).resolve_n_clusters(10) == 10  # clamped

    def test_manifest_round_trip(self):
        config = ApproxConfig(n_clusters=32, kmeans_iterations=12, seed=99, default_nprobe=6)
        assert ApproxConfig.from_manifest(config.to_manifest()) == config
        # Older manifests also record the retired HNSW knobs: dropped on read.
        legacy = {**config.to_manifest(), "m": 8, "ef_construction": 48, "default_ef_search": 32}
        assert ApproxConfig.from_manifest(legacy) == config

    def test_knob_resolution_helpers(self):
        assert effective_nprobe(None, None, n_clusters=16, default=4) == 4
        assert effective_nprobe(100, None, n_clusters=16, default=4) == 16  # clamped
        assert effective_nprobe(None, 1.0, n_clusters=16, default=4) == 16


# -- build determinism ------------------------------------------------------------


class TestBuildDeterminism:
    @given(matrix=small_matrices(), seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=15, deadline=None)
    def test_cluster_plan_is_bitwise_deterministic(self, matrix, seed):
        k = min(5, matrix.shape[0])
        first = build_cluster_plan(matrix, n_clusters=k, iterations=4, seed=seed)
        second = build_cluster_plan(matrix, n_clusters=k, iterations=4, seed=seed)
        assert np.array_equal(first.centroids, second.centroids)
        assert np.array_equal(first.permutation, second.permutation)
        assert np.array_equal(first.offsets, second.offsets)
        # the permutation is a permutation, grouped ascending within clusters
        assert np.array_equal(np.sort(first.permutation), np.arange(matrix.shape[0]))
        for cluster in range(first.n_clusters):
            members = first.members(cluster)
            assert np.array_equal(members, np.sort(members))


# -- exhaustive-parameter equivalence to the exact tier ---------------------------


class TestExhaustiveEquivalence:
    @given(matrix=small_matrices())
    @settings(max_examples=15, deadline=None)
    def test_ivf_probing_everything_equals_exact(self, matrix):
        index = Index.build(matrix, approx={"n_clusters": min(6, matrix.shape[0])})
        metric = SquaredEuclidean()
        k = min(5, matrix.shape[0])
        query = matrix[0]  # duplicated-row queries force score ties
        reference = exact_top_k(matrix, query, k, metric)
        result = index.answer(
            Query(
                query,
                k=k,
                metric="euclidean",
                mode="approx",
                backend="ivf",
                approx_params={"nprobe": index.approx_config.resolve_n_clusters(matrix.shape[0])},
            )
        )
        assert result.exact
        assert np.array_equal(result.oids, reference.oids)
        np.testing.assert_allclose(result.scores, reference.scores, atol=1e-9, rtol=0.0)

    @given(matrix=small_matrices(), nprobe=st.integers(min_value=1, max_value=3))
    @settings(max_examples=15, deadline=None)
    def test_ivf_answers_exactly_over_the_probed_partitions(self, matrix, nprobe):
        index = Index.build(matrix, approx={"n_clusters": min(6, matrix.shape[0])})
        query = matrix[0]
        plan = index.cluster_plan
        rows = np.sort(
            np.concatenate([plan.members(int(c)) for c in plan.probe_order(query)[:nprobe]])
        )
        k = min(5, matrix.shape[0])
        reference = exact_top_k(matrix[rows], query, min(k, len(rows)), SquaredEuclidean())
        result = index.answer(
            Query(
                query,
                k=k,
                metric="euclidean",
                mode="approx",
                backend="ivf",
                approx_params={"nprobe": nprobe},
            )
        )
        assert np.array_equal(result.oids, rows[reference.oids])
        np.testing.assert_allclose(result.scores, reference.scores, atol=1e-9, rtol=0.0)

    @pytest.mark.parametrize("fragment_format", ["float64", "float32", "float16", "float32/mmap"])
    def test_exhaustive_ivf_equals_bond_on_every_fragment_format(
        self, uniform_vectors, fragment_format
    ):
        # The partitions are remapped from the quantised fragments, so the
        # narrow dtypes and memory-mapped residency survive into every probe.
        with Index.build(
            uniform_vectors, format=fragment_format, approx={"n_clusters": 5}
        ) as index:
            queries = uniform_vectors[:4]
            exact = index.answer(Query(queries, k=6, metric="euclidean", batch=True))
            ivf = index.answer(
                Query(
                    queries,
                    k=6,
                    metric="euclidean",
                    mode="approx",
                    backend="ivf",
                    batch=True,
                    approx_params={"target_recall": 1.0},
                )
            )
            for a, b in zip(ivf.results, exact.results):
                assert results_identical(a, b)

    @pytest.mark.parametrize("nprobe", [1, 3])
    def test_batch_matches_single_at_partial_probes(self, uniform_vectors, nprobe):
        # A batch groups its queries by probed partition; each query still
        # gets bitwise what it gets alone.
        index = Index.build(uniform_vectors, approx={"n_clusters": 8})
        queries = uniform_vectors[10:16]
        options = dict(
            k=5,
            metric="euclidean",
            mode="approx",
            backend="ivf",
            approx_params={"nprobe": nprobe},
        )
        batch = index.answer(Query(queries, batch=True, **options))
        for vector, result in zip(queries, batch.results):
            assert results_identical(result, index.answer(Query(vector, **options)))

    def test_batched_exhaustive_equals_exact_batch(self, uniform_vectors):
        index = Index.build(uniform_vectors, approx={"n_clusters": 10})
        queries = uniform_vectors[:8]
        exact = index.answer(Query(queries, k=6, metric="euclidean", batch=True))
        ivf = index.answer(
            Query(
                queries,
                k=6,
                metric="euclidean",
                mode="approx",
                backend="ivf",
                batch=True,
                approx_params={"nprobe": 10},
            )
        )
        for a, b in zip(ivf.results, exact.results):
            # IVF runs the same fused kernels per partition: bitwise identical
            assert results_identical(a, b)


# -- recall on clustered data -----------------------------------------------------


class TestRecall:
    @pytest.fixture(scope="class")
    def clustered_index(self, clustered_vectors):
        return Index.build(clustered_vectors, approx={"n_clusters": 40})

    def _recall(self, index, vectors, *, backend, params, k=10, num_queries=20):
        metric = SquaredEuclidean()
        hits = total = 0
        for oid in range(num_queries):
            reference = exact_top_k(vectors, vectors[oid], k, metric)
            result = index.answer(
                Query(
                    vectors[oid],
                    k=k,
                    metric="euclidean",
                    mode="approx",
                    backend=backend,
                    approx_params=params,
                )
            )
            hits += len(np.intersect1d(result.oids, reference.oids))
            total += k
        return hits / total

    def test_ivf_recall_floor_on_clustered_data(self, clustered_index, clustered_vectors):
        recall = self._recall(
            clustered_index, clustered_vectors, backend="ivf", params={"nprobe": 4}
        )
        assert recall >= 0.9

    def test_recall_is_monotone_in_nprobe_on_average(self, clustered_index, clustered_vectors):
        narrow = self._recall(
            clustered_index, clustered_vectors, backend="ivf", params={"nprobe": 1}
        )
        wide = self._recall(
            clustered_index, clustered_vectors, backend="ivf", params={"nprobe": 40}
        )
        assert wide == 1.0
        assert narrow <= wide

    def test_target_recall_steers_the_knobs(self, clustered_index, clustered_vectors):
        full = self._recall(
            clustered_index,
            clustered_vectors,
            backend="ivf",
            params={"target_recall": 1.0},
            num_queries=8,
        )
        assert full == 1.0


# -- planner eligibility and failover ---------------------------------------------


class TestPlannerIntegration:
    @pytest.fixture(scope="class")
    def index(self, uniform_vectors):
        return Index.build(uniform_vectors, approx={"n_clusters": 8})

    def test_approx_backends_never_serve_exact_mode(self, index, uniform_vectors):
        plan = index.plan(Query(uniform_vectors[0], k=3, metric="euclidean"))
        for candidate in plan.candidates:
            if candidate.backend == "ivf":
                assert not candidate.eligible
                assert "approx" in candidate.rejection
        with pytest.raises(PlanError):
            index.answer(Query(uniform_vectors[0], k=3, metric="euclidean", backend="ivf"))
        with pytest.raises(PlanError):
            index.answer(
                Query(uniform_vectors[0], k=3, metric="euclidean", mode="compressed", backend="ivf")
            )

    def test_approx_mode_considers_approx_backends(self, index, uniform_vectors):
        plan = index.plan(Query(uniform_vectors[0], k=3, metric="euclidean", mode="approx"))
        eligible = {c.backend for c in plan.candidates if c.eligible}
        assert "ivf" in eligible

    def test_failover_chain_substitutes_exact_backends_only(self, index, uniform_vectors):
        plan = index.plan(Query(uniform_vectors[0], k=3, metric="euclidean", mode="approx"))
        chain = plan.failover_chain()
        # whatever was chosen, every *substitute* must be exact
        for name in chain[1:]:
            assert name != "ivf"

    def test_approx_backends_reject_foreign_metrics(self, index, corel_histograms):
        plan = index.plan(Query(np.zeros(index.dimensionality), k=3, metric="histogram", mode="approx"))
        for candidate in plan.candidates:
            if candidate.backend == "ivf":
                assert not candidate.eligible

    def test_estimates_scale_with_nprobe(self, index, uniform_vectors):
        def estimate(nprobe):
            plan = index.plan(
                Query(
                    uniform_vectors[0],
                    k=3,
                    metric="euclidean",
                    mode="approx",
                    backend="ivf",
                    approx_params={"nprobe": nprobe},
                )
            )
            return plan.estimate.bytes_read

        assert estimate(1) < estimate(8)


# -- persistence ------------------------------------------------------------------


class TestPersistence:
    def _build(self, vectors):
        index = Index.build(vectors, approx={"n_clusters": 6}, name="approx-persist")
        index.cluster_plan  # force the plan so save persists it
        return index

    def test_manifest_v4_build_is_byte_deterministic(self, uniform_vectors, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        self._build(uniform_vectors).save(first)
        self._build(uniform_vectors).save(second)
        assert (first / MANIFEST_NAME).read_bytes() == (second / MANIFEST_NAME).read_bytes()
        sidecars = sorted(path.name for path in first.glob("*.apx"))
        assert sidecars  # the cluster plan persisted
        for name in sidecars:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_round_trip_preserves_answers_and_resaves_identically(
        self, uniform_vectors, tmp_path
    ):
        built = self._build(uniform_vectors)
        built.save(tmp_path / "a")
        reopened = Index.open(tmp_path / "a")
        query = Query(
            uniform_vectors[3],
            k=5,
            metric="euclidean",
            mode="approx",
            backend="ivf",
            approx_params={"nprobe": 2},
        )
        assert results_identical(built.answer(query), reopened.answer(query))
        reopened.save(tmp_path / "b")
        assert (tmp_path / "a" / MANIFEST_NAME).read_bytes() == (
            tmp_path / "b" / MANIFEST_NAME
        ).read_bytes()

    def test_v3_manifests_still_open_and_rebuild_lazily(self, uniform_vectors, tmp_path):
        self._build(uniform_vectors).save(tmp_path)
        manifest_path = tmp_path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["layout_version"] = 3
        manifest.pop("approx", None)
        manifest["index"].pop("approx", None)
        manifest_path.write_text(json.dumps(manifest))
        for sidecar in tmp_path.glob("*.apx"):
            sidecar.unlink()
        reopened = Index.open(tmp_path)
        result = reopened.answer(
            Query(
                uniform_vectors[3],
                k=5,
                metric="euclidean",
                mode="approx",
                backend="ivf",
                approx_params={"nprobe": 6},
            )
        )
        reference = exact_top_k(uniform_vectors, uniform_vectors[3], 5, SquaredEuclidean())
        assert np.array_equal(result.oids, reference.oids)

    def test_manifests_with_the_retired_hnsw_graph_still_open(self, uniform_vectors, tmp_path):
        built = self._build(uniform_vectors)
        legacy = tmp_path / "legacy"
        built.save(legacy)
        # Edit the manifest to the shape older builds wrote: HNSW knobs in
        # the approx config and an "hnsw" section with its own sidecars.
        manifest_path = legacy / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["index"]["approx"].update(m=8, ef_construction=48, default_ef_search=32)
        arrays, files = approx_sidecar_records(
            {
                "levels": np.zeros(uniform_vectors.shape[0], dtype=np.int8),
                "neighbors": np.arange(16, dtype=np.int32),
            },
            structure="hnsw",
        )
        write_approx_sidecars(legacy, files)
        manifest["approx"]["hnsw"] = {
            "m": 8,
            "ef_construction": 48,
            "seed": 7,
            "entry_point": 0,
            "arrays": arrays,
        }
        manifest_path.write_text(json.dumps(manifest))

        with pytest.raises(QueryError, match="unknown approx"):
            Index.open(legacy, approx={"m": 8})  # only the manifest's copy is forgiven
        reopened = Index.open(legacy)
        for query in (
            Query(uniform_vectors[3], k=5, metric="euclidean"),
            Query(
                uniform_vectors[3],
                k=5,
                metric="euclidean",
                mode="approx",
                backend="ivf",
                approx_params={"nprobe": 2},
            ),
        ):
            assert results_identical(built.answer(query), reopened.answer(query))
        # A save drops the section and its knobs ...
        reopened.save(tmp_path / "resaved")
        resaved = json.loads((tmp_path / "resaved" / MANIFEST_NAME).read_text())
        assert set(resaved["approx"]) == {"ivf"}
        assert resaved["index"]["approx"] == ApproxConfig(n_clusters=6).to_manifest()
        assert not list((tmp_path / "resaved").glob("approx_hnsw_*"))
        reopened.close()
        # ... and a reorganisation in place sweeps its sidecar files.
        reopened = Index.open(legacy)
        reopened.insert(uniform_vectors[:1])
        reopened.reorganize()
        assert not list(legacy.glob("approx_hnsw_*"))
        reopened.close()
        built.close()

    def test_corrupt_sidecar_is_detected(self, uniform_vectors, tmp_path):
        self._build(uniform_vectors).save(tmp_path)
        victim = tmp_path / "approx_ivf_centroids.apx"
        blob = bytearray(victim.read_bytes())
        blob[13] ^= 0xFF
        victim.write_bytes(bytes(blob))
        reopened = Index.open(tmp_path)
        with pytest.raises(CorruptFragmentError):
            reopened.cluster_plan


# -- the clustered-collection satellite -------------------------------------------


class TestClusteredCollection:
    def test_vectors_match_make_clustered_bitwise(self):
        config = ClusteredConfig(cardinality=400, dimensionality=16, num_clusters=20, seed=5)
        collection = make_clustered_collection(config)
        assert np.array_equal(collection.vectors, make_clustered(config))

    def test_labels_align_with_the_shuffle(self):
        config = ClusteredConfig(
            cardinality=500, dimensionality=8, num_clusters=12, seed=9, cluster_fraction=0.9
        )
        collection = make_clustered_collection(config)
        assert collection.labels.shape == (500,)
        noise = int((collection.labels == -1).sum())
        assert noise == 500 - int(round(500 * 0.9))
        # every labelled row sits near its generating centre, noise does not
        labelled = collection.labels >= 0
        deltas = collection.vectors[labelled] - collection.centres[collection.labels[labelled]]
        distances = np.sqrt((deltas**2).sum(axis=1))
        # clipping at the hypercube boundary can stretch a few, hence median
        assert np.median(distances) < 4 * 0.025 * np.sqrt(8)

    def test_exact_topk_matches_ground_truth_helper(self):
        collection = make_clustered_collection(
            cardinality=300, dimensionality=8, num_clusters=10, seed=3
        )
        metric = SquaredEuclidean()
        results = collection.exact_topk(collection.vectors[:4], 5)
        assert len(results) == 4
        for oid, result in enumerate(results):
            reference = exact_top_k(collection.vectors, collection.vectors[oid], 5, metric)
            assert results_identical(result, reference)


# -- serving integration ----------------------------------------------------------


class TestServing:
    def test_served_approx_answers_match_direct_calls(self, uniform_vectors):
        index = Index.build(uniform_vectors, approx={"n_clusters": 8})
        submissions = [
            (uniform_vectors[oid], {"nprobe": 2}) for oid in range(4)
        ] + [(uniform_vectors[oid], {"nprobe": 8}) for oid in range(4, 8)]

        async def main():
            async with SearchService(index) as service:
                return await asyncio.gather(
                    *(
                        service.submit(
                            vector,
                            k=5,
                            metric="euclidean",
                            mode="approx",
                            backend="ivf",
                            approx_params=params,
                        )
                        for vector, params in submissions
                    )
                )

        served = asyncio.run(main())
        for (vector, params), result in zip(submissions, served):
            direct = index.answer(
                Query(
                    vector,
                    k=5,
                    metric="euclidean",
                    mode="approx",
                    backend="ivf",
                    approx_params=params,
                )
            )
            assert results_identical(result, direct)


# -- cost honesty -----------------------------------------------------------------


class TestCostHonesty:
    def test_probing_fewer_partitions_charges_fewer_bytes(self, clustered_vectors):
        index = Index.build(clustered_vectors, approx={"n_clusters": 40})

        def charged_bytes(nprobe):
            result = index.answer(
                Query(
                    clustered_vectors[0],
                    k=5,
                    metric="euclidean",
                    mode="approx",
                    backend="ivf",
                    approx_params={"nprobe": nprobe},
                )
            )
            assert result.cost is not None
            return result.cost.bytes_read

        assert 0 < charged_bytes(1) < charged_bytes(40)

    def test_only_probing_every_partition_is_flagged_exact(self, uniform_vectors):
        index = Index.build(uniform_vectors, approx={"n_clusters": 8})

        def flags(vectors, params):
            answer = index.answer(
                Query(
                    vectors,
                    k=5,
                    metric="euclidean",
                    mode="approx",
                    backend="ivf",
                    batch=vectors.ndim == 2,
                    approx_params=params,
                )
            )
            results = answer.results if vectors.ndim == 2 else [answer]
            return {result.exact for result in results}

        for vectors in (uniform_vectors[0], uniform_vectors[:4]):
            assert flags(vectors, {"nprobe": 1}) == {False}
            assert flags(vectors, {"nprobe": 7}) == {False}
            assert flags(vectors, {"nprobe": 8}) == {True}
            assert flags(vectors, {"target_recall": 1.0}) == {True}
