"""The store-format abstraction: dtype-narrow + memory-mapped fragments.

Pins the identity-vs-tolerance contract of :mod:`repro.storage.formats`:

* float64 formats (ram and mmap) are **bitwise identical** to the seed
  semantics on every backend — exact, compressed, sharded, batched;
* mmap residency equals ram residency bitwise for *every* dtype (a mapping
  changes where bytes live, never what they are);
* narrow dtypes are internally exact — branch-and-bound over a narrow store
  returns bitwise the brute-force answer over the float64-widened quantised
  collection, so a true neighbour of the quantised collection is never
  falsely dismissed — and drift against the unquantised float64 answer stays
  inside the documented per-dtype score tolerance, with top-k membership
  differing only at genuine near-ties;
* the cost model charges narrow fragments at their actual coefficient width
  (a float32 scan reads half the bytes of a float64 one);
* manifest v3 round-trips formats, v1/v2 manifests still load, and checksum
  verification of a mapped store streams without faulting the mapping in.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Index, Query
from repro.core.bond import BondSearcher
from repro.engine.cost import COEFFICIENT_BYTES, CostModel, coefficient_bytes_for
from repro.errors import CorruptFragmentError, ReproError, StorageError
from repro.metrics.euclidean import SquaredEuclidean
from repro.metrics.histogram import HistogramIntersection
from repro.reliability import FaultPlan
from repro.storage import (
    DecomposedStore,
    FragmentFormat,
    RowStore,
    ShardPlan,
    load_decomposed,
    load_manifest,
    manifest_format,
    save_decomposed,
    shard_view,
)
from repro.storage.persistence import (
    LAYOUT_VERSION,
    MANIFEST_NAME,
    fragment_file_name,
)
from repro.workload.ground_truth import exact_top_k, result_scores_match


def is_mapped(array: np.ndarray) -> bool:
    """Whether the array's storage is a ``numpy.memmap`` (walks view bases,
    since BAT construction strips the subclass but keeps the mapping)."""
    while array is not None:
        if isinstance(array, np.memmap):
            return True
        array = array.base
    return False

DTYPES = ("float64", "float32", "float16")
RESIDENCIES = ("ram", "mmap")
ALL_SPECS = [f"{d}/{r}" for d in DTYPES for r in RESIDENCIES]


def histograms(rows: int, columns: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    data = rng.random((rows, columns)) ** 2 + 1e-9
    return data / data.sum(axis=1, keepdims=True)


@pytest.fixture(scope="module")
def collection() -> np.ndarray:
    return histograms(400, 24, seed=11)


# -- the FragmentFormat value object ------------------------------------------


class TestFragmentFormat:
    def test_parse_and_spec_round_trip(self):
        for spec in ALL_SPECS:
            assert FragmentFormat.parse(spec).spec == spec
        assert FragmentFormat.parse("float32").residency == "ram"
        assert FragmentFormat.coerce(None) == FragmentFormat()
        fmt = FragmentFormat("float16", "mmap")
        assert FragmentFormat.coerce(fmt) is fmt

    def test_rejects_unknown_designations(self):
        with pytest.raises(StorageError):
            FragmentFormat(dtype="float8")
        with pytest.raises(StorageError):
            FragmentFormat(residency="disk")
        with pytest.raises(StorageError):
            FragmentFormat.parse("float32/ram/extra")
        with pytest.raises(StorageError):
            FragmentFormat.coerce(42)

    def test_coefficient_bytes_match_cost_table(self):
        for dtype in DTYPES:
            fmt = FragmentFormat(dtype)
            assert fmt.coefficient_bytes == COEFFICIENT_BYTES[dtype]
            assert fmt.coefficient_bytes == fmt.np_dtype.itemsize
            assert coefficient_bytes_for(dtype) == fmt.coefficient_bytes
            assert coefficient_bytes_for(fmt.np_dtype) == fmt.coefficient_bytes

    def test_score_tolerance_zero_only_for_float64(self):
        assert FragmentFormat("float64").score_tolerance(166) == 0.0
        f32 = FragmentFormat("float32").score_tolerance(166)
        f16 = FragmentFormat("float16").score_tolerance(166)
        assert 0.0 < f32 < f16

    def test_quantise_widen_identity_for_float64(self):
        values = np.random.default_rng(0).random(64)
        fmt = FragmentFormat()
        assert fmt.quantise(values) is not None
        assert np.shares_memory(fmt.quantise(values), values)
        assert np.shares_memory(fmt.widen(values), values)

    def test_manifest_round_trip(self):
        for spec in ALL_SPECS:
            fmt = FragmentFormat.parse(spec)
            assert FragmentFormat.from_manifest(fmt.to_manifest()) == fmt
        with pytest.raises(StorageError):
            FragmentFormat.from_manifest({"dtype": "float32"})


# -- satellite: dtype-parameterised byte accounting ---------------------------


class TestCostAccounting:
    def test_float32_fragment_scan_charges_half_of_float64(self, collection):
        """The regression the issue asks for: bytes_read must track dtype."""
        by_dtype = {}
        for dtype in ("float64", "float32", "float16"):
            cost = CostModel()
            store = DecomposedStore(collection, cost=cost, format=dtype)
            store.fragment(0)
            store.fragment_columns(np.arange(4))
            by_dtype[dtype] = cost.account.bytes_read
        assert by_dtype["float32"] * 2 == by_dtype["float64"]
        assert by_dtype["float16"] * 4 == by_dtype["float64"]

    def test_full_search_streams_fewer_bytes_on_narrow_stores(self, collection):
        query = collection[17]
        reads = {}
        for dtype in ("float64", "float32"):
            cost = CostModel()
            store = DecomposedStore(collection, cost=cost, format=dtype)
            BondSearcher(store, metric=HistogramIntersection()).search(query, 10)
            reads[dtype] = cost.account.bytes_read
        # Not exactly half: OID materialisation and row-sum reads stay
        # 8-byte, but the fragment traffic dominating the total halves.
        assert reads["float32"] < 0.62 * reads["float64"]

    def test_row_store_charges_narrow_widths(self, collection):
        cost64, cost32 = CostModel(), CostModel()
        RowStore(collection, cost=cost64).scan()
        RowStore(collection, cost=cost32, format="float32").scan()
        assert cost32.account.bytes_read * 2 == cost64.account.bytes_read


# -- bitwise identity of float64 formats --------------------------------------


class TestFloat64Identity:
    def test_mmap_store_bitwise_equal_to_ram(self, collection):
        ram = DecomposedStore(collection)
        mapped = DecomposedStore(collection, format="float64/mmap")
        for dim in (0, 5, 23):
            assert np.array_equal(ram.fragment_tail(dim), mapped.fragment_tail(dim))
        assert np.array_equal(ram.row_sums().tail, mapped.row_sums().tail)
        assert np.array_equal(ram.matrix, mapped.matrix)

    @pytest.mark.parametrize("residency", RESIDENCIES)
    def test_search_identical_to_seed_store(self, collection, residency):
        query = collection[3]
        seed_result = BondSearcher(
            DecomposedStore(collection), metric=HistogramIntersection()
        ).search(query, 15)
        result = BondSearcher(
            DecomposedStore(collection, format=f"float64/{residency}"),
            metric=HistogramIntersection(),
        ).search(query, 15)
        assert np.array_equal(result.oids, seed_result.oids)
        assert np.array_equal(result.scores, seed_result.scores)

    @pytest.mark.parametrize("mode", ["exact", "compressed"])
    @pytest.mark.parametrize("residency", RESIDENCIES)
    def test_facade_identical_across_backends(self, collection, mode, residency):
        query = Query(collection[9], k=12, metric="histogram", mode=mode)
        reference = Index.build(collection, name="ref").answer(query)
        answered = Index.build(
            collection, name="fmt", format=f"float64/{residency}"
        ).answer(query)
        assert np.array_equal(answered.oids, reference.oids)
        assert np.array_equal(answered.scores, reference.scores)

    def test_sharded_and_batched_identical(self, collection):
        batch = Query(collection[:6], k=8, metric="histogram")
        reference = Index.build(collection, name="ref", shards=3).answer(batch)
        mapped = Index.build(
            collection, name="fmt", shards=3, format="float64/mmap"
        ).answer(batch)
        for ref, got in zip(reference.results, mapped.results):
            assert np.array_equal(ref.oids, got.oids)
            assert np.array_equal(ref.scores, got.scores)


# -- the narrow-dtype contract -------------------------------------------------


def quantised_collection(data: np.ndarray, fmt: FragmentFormat) -> np.ndarray:
    return fmt.widen(fmt.quantise(data))


class TestNarrowDtypes:
    @pytest.mark.parametrize("spec", ["float32/ram", "float16/ram"])
    def test_internally_exact_no_false_dismissals(self, collection, spec):
        """BOND over a narrow store == brute force over the widened store.

        This is the no-false-dismissal guarantee: every true top-k neighbour
        *of the collection the store actually holds* survives pruning, bit
        for bit, because bounds are computed in float64 over the widened
        coefficients.
        """
        fmt = FragmentFormat.parse(spec)
        store = DecomposedStore(collection, format=fmt)
        widened = quantised_collection(collection, fmt)
        query = collection[7]
        for metric in (HistogramIntersection(), SquaredEuclidean()):
            result = BondSearcher(store, metric=metric).search(query, 12)
            reference = exact_top_k(widened, query, 12, metric)
            assert result_scores_match(result, reference)

    @pytest.mark.parametrize("spec", ["float32/ram", "float16/mmap"])
    def test_scores_within_documented_tolerance(self, collection, spec):
        fmt = FragmentFormat.parse(spec)
        query = Query(collection[21], k=10, metric="histogram")
        exact = Index.build(collection, name="ref").answer(query)
        narrow = Index.build(collection, name="narrow", format=fmt).answer(query)
        tolerance = fmt.score_tolerance(collection.shape[1])
        assert np.all(np.abs(narrow.scores - exact.scores) <= tolerance)

    @pytest.mark.parametrize("dtype", ["float32", "float16"])
    def test_topk_oid_set_differs_only_at_near_ties(self, collection, dtype):
        """OIDs may swap across the k-boundary only when the float64 scores
        there are within the quantisation tolerance of the boundary score."""
        fmt = FragmentFormat(dtype)
        k = 10
        metric = HistogramIntersection()
        query = collection[2]
        exact = exact_top_k(collection, query, k, metric)
        narrow = BondSearcher(
            DecomposedStore(collection, format=fmt), metric=metric
        ).search(query, k)
        tolerance = fmt.score_tolerance(collection.shape[1])
        exact_set = set(int(o) for o in exact.oids)
        scored = metric.score(collection[narrow.oids], query)
        true_scores = {int(oid): float(s) for oid, s in zip(narrow.oids, scored)}
        boundary = float(exact.scores[-1])
        for oid in narrow.oids:
            if int(oid) not in exact_set:
                # An interloper must be a genuine near-tie at the boundary.
                assert abs(true_scores[int(oid)] - boundary) <= 2 * tolerance

    def test_forced_near_tie_stays_within_tolerance(self):
        """A collection built so scores tie at the k-boundary: the narrow
        top-k must still consist of boundary-tied vectors only."""
        base = histograms(64, 16, seed=3)
        # Duplicate one row many times: its copies all score identically, so
        # the k-boundary is one big tie and quantisation may order the copies
        # arbitrarily — but may not pull in anything *outside* the tie.
        tied = np.vstack([base, np.repeat(base[5][None, :], 12, axis=0)])
        query = base[5]
        metric = HistogramIntersection()
        k = 8
        exact = exact_top_k(tied, query, k, metric)
        for dtype in ("float32", "float16"):
            fmt = FragmentFormat(dtype)
            narrow = BondSearcher(
                DecomposedStore(tied, format=fmt), metric=metric
            ).search(query, k)
            tolerance = fmt.score_tolerance(tied.shape[1])
            boundary = float(exact.scores[-1])
            true_scores = metric.score(tied[narrow.oids], query)
            assert np.all(true_scores >= boundary - 2 * tolerance)

    def test_index_vectors_show_the_quantised_collection(self, collection):
        index = Index.build(collection, name="narrow", format="float16")
        expected = quantised_collection(collection, FragmentFormat("float16"))
        assert np.array_equal(index.vectors, expected)


# -- hypothesis: the whole grid, any data --------------------------------------


@settings(max_examples=12, deadline=None)
@given(
    rows=st.integers(24, 80),
    columns=st.integers(4, 16),
    seed=st.integers(0, 10_000),
    k=st.integers(1, 12),
    dtype=st.sampled_from(DTYPES),
)
def test_property_mmap_equals_ram_bitwise(rows, columns, seed, k, dtype):
    data = histograms(rows, columns, seed)
    query = data[seed % rows]
    metric = HistogramIntersection()
    ram = BondSearcher(
        DecomposedStore(data, format=f"{dtype}/ram"), metric=metric
    ).search(query, k)
    mapped = BondSearcher(
        DecomposedStore(data, format=f"{dtype}/mmap"), metric=metric
    ).search(query, k)
    assert np.array_equal(ram.oids, mapped.oids)
    assert np.array_equal(ram.scores, mapped.scores)


@settings(max_examples=12, deadline=None)
@given(
    rows=st.integers(24, 80),
    columns=st.integers(4, 16),
    seed=st.integers(0, 10_000),
    k=st.integers(1, 12),
)
def test_property_float64_equals_seed_bitwise(rows, columns, seed, k):
    data = histograms(rows, columns, seed)
    query = data[seed % rows]
    metric = HistogramIntersection()
    seed_result = BondSearcher(DecomposedStore(data), metric=metric).search(query, k)
    for residency in RESIDENCIES:
        result = BondSearcher(
            DecomposedStore(data, format=f"float64/{residency}"), metric=metric
        ).search(query, k)
        assert np.array_equal(result.oids, seed_result.oids)
        assert np.array_equal(result.scores, seed_result.scores)


@settings(max_examples=12, deadline=None)
@given(
    rows=st.integers(24, 80),
    columns=st.integers(4, 16),
    seed=st.integers(0, 10_000),
    k=st.integers(1, 12),
    dtype=st.sampled_from(["float32", "float16"]),
    residency=st.sampled_from(RESIDENCIES),
)
def test_property_narrow_is_internally_exact(rows, columns, seed, k, dtype, residency):
    """Any dtype/residency: BOND == widened brute force, and the drift from
    the unquantised answer respects the documented tolerance."""
    data = histograms(rows, columns, seed)
    query = data[seed % rows]
    metric = HistogramIntersection()
    fmt = FragmentFormat.parse(f"{dtype}/{residency}")
    store = DecomposedStore(data, format=fmt)
    result = BondSearcher(store, metric=metric).search(query, k)
    widened = quantised_collection(data, fmt)
    reference = exact_top_k(widened, query, k, metric)
    assert result_scores_match(result, reference)
    unquantised = exact_top_k(data, query, k, metric)
    tolerance = fmt.score_tolerance(columns)
    assert np.all(np.abs(result.scores - unquantised.scores) <= tolerance)


# -- persistence: manifest v3, back compat, streamed verification --------------


class TestPersistence:
    @pytest.mark.parametrize("spec", ["float64/ram", "float32/ram", "float16/mmap"])
    def test_manifest_v3_records_format(self, collection, tmp_path, spec):
        store = DecomposedStore(collection, format=spec)
        save_decomposed(store, tmp_path)
        manifest = load_manifest(tmp_path)
        assert manifest["layout_version"] == LAYOUT_VERSION
        assert manifest_format(manifest) == FragmentFormat.parse(spec)
        fmt = FragmentFormat.parse(spec)
        assert manifest["dtype"] == fmt.struct_string
        record = manifest["fragments"][fragment_file_name(0)]
        assert record == {"dtype": fmt.dtype, "residency": fmt.residency}

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_round_trip_bitwise(self, collection, tmp_path, spec):
        store = DecomposedStore(collection, format=spec)
        directory = tmp_path / spec.replace("/", "-")
        save_decomposed(store, directory)
        loaded = load_decomposed(directory, verify="checksum")
        assert loaded.format == FragmentFormat.parse(spec)
        for dim in (0, collection.shape[1] - 1):
            assert np.array_equal(
                store.fragment_tail(dim), loaded.fragment_tail(dim)
            )
        assert np.array_equal(store.row_sums().tail, loaded.row_sums().tail)

    def test_narrow_files_are_smaller(self, collection, tmp_path):
        wide = tmp_path / "wide"
        narrow = tmp_path / "narrow"
        save_decomposed(DecomposedStore(collection), wide)
        save_decomposed(DecomposedStore(collection, format="float32"), narrow)
        wide_bytes = (wide / fragment_file_name(0)).stat().st_size
        narrow_bytes = (narrow / fragment_file_name(0)).stat().st_size
        assert narrow_bytes * 2 == wide_bytes

    def test_v2_manifest_still_loads_as_float64(self, collection, tmp_path):
        save_decomposed(DecomposedStore(collection), tmp_path)
        manifest_path = tmp_path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["layout_version"] = 2
        del manifest["format"]
        del manifest["fragments"]
        manifest_path.write_text(json.dumps(manifest))
        loaded = load_decomposed(tmp_path, verify="checksum")
        assert loaded.format == FragmentFormat()
        assert np.array_equal(loaded.matrix, collection)

    def test_mmap_load_maps_the_persisted_files(self, collection, tmp_path):
        save_decomposed(DecomposedStore(collection), tmp_path)
        loaded = load_decomposed(tmp_path, format="float64/mmap", verify="checksum")
        tail = loaded.fragment_tail(0)
        assert is_mapped(tail)
        assert np.array_equal(np.asarray(tail), np.ascontiguousarray(collection[:, 0]))

    def test_streamed_verification_detects_corruption(self, collection, tmp_path):
        save_decomposed(DecomposedStore(collection, format="float32"), tmp_path)
        victim = tmp_path / fragment_file_name(2)
        blob = bytearray(victim.read_bytes())
        blob[100] ^= 0xFF
        victim.write_bytes(bytes(blob))
        with pytest.raises(CorruptFragmentError, match=fragment_file_name(2)):
            load_decomposed(tmp_path, format="float32/mmap", verify="checksum")
        # The unverified load maps fine — it is the verification that gates.
        load_decomposed(tmp_path, format="float32/mmap", verify="none")

    def test_requantise_at_load(self, collection, tmp_path):
        save_decomposed(DecomposedStore(collection), tmp_path)
        loaded = load_decomposed(tmp_path, format="float32")
        built = DecomposedStore(collection, format="float32")
        for dim in (0, 3):
            assert np.array_equal(loaded.fragment_tail(dim), built.fragment_tail(dim))
        assert np.array_equal(loaded.row_sums().tail, built.row_sums().tail)


# -- sharding over formats -----------------------------------------------------


class TestShardingFormats:
    def test_shards_are_zero_copy_views(self, collection):
        for spec in ("float64/ram", "float32/mmap"):
            store = DecomposedStore(collection, format=spec)
            plan = ShardPlan.balanced(store.cardinality, 4)
            shards = [shard_view(store, plan, shard) for shard in range(plan.num_shards)]
            offset = 0
            for shard in shards:
                assert shard.format == store.format
                assert np.shares_memory(
                    shard.fragment_tail(0), store.fragment_tail(0)
                )
                assert np.array_equal(
                    np.asarray(shard.fragment_tail(0)),
                    np.asarray(store.fragment_tail(0))[offset : offset + len(shard)],
                )
                offset += len(shard)

    def test_sharded_search_matches_unsharded_on_narrow_mmap(self, collection):
        query = Query(collection[30], k=9, metric="histogram")
        unsharded = Index.build(collection, name="one", format="float32/mmap").answer(query)
        sharded = Index.build(
            collection, name="many", shards=4, format="float32/mmap"
        ).answer(query)
        assert np.array_equal(unsharded.oids, sharded.oids)
        assert np.array_equal(unsharded.scores, sharded.scores)

    def test_row_slice_rejects_bad_ranges(self, collection):
        store = DecomposedStore(collection)
        with pytest.raises(StorageError):
            DecomposedStore.row_slice(store, 10, 10)
        with pytest.raises(StorageError):
            DecomposedStore.row_slice(store, 0, store.cardinality + 1)


# -- the Index facade ----------------------------------------------------------


class TestIndexFormats:
    def test_build_and_open_honour_formats(self, collection, tmp_path):
        index = Index.build(collection, name="fmt", format="float32")
        assert index.format.spec == "float32/ram"
        index.save(tmp_path / "idx")
        reopened = Index.open(tmp_path / "idx", verify="checksum")
        assert reopened.format.spec == "float32/ram"
        query = Query(collection[0], k=7, metric="histogram")
        a, b = index.answer(query), reopened.answer(query)
        assert np.array_equal(a.oids, b.oids)
        assert np.array_equal(a.scores, b.scores)

    def test_mmap_round_trip_survives_an_armed_read(self, collection, tmp_path):
        """The out-of-core path end to end: a ``float64/mmap`` build answers
        like the ram store; with ``store.read_fragment`` armed its saved copy
        fails to open with a typed error, never wrong data; the fault-free
        verified reopen is mapped again and answers bitwise the same."""
        query = Query(collection[42], k=10, metric="histogram")
        reference = Index.build(collection, name="ram").answer(query)
        mapped = Index.build(collection, name="mapped", format="float64/mmap")
        assert mapped.format.spec == "float64/mmap"
        answers = [mapped.answer(query)]
        mapped.save(tmp_path / "idx")
        with FaultPlan(seed=7).arm("store.read_fragment", rate=1.0) as plan:
            with pytest.raises(ReproError):
                Index.open(tmp_path / "idx", verify="checksum")
        assert plan.fired() > 0
        reopened = Index.open(tmp_path / "idx", verify="checksum")
        assert reopened.format.spec == "float64/mmap"
        assert is_mapped(reopened.decomposed.fragment_tail(0))
        answers.append(reopened.answer(query))
        for result in answers:
            assert np.array_equal(result.oids, reference.oids)
            assert np.array_equal(result.scores, reference.scores)

    def test_open_format_override_to_mmap(self, collection, tmp_path):
        Index.build(collection, name="fmt", format="float32").save(tmp_path / "idx")
        mapped = Index.open(tmp_path / "idx", format="float32/mmap", verify="checksum")
        assert mapped.format.spec == "float32/mmap"
        assert is_mapped(mapped.decomposed.fragment_tail(0))

    def test_opened_index_answers_without_materialising_the_matrix(
        self, collection, tmp_path, monkeypatch
    ):
        """The larger-than-RAM guarantee: answering from a mapped index never
        builds the row-major float64 matrix.  A collection bigger than RAM
        would die on that allocation — so we make it die deliberately."""
        Index.build(collection, name="big").save(tmp_path / "idx")
        index = Index.open(tmp_path / "idx", format="float64/mmap", verify="checksum")

        def forbidden(self):  # pragma: no cover - the point is it never runs
            raise AssertionError("query path materialised the full matrix")

        monkeypatch.setattr(DecomposedStore, "matrix", property(forbidden))
        monkeypatch.setattr(Index, "vectors", property(forbidden))
        query = Query(collection[13], k=10, metric="histogram")
        reference = exact_top_k(collection, query.single_vector, 10, HistogramIntersection())
        result = index.answer(query)
        assert result_scores_match(result, reference)

    def test_explain_shows_the_bandwidth_win(self, collection):
        query = Query(collection[0], k=5, metric="histogram")
        wide = Index.build(collection, name="wide")
        narrow = Index.build(collection, name="narrow", format="float32")
        assert "float32/ram fragments at 4 B/coefficient" in narrow.explain(query)
        assert "B/coefficient" not in wide.explain(query)
        wide_est = wide.plan(query).estimate.bytes_read
        narrow_est = narrow.plan(query).estimate.bytes_read
        assert narrow_est * 2 == wide_est

    def test_compressed_backend_over_narrow_store(self, collection):
        query = Query(collection[4], k=10, metric="histogram", mode="compressed")
        fmt = FragmentFormat("float32")
        narrow = Index.build(collection, name="n", format=fmt).answer(query)
        # The compressed filter quantises the widened narrow collection, so
        # the reference is the compressed answer over that same collection.
        reference = Index.build(
            quantised_collection(collection, fmt), name="r"
        ).answer(query)
        assert np.array_equal(narrow.oids, reference.oids)
        assert np.array_equal(narrow.scores, reference.scores)
