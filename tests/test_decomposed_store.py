"""Unit tests for the vertically decomposed store."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.cost import CostModel
from repro.errors import StorageError
from repro.storage.decomposed import DecomposedStore


class TestConstruction:
    def test_shape_accessors(self, corel_histograms):
        store = DecomposedStore(corel_histograms)
        assert store.cardinality == corel_histograms.shape[0]
        assert store.dimensionality == corel_histograms.shape[1]
        assert len(store) == store.cardinality

    def test_rejects_non_matrix(self):
        with pytest.raises(StorageError):
            DecomposedStore(np.zeros(5))

    def test_rejects_empty(self):
        with pytest.raises(StorageError):
            DecomposedStore(np.zeros((0, 3)))


class TestFragments:
    def test_fragment_holds_one_dimension(self, corel_histograms):
        store = DecomposedStore(corel_histograms)
        fragment = store.fragment(3)
        assert np.allclose(fragment.tail, corel_histograms[:, 3])

    def test_fragment_out_of_range(self, corel_store):
        with pytest.raises(StorageError):
            corel_store.fragment(corel_store.dimensionality)

    def test_fragments_are_mutually_aligned(self, corel_store):
        first = corel_store.fragment(0, charge=False)
        second = corel_store.fragment(1, charge=False)
        assert first.is_aligned_with(second)

    def test_fragment_read_charges_cost(self, corel_histograms):
        cost = CostModel()
        store = DecomposedStore(corel_histograms, cost=cost)
        store.fragment(0)
        assert cost.account.bytes_read == corel_histograms.shape[0] * 8

    def test_fragment_uncharged_read(self, corel_histograms):
        cost = CostModel()
        store = DecomposedStore(corel_histograms, cost=cost)
        store.fragment(0, charge=False)
        assert cost.account.bytes_read == 0

    def test_iter_fragments_respects_order(self, corel_store):
        order = [4, 0, 2]
        dimensions = [dimension for dimension, _ in corel_store.iter_fragments(order)]
        assert dimensions == order


class TestGather:
    def test_gather_single_dimension(self, corel_store):
        values = corel_store.gather(1, [3, 7])
        assert np.allclose(values, corel_store.matrix[[3, 7], 1])

    def test_gather_matrix_subset_of_dimensions(self, corel_store):
        sub = corel_store.gather_matrix([2, 4], dimensions=[1, 3])
        assert sub.shape == (2, 2)
        assert np.allclose(sub, corel_store.matrix[np.ix_([2, 4], [1, 3])])

    def test_vector_accessor(self, corel_store):
        assert np.allclose(corel_store.vector(5), corel_store.matrix[5])

    def test_vector_out_of_range(self, corel_store):
        with pytest.raises(StorageError):
            corel_store.vector(corel_store.cardinality)


class TestRowSums:
    def test_row_sums_precomputed_by_default(self, corel_store):
        sums = corel_store.row_sums()
        assert np.allclose(sums.tail, corel_store.matrix.sum(axis=1))

    def test_row_sums_absent_when_disabled(self, corel_histograms):
        store = DecomposedStore(corel_histograms, precompute_row_sums=False)
        with pytest.raises(StorageError):
            store.row_sums()

    def test_materialize_row_sums(self, corel_histograms):
        store = DecomposedStore(corel_histograms, precompute_row_sums=False)
        store.materialize_row_sums()
        assert np.allclose(store.row_sums().tail, corel_histograms.sum(axis=1))


class TestStorageAccounting:
    def test_overhead_is_one_extra_column(self, corel_histograms):
        store = DecomposedStore(corel_histograms)
        expected = (corel_histograms.shape[1] + 1) / corel_histograms.shape[1]
        assert store.storage_overhead_ratio() == pytest.approx(expected)

    def test_overhead_without_row_sums_is_one(self, corel_histograms):
        store = DecomposedStore(corel_histograms, precompute_row_sums=False)
        assert store.storage_overhead_ratio() == pytest.approx(1.0)


class TestGatherBlockSinglePath:
    """Restricted gathers take one path whatever the row count or the store's
    origin: same values, column-contiguous, charged like m restricted scans."""

    ROWS, COLUMNS = 1500, 12

    @pytest.fixture(scope="class")
    def collection(self) -> np.ndarray:
        rng = np.random.default_rng(5)
        data = rng.random((self.ROWS, self.COLUMNS))
        return data / data.sum(axis=1, keepdims=True)

    @pytest.fixture(
        params=["float64/ram", "float32/mmap", "from_fragments", "row_slice"]
    )
    def store(self, request, collection) -> DecomposedStore:
        if request.param == "from_fragments":
            source = DecomposedStore(collection)
            tails = [np.array(source.fragment_tail(d)) for d in range(self.COLUMNS)]
            return DecomposedStore.from_fragments(tails)
        if request.param == "row_slice":
            # A shard view: its fragments start mid-way into the parent's.
            padded = np.vstack([collection[:37][::-1], collection, collection[:11]])
            return DecomposedStore.row_slice(DecomposedStore(padded), 37, 37 + self.ROWS)
        return DecomposedStore(collection, format=request.param)

    @pytest.mark.parametrize("rows", [1, 1023, 1024, ROWS])
    def test_values_layout_and_charge(self, store, rows):
        rng = np.random.default_rng(rows)
        oids = np.sort(rng.choice(self.ROWS, size=rows, replace=False))
        dims = np.array([7, 0, 11, 3], dtype=np.int64)
        expected = store.matrix[oids][:, dims]  # uncharged; read before the checkpoint
        checkpoint = store.cost.checkpoint()
        block = store.gather_block(dims, oids=oids, charge="candidates")
        assert block.dtype == np.float64
        assert np.array_equal(block, expected)
        assert all(block[:, position].flags.c_contiguous for position in range(dims.size))
        charged = store.cost.since(checkpoint)
        assert charged.bytes_read == rows * dims.size * store.coefficient_bytes
        assert charged.tuples_scanned == rows * dims.size
        assert charged.sequential_accesses == dims.size

    def test_bitmap_mode_charges_full_columns_and_none_charges_nothing(self, store):
        oids = np.array([3, 700, 1499], dtype=np.int64)
        dims = np.array([1, 2], dtype=np.int64)
        checkpoint = store.cost.checkpoint()
        store.gather_block(dims, oids=oids, charge="full")
        assert store.cost.since(checkpoint).bytes_read == (
            self.ROWS * dims.size * store.coefficient_bytes
        )
        checkpoint = store.cost.checkpoint()
        store.gather_block(dims, oids=oids, charge=None)
        assert store.cost.since(checkpoint).bytes_read == 0

    def test_no_rows_and_no_dimensions(self, store):
        empty = np.empty(0, dtype=np.int64)
        assert store.gather_block(np.array([2, 5]), oids=empty, charge=None).shape == (0, 2)
        assert store.gather_block(empty, oids=np.array([4, 9]), charge=None).shape == (2, 0)


class TestBlockedIngest:
    def test_fragments_are_the_contiguous_columns(self, corel_histograms):
        store = DecomposedStore(corel_histograms)
        for dimension in (0, 17, corel_histograms.shape[1] - 1):
            tail = store.fragment_tail(dimension)
            assert tail.flags.c_contiguous
            assert np.array_equal(tail, corel_histograms[:, dimension])

    def test_cardinality_not_a_multiple_of_the_block(self):
        rng = np.random.default_rng(9)
        data = rng.random((2 * 1024 + 5, 3))
        store = DecomposedStore(data, format="float32/ram")
        assert np.array_equal(store.matrix, data.astype(np.float32).astype(np.float64))
