"""Unit tests for differential updates (delta log) and store reorganisation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.updates import DeltaLog, DeltaOperation
from repro.errors import StorageError
from repro.storage.decomposed import DecomposedStore


class TestDeltaLog:
    def test_record_append_counts(self):
        log = DeltaLog(dimensionality=3)
        log.record_append(np.ones((2, 3)))
        log.record_append(np.zeros(3))
        assert log.pending_appends == 3
        assert len(log) == 2

    def test_record_append_wrong_dimensionality(self):
        log = DeltaLog(dimensionality=3)
        with pytest.raises(StorageError):
            log.record_append(np.ones((1, 4)))

    def test_record_delete_counts(self):
        log = DeltaLog(dimensionality=2)
        log.record_delete([1, 2])
        assert log.pending_deletes == 2
        assert log.entries[0].operation is DeltaOperation.DELETE

    def test_apply_appends_and_deletes_in_order(self):
        log = DeltaLog(dimensionality=2)
        base = np.array([[0.0, 0.0], [1.0, 1.0]])
        log.record_append(np.array([[2.0, 2.0]]))
        log.record_delete([0])
        merged = log.apply(base)
        assert merged.shape == (2, 2)
        assert np.allclose(merged, [[1.0, 1.0], [2.0, 2.0]])
        assert len(log) == 0

    def test_delete_of_appended_row(self):
        log = DeltaLog(dimensionality=1)
        base = np.array([[5.0]])
        log.record_append(np.array([[6.0]]))
        log.record_delete([1])
        merged = log.apply(base)
        assert np.allclose(merged, [[5.0]])

    def test_delete_out_of_range(self):
        log = DeltaLog(dimensionality=1)
        log.record_delete([3])
        with pytest.raises(StorageError):
            log.apply(np.array([[1.0]]))

    def test_apply_wrong_base(self):
        log = DeltaLog(dimensionality=2)
        with pytest.raises(StorageError):
            log.apply(np.zeros((2, 3)))

    def test_record_append_copies_its_input(self):
        # The log is the durable record between WAL ack and reorganisation;
        # a caller mutating its array afterwards must not rewrite history.
        log = DeltaLog(dimensionality=2)
        rows = np.array([[1.0, 2.0]])
        log.record_append(rows)
        rows[0, 0] = 99.0
        assert np.allclose(log.entries[0].payload, [[1.0, 2.0]])

    def test_record_delete_copies_its_input(self):
        log = DeltaLog(dimensionality=2)
        oids = np.array([3, 4], dtype=np.int64)
        log.record_delete(oids)
        oids[0] = 0
        assert log.entries[0].payload.tolist() == [3, 4]

    def test_record_delete_rejects_matrix(self):
        log = DeltaLog(dimensionality=2)
        with pytest.raises(StorageError):
            log.record_delete(np.zeros((2, 2), dtype=np.int64))

    def test_snapshot_apply_leaves_live_log_intact(self):
        log = DeltaLog(dimensionality=1)
        log.record_append(np.array([[2.0]]))
        log.record_delete([0])
        merged = log.snapshot().apply(np.array([[1.0]]))
        assert np.allclose(merged, [[2.0]])
        # apply() consumed the snapshot, not the live log.
        assert len(log) == 2

    def test_delete_then_append_does_not_resurrect(self):
        # Coordinate-system audit: a delete marks a row dead; a later append
        # continues the OID sequence past it and never reuses the dead slot
        # until reorganisation compacts.
        log = DeltaLog(dimensionality=1)
        base = np.array([[0.0], [1.0], [2.0]])
        log.record_delete([1])
        log.record_append(np.array([[3.0]]))  # logical OID 3, not 1
        merged = log.apply(base)
        assert np.allclose(merged, [[0.0], [2.0], [3.0]])

    def test_delete_applies_to_pending_append_in_log_order(self):
        # A delete naming an OID introduced by an *earlier* append in the
        # same log must hit that appended row, and only that row.
        log = DeltaLog(dimensionality=1)
        base = np.array([[0.0], [1.0]])
        log.record_append(np.array([[2.0], [3.0]]))  # OIDs 2, 3
        log.record_delete([2])
        merged = log.apply(base)
        assert np.allclose(merged, [[0.0], [1.0], [3.0]])

    def test_delete_before_append_cannot_name_future_oid(self):
        # Log order matters: at the time of the delete, OID 2 does not exist.
        log = DeltaLog(dimensionality=1)
        log.record_delete([2])
        log.record_append(np.array([[9.0]]))
        with pytest.raises(StorageError):
            log.apply(np.array([[0.0], [1.0]]))

    def test_double_delete_is_idempotent(self):
        log = DeltaLog(dimensionality=1)
        base = np.array([[0.0], [1.0]])
        log.record_delete([0])
        log.record_delete([0])
        merged = log.apply(base)
        assert np.allclose(merged, [[1.0]])


class TestStoreUpdates:
    def test_append_visible_after_reorganize(self, corel_histograms):
        store = DecomposedStore(corel_histograms[:50])
        store.append(corel_histograms[50:52])
        assert store.cardinality == 50
        store.reorganize()
        assert store.cardinality == 52

    def test_delete_masks_immediately_and_shrinks_after_reorganize(self, corel_histograms):
        store = DecomposedStore(corel_histograms[:50])
        store.delete([0, 1])
        assert len(store.full_candidates()) == 48
        store.reorganize()
        assert store.cardinality == 48
        assert len(store.full_candidates()) == 48

    def test_delete_out_of_range_rejected(self, corel_histograms):
        store = DecomposedStore(corel_histograms[:10])
        with pytest.raises(StorageError):
            store.delete([99])

    def test_pending_updates_counter(self, corel_histograms):
        store = DecomposedStore(corel_histograms[:10])
        store.append(corel_histograms[10])
        store.delete([2])
        assert store.pending_updates == 2
        store.reorganize()
        assert store.pending_updates == 0

    def test_reorganize_preserves_search_results(self, corel_histograms):
        from repro.core.bond import BondSearcher
        from repro.metrics.histogram import HistogramIntersection

        store = DecomposedStore(corel_histograms[:200])
        store.append(corel_histograms[200:210])
        store.reorganize()
        searcher = BondSearcher(store, metric=HistogramIntersection())
        result = searcher.search(corel_histograms[205], k=1)
        # The appended histogram must be findable and be its own nearest neighbour.
        assert result.scores[0] == pytest.approx(1.0)
