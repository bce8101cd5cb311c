"""Unit tests for the candidate-set management of the BOND searcher."""

from __future__ import annotations

import numpy as np
import pytest
from oracle import accumulate, column_values

from repro.core.bond import BondSearcher
from repro.core.candidates import SWITCH_SELECTIVITY, CandidateMode, CandidateSet
from repro.errors import QueryError
from repro.storage.decomposed import DecomposedStore


class TestConstruction:
    def test_starts_with_full_collection_in_bitmap_mode(self, corel_store):
        candidates = CandidateSet(corel_store)
        assert len(candidates) == corel_store.cardinality
        assert candidates.mode is CandidateMode.BITMAP
        assert candidates.selectivity() == pytest.approx(1.0)

    def test_bookkeeping_arrays_initialised(self, corel_store):
        candidates = CandidateSet(corel_store, track_partial_sums=True, track_remaining_sums=True)
        assert candidates.partial_value_sums is not None
        assert np.allclose(candidates.remaining_value_sums, corel_store.matrix.sum(axis=1))


class TestAccumulateAndPrune:
    def test_accumulate_updates_scores_and_sums(self, corel_store):
        candidates = CandidateSet(corel_store, track_partial_sums=True, track_remaining_sums=True)
        column = column_values(corel_store, candidates, 0)
        accumulate(candidates, column * 0 + 1.0, column)
        assert np.allclose(candidates.partial_scores, 1.0)
        assert np.allclose(candidates.partial_value_sums, column)
        assert np.allclose(
            candidates.remaining_value_sums, corel_store.matrix.sum(axis=1) - column
        )

    def test_prune_keeps_only_masked(self, corel_store):
        candidates = CandidateSet(corel_store)
        keep = np.zeros(len(candidates), dtype=bool)
        keep[:10] = True
        pruned = candidates.prune(keep)
        assert pruned == corel_store.cardinality - 10
        assert len(candidates) == 10
        assert np.array_equal(candidates.oids, np.arange(10))

    def test_prune_mask_must_align(self, corel_store):
        candidates = CandidateSet(corel_store)
        with pytest.raises(QueryError):
            candidates.prune(np.array([True, False]))

    def test_switches_after_heavy_pruning(self, corel_store):
        candidates = CandidateSet(corel_store)
        keep = np.zeros(len(candidates), dtype=bool)
        keep[: max(1, corel_store.cardinality // 100)] = True
        candidates.prune(keep)
        assert candidates.mode is CandidateMode.POSITIONAL

    @pytest.mark.parametrize("share, positional", [(0.05, True), (0.0501, False)])
    def test_switches_at_five_percent(self, share, positional):
        rows = 10_000
        store = DecomposedStore(np.full((rows, 2), 0.5))
        candidates = CandidateSet(store)
        keep = np.zeros(rows, dtype=bool)
        keep[: round(share * rows)] = True
        candidates.prune(keep)
        assert SWITCH_SELECTIVITY == 0.05
        assert (candidates.mode is CandidateMode.POSITIONAL) is positional

    def test_column_values_follow_surviving_oids(self, corel_store):
        candidates = CandidateSet(corel_store)
        keep = np.zeros(len(candidates), dtype=bool)
        survivors = [4, 10, 77]
        keep[survivors] = True
        candidates.prune(keep)
        values = column_values(corel_store, candidates, 3)
        assert np.allclose(values, corel_store.matrix[survivors, 3])

    def test_positional_reads_charge_less_than_bitmap_reads(self, corel_histograms):
        store = DecomposedStore(corel_histograms)
        candidates = CandidateSet(store)
        checkpoint = store.cost.checkpoint()
        column_values(store, candidates, 0)
        bitmap_bytes = store.cost.since(checkpoint).bytes_read
        keep = np.zeros(corel_histograms.shape[0], dtype=bool)
        keep[:5] = True
        candidates.prune(keep)
        assert candidates.mode is CandidateMode.POSITIONAL
        checkpoint = store.cost.checkpoint()
        column_values(store, candidates, 0)
        assert store.cost.since(checkpoint).bytes_read < bitmap_bytes


class TestReset:
    def test_reset_restores_the_full_set_in_the_same_buffers(self, corel_store):
        candidates = CandidateSet(corel_store, track_partial_sums=True, track_remaining_sums=True)
        fresh = CandidateSet(corel_store, track_partial_sums=True, track_remaining_sums=True)
        buffers = (
            candidates.partial_scores.base,
            candidates.partial_value_sums.base,
            candidates.remaining_value_sums.base,
        )
        column = column_values(corel_store, candidates, 2)
        accumulate(candidates, column + 1.0, column)
        keep = np.zeros(len(candidates), dtype=bool)
        keep[5:40] = True
        candidates.prune(keep)
        assert candidates.mode is CandidateMode.POSITIONAL

        candidates.reset()
        assert len(candidates) == corel_store.cardinality
        assert candidates.mode is CandidateMode.BITMAP
        assert candidates.is_full()
        assert np.array_equal(candidates.oids, fresh.oids)
        assert np.array_equal(candidates.partial_scores, fresh.partial_scores)
        assert np.array_equal(candidates.partial_value_sums, fresh.partial_value_sums)
        assert np.array_equal(candidates.remaining_value_sums, fresh.remaining_value_sums)
        assert candidates.partial_scores.base is buffers[0]
        assert candidates.partial_value_sums.base is buffers[1]
        assert candidates.remaining_value_sums.base is buffers[2]

    def test_first_prune_of_dense_oids_keeps_the_survivor_positions(self, corel_store):
        candidates = CandidateSet(corel_store)
        keep = np.zeros(len(candidates), dtype=bool)
        keep[[3, 8, 21]] = True
        candidates.prune(keep)
        assert candidates.oids.dtype == np.int64
        assert np.array_equal(candidates.oids, [3, 8, 21])
        candidates.prune(np.array([True, False, True]))
        assert np.array_equal(candidates.oids, [3, 21])

    def test_reset_forgets_the_survivors_of_the_last_search(self, corel_store):
        candidates = CandidateSet(corel_store)
        keep = np.zeros(len(candidates), dtype=bool)
        keep[[3, 8, 21]] = True
        candidates.prune(keep)
        candidates.reset()
        keep = np.zeros(len(candidates), dtype=bool)
        keep[[5, 700]] = True
        candidates.prune(keep)
        assert np.array_equal(candidates.oids, [5, 700])


class TestExcludedOids:
    """A store is immutable, so a candidate position is its OID and the
    searcher's ``exclude`` tombstones name positions directly."""

    def test_excluded_oids_never_survive(self, corel_histograms):
        rows = corel_histograms[:100]
        excluded = np.array([0, 1, 2])
        kept = np.arange(3, 100)
        searcher = BondSearcher(DecomposedStore(rows))
        reference = BondSearcher(DecomposedStore(rows[kept]))
        for probe in (0, 1, 50):
            result = searcher.search(rows[probe], 10, exclude=excluded)
            wanted = reference.search(rows[probe], 10)
            assert not {0, 1, 2} & set(result.oids.tolist())
            assert np.array_equal(result.oids, kept[wanted.oids])
            assert np.array_equal(result.scores, wanted.scores)
