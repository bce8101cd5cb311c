"""Unit tests for the candidate-set management of the BOND searcher."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bond import BondSearcher
from repro.core.candidates import CandidateMode, CandidateSet
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

    def test_invalid_mode_rejected(self, corel_store):
        with pytest.raises(QueryError):
            CandidateSet(corel_store, mode="nonsense")

    def test_invalid_switch_selectivity(self, corel_store):
        with pytest.raises(QueryError):
            CandidateSet(corel_store, switch_selectivity=0.0)

    def test_forced_positional_mode(self, corel_store):
        candidates = CandidateSet(corel_store, mode="positional")
        assert candidates.mode is CandidateMode.POSITIONAL


class TestAccumulateAndPrune:
    def test_accumulate_updates_scores_and_sums(self, corel_store):
        candidates = CandidateSet(corel_store, track_partial_sums=True, track_remaining_sums=True)
        column = candidates.column_values(0)
        candidates.accumulate(column * 0 + 1.0, column)
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

    def test_auto_mode_switches_after_heavy_pruning(self, corel_store):
        candidates = CandidateSet(corel_store, switch_selectivity=0.05)
        keep = np.zeros(len(candidates), dtype=bool)
        keep[: max(1, corel_store.cardinality // 100)] = True
        candidates.prune(keep)
        assert candidates.mode is CandidateMode.POSITIONAL

    def test_bitmap_policy_never_switches(self, corel_store):
        candidates = CandidateSet(corel_store, mode="bitmap", switch_selectivity=0.5)
        keep = np.zeros(len(candidates), dtype=bool)
        keep[:3] = True
        candidates.prune(keep)
        assert candidates.mode is CandidateMode.BITMAP

    def test_column_values_follow_surviving_oids(self, corel_store):
        candidates = CandidateSet(corel_store)
        keep = np.zeros(len(candidates), dtype=bool)
        survivors = [4, 10, 77]
        keep[survivors] = True
        candidates.prune(keep)
        values = candidates.column_values(3)
        assert np.allclose(values, corel_store.matrix[survivors, 3])

    def test_positional_mode_charges_less_than_bitmap(self, corel_histograms):
        bitmap_store = DecomposedStore(corel_histograms)
        positional_store = DecomposedStore(corel_histograms)
        bitmap_candidates = CandidateSet(bitmap_store, mode="bitmap")
        positional_candidates = CandidateSet(positional_store, mode="positional")
        keep = np.zeros(corel_histograms.shape[0], dtype=bool)
        keep[:5] = True
        bitmap_candidates.prune(keep)
        positional_candidates.prune(keep)
        bitmap_checkpoint = bitmap_store.cost.checkpoint()
        positional_checkpoint = positional_store.cost.checkpoint()
        bitmap_candidates.column_values(0)
        positional_candidates.column_values(0)
        assert (
            positional_store.cost.since(positional_checkpoint).bytes_read
            < bitmap_store.cost.since(bitmap_checkpoint).bytes_read
        )


class TestReset:
    def test_reset_restores_the_full_set_in_the_same_buffers(self, corel_store):
        candidates = CandidateSet(corel_store, track_partial_sums=True, track_remaining_sums=True)
        fresh = CandidateSet(corel_store, track_partial_sums=True, track_remaining_sums=True)
        buffers = (
            candidates.partial_scores.base,
            candidates.partial_value_sums.base,
            candidates.remaining_value_sums.base,
        )
        column = candidates.column_values(2)
        candidates.accumulate(column + 1.0, column)
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

    def test_positional_policy_survives_reset(self, corel_store):
        candidates = CandidateSet(corel_store, mode="positional")
        keep = np.ones(len(candidates), dtype=bool)
        keep[0] = False
        candidates.prune(keep)
        candidates.reset()
        assert candidates.mode is CandidateMode.POSITIONAL
        assert len(candidates) == corel_store.cardinality


class TestExcludedOids:
    """A store is immutable, so a candidate position is its OID and the
    searcher's ``exclude`` tombstones name positions directly."""

    @pytest.mark.parametrize("mode", ["auto", "bitmap", "positional"])
    def test_excluded_oids_never_survive(self, corel_histograms, mode):
        rows = corel_histograms[:100]
        excluded = np.array([0, 1, 2])
        kept = np.arange(3, 100)
        searcher = BondSearcher(DecomposedStore(rows), candidate_mode=mode)
        reference = BondSearcher(DecomposedStore(rows[kept]), candidate_mode=mode)
        for probe in (0, 1, 50):
            result = searcher.search(rows[probe], 10, exclude=excluded)
            wanted = reference.search(rows[probe], 10)
            assert not {0, 1, 2} & set(result.oids.tolist())
            assert np.array_equal(result.oids, kept[wanted.oids])
            assert np.array_equal(result.scores, wanted.scores)
