"""Tests for on-disk persistence of decomposed collections and the CLI runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bond import BondSearcher
from repro.errors import StorageError
from repro.experiments.__main__ import EXPERIMENT_MODULES, main as experiments_main
from repro.metrics.histogram import HistogramIntersection
from repro.storage.decomposed import DecomposedStore
from repro.storage.persistence import (
    fragment_file_name,
    load_decomposed,
    load_manifest,
    persisted_size_bytes,
    save_decomposed,
)
from repro.workload.ground_truth import exact_top_k, result_scores_match


class TestPersistence:
    def test_round_trip_preserves_data(self, corel_histograms, tmp_path):
        store = DecomposedStore(corel_histograms[:200], name="roundtrip")
        save_decomposed(store, tmp_path / "collection")
        loaded = load_decomposed(tmp_path / "collection")
        assert loaded.cardinality == 200
        assert loaded.name == "roundtrip"
        assert np.allclose(loaded.matrix, corel_histograms[:200])

    def test_one_file_per_fragment(self, corel_histograms, tmp_path):
        store = DecomposedStore(corel_histograms[:50])
        directory = save_decomposed(store, tmp_path / "c")
        fragment_files = sorted(directory.glob("dim_*.col"))
        assert len(fragment_files) == store.dimensionality
        assert fragment_files[0].name == fragment_file_name(0)
        # Each fragment file holds exactly one float64 column.
        assert fragment_files[0].stat().st_size == 50 * 8

    def test_persisted_size_excludes_manifest(self, corel_histograms, tmp_path):
        store = DecomposedStore(corel_histograms[:50])
        directory = save_decomposed(store, tmp_path / "c")
        expected = 50 * 8 * (store.dimensionality + 1)  # fragments + row sums
        assert persisted_size_bytes(directory) == expected

    def test_search_results_survive_round_trip(self, corel_histograms, tmp_path):
        original = DecomposedStore(corel_histograms[:300])
        save_decomposed(original, tmp_path / "c")
        loaded = load_decomposed(tmp_path / "c")
        query = corel_histograms[7]
        expected = exact_top_k(corel_histograms[:300], query, 5, HistogramIntersection())
        result = BondSearcher(loaded, metric=HistogramIntersection()).search(query, 5)
        assert result_scores_match(result, expected)

    def test_partial_load_of_a_subspace(self, corel_histograms, tmp_path):
        store = DecomposedStore(corel_histograms[:80])
        save_decomposed(store, tmp_path / "c")
        loaded = load_decomposed(tmp_path / "c", dimensions=[3, 7, 11])
        assert loaded.dimensionality == 3
        assert np.allclose(loaded.matrix, corel_histograms[:80][:, [3, 7, 11]])

    def test_partial_load_invalid_dimension(self, corel_histograms, tmp_path):
        store = DecomposedStore(corel_histograms[:20])
        save_decomposed(store, tmp_path / "c")
        with pytest.raises(StorageError):
            load_decomposed(tmp_path / "c", dimensions=[999])

    def test_overwrite_protection(self, corel_histograms, tmp_path):
        store = DecomposedStore(corel_histograms[:20])
        save_decomposed(store, tmp_path / "c")
        with pytest.raises(StorageError):
            save_decomposed(store, tmp_path / "c")
        save_decomposed(store, tmp_path / "c", overwrite=True)

    def test_pending_updates_block_save(self, corel_histograms, tmp_path):
        store = DecomposedStore(corel_histograms[:20])
        store.delete([0])
        with pytest.raises(StorageError):
            save_decomposed(store, tmp_path / "c")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(StorageError):
            load_manifest(tmp_path)

    def test_corrupt_fragment_length_detected(self, corel_histograms, tmp_path):
        store = DecomposedStore(corel_histograms[:20])
        directory = save_decomposed(store, tmp_path / "c")
        (directory / fragment_file_name(0)).write_bytes(b"\x00" * 8)
        with pytest.raises(StorageError):
            load_decomposed(directory)

    def test_no_row_sums_round_trip(self, corel_histograms, tmp_path):
        store = DecomposedStore(corel_histograms[:20], precompute_row_sums=False)
        directory = save_decomposed(store, tmp_path / "c")
        loaded = load_decomposed(directory)
        with pytest.raises(StorageError):
            loaded.row_sums()


class TestExperimentsCli:
    def test_list_option(self, capsys):
        assert experiments_main(["--list"]) == 0
        output = capsys.readouterr().out
        for experiment_id in EXPERIMENT_MODULES:
            assert experiment_id in output

    def test_every_registered_module_importable(self):
        import importlib

        for module_name in EXPERIMENT_MODULES.values():
            module = importlib.import_module(module_name)
            assert hasattr(module, "run")

    def test_unknown_experiment_id_rejected(self):
        with pytest.raises(SystemExit):
            experiments_main(["does-not-exist"])

    def test_no_arguments_rejected(self):
        with pytest.raises(SystemExit):
            experiments_main([])

    def test_runs_one_experiment_and_writes_output(self, tmp_path, capsys, monkeypatch):
        # Patch the fig2 experiment to a tiny scale so the CLI test stays fast.
        from repro.experiments import fig2_dataset_stats
        from repro.experiments.base import ExperimentScale

        tiny = ExperimentScale(name="tiny", corel_cardinality=200, clustered_cardinality=200, num_queries=2)
        original_run = fig2_dataset_stats.run
        monkeypatch.setattr(fig2_dataset_stats, "run", lambda scale: original_run(tiny))
        assert experiments_main(["fig2", "--output", str(tmp_path)]) == 0
        assert (tmp_path / "fig2.txt").exists()
        assert "fig2" in capsys.readouterr().out
