"""Unit tests for the synthetic image -> HSV histogram extraction pipeline."""

from __future__ import annotations

import colorsys

import numpy as np
import pytest

from repro.datasets.hsv import (
    GRAY_BINS,
    HUE_BINS,
    SATURATION_BINS,
    TOTAL_BINS,
    VALUE_BINS,
    histograms_from_images,
    hsv_histogram,
    make_synthetic_images,
    quantize_hsv,
    rgb_to_hsv,
)
from repro.errors import DatasetError


class TestRgbToHsv:
    def test_matches_colorsys_on_random_pixels(self):
        rng = np.random.default_rng(4)
        pixels = rng.random((5, 5, 3))
        converted = rgb_to_hsv(pixels)
        for row in range(5):
            for column in range(5):
                expected = colorsys.rgb_to_hsv(*pixels[row, column])
                assert converted[row, column] == pytest.approx(expected, abs=1e-9)

    def test_grayscale_pixels_have_zero_saturation(self):
        image = np.full((2, 2, 3), 0.4)
        hsv = rgb_to_hsv(image)
        assert np.allclose(hsv[..., 1], 0.0)
        assert np.allclose(hsv[..., 2], 0.4)

    def test_pure_colors(self):
        image = np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]])
        hsv = rgb_to_hsv(image)
        assert hsv[0, 0, 0] == pytest.approx(0.0)
        assert hsv[0, 1, 0] == pytest.approx(1 / 3)
        assert hsv[0, 2, 0] == pytest.approx(2 / 3)

    def test_rejects_non_rgb(self):
        with pytest.raises(DatasetError):
            rgb_to_hsv(np.zeros((4, 4)))


class TestQuantization:
    def test_bin_count_is_166(self):
        assert TOTAL_BINS == 166
        assert HUE_BINS * SATURATION_BINS * VALUE_BINS + GRAY_BINS == 166

    def test_gray_pixels_land_in_gray_bins(self):
        hsv = np.array([[[0.3, 0.0, 0.9]]])
        bins = quantize_hsv(hsv)
        assert bins[0, 0] >= HUE_BINS * SATURATION_BINS * VALUE_BINS

    def test_saturated_pixels_land_in_chromatic_bins(self):
        hsv = np.array([[[0.5, 1.0, 1.0]]])
        bins = quantize_hsv(hsv)
        assert bins[0, 0] < HUE_BINS * SATURATION_BINS * VALUE_BINS

    def test_all_bins_within_range(self):
        rng = np.random.default_rng(8)
        hsv = rng.random((20, 20, 3))
        bins = quantize_hsv(hsv)
        assert bins.min() >= 0 and bins.max() < TOTAL_BINS


class TestHistograms:
    def test_histogram_is_normalised(self):
        rng = np.random.default_rng(1)
        image = rng.random((16, 16, 3))
        histogram = hsv_histogram(image)
        assert histogram.shape == (166,)
        assert histogram.sum() == pytest.approx(1.0)

    def test_single_color_image_concentrates_in_one_bin(self):
        image = np.broadcast_to(np.array([0.9, 0.1, 0.1]), (8, 8, 3))
        histogram = hsv_histogram(np.array(image))
        assert histogram.max() == pytest.approx(1.0)

    def test_synthetic_images_shape_and_range(self):
        images = make_synthetic_images(3, size=12, blobs=2)
        assert images.shape == (3, 12, 12, 3)
        assert images.min() >= 0.0 and images.max() <= 1.0

    def test_synthetic_image_parameters_validated(self):
        with pytest.raises(DatasetError):
            make_synthetic_images(0)
        with pytest.raises(DatasetError):
            make_synthetic_images(1, size=2)

    def test_histograms_from_images(self):
        images = make_synthetic_images(4, size=10)
        histograms = histograms_from_images(images)
        assert histograms.shape == (4, 166)
        assert np.allclose(histograms.sum(axis=1), 1.0)

    def test_histograms_from_images_rejects_bad_shape(self):
        with pytest.raises(DatasetError):
            histograms_from_images(np.zeros((2, 4, 4)))

    def test_pipeline_feeds_bond_search(self):
        """End-to-end: render images, extract histograms, search with BOND."""
        from repro.core.bond import BondSearcher
        from repro.metrics.histogram import HistogramIntersection
        from repro.storage.decomposed import DecomposedStore

        images = make_synthetic_images(60, size=12, seed=3)
        histograms = histograms_from_images(images)
        store = DecomposedStore(histograms)
        searcher = BondSearcher(store, metric=HistogramIntersection())
        result = searcher.search(histograms[7], k=3)
        assert 7 in result.oids
        assert result.scores[0] == pytest.approx(1.0)
