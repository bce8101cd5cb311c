"""Synthetic dataset generators matching the paper's evaluation data.

The paper evaluates on one real and several synthetic collections:

* the **Corel** collection — 59,619 images turned into 166-dimensional HSV
  colour histograms (18 hues x 3 saturations x 3 values + 4 grays), whose
  per-histogram values follow a Zipfian distribution (Figure 2);
* **clustered synthetic** collections (Section 7.5) — 100,000 vectors of
  dimensionality 128 in the unit hypercube, 1,000 cluster centres placed with
  Zipfian-skewed coordinates (skew parameter theta), 95 % of the vectors
  Gaussian around a random centre and 5 % uniform noise;
* **skewed query weights** (Section 8.1 / Figure 11) — weight vectors where a
  small fraction of the dimensions carries most of the total weight.

The real Corel images are not redistributable, so :mod:`repro.datasets.corel`
generates histograms that match the *published statistics* of the collection
(Zipfian per-histogram values, varying heavy bins, L1 normalisation), and
:mod:`repro.datasets.hsv` provides a miniature image -> HSV-histogram
extraction pipeline so the end-to-end path of the motivating application is
exercised too.
"""

from repro.datasets.corel import CorelLikeConfig, make_corel_like
from repro.datasets.clustered import (
    ClusteredCollection,
    ClusteredConfig,
    make_clustered,
    make_clustered_collection,
)
from repro.datasets.weights import make_skewed_weights, make_subspace_weights
from repro.datasets.hsv import hsv_histogram, make_synthetic_images, quantize_hsv
from repro.datasets.statistics import DatasetStatistics, describe_dataset

__all__ = [
    "ClusteredCollection",
    "ClusteredConfig",
    "CorelLikeConfig",
    "DatasetStatistics",
    "describe_dataset",
    "hsv_histogram",
    "make_clustered",
    "make_clustered_collection",
    "make_corel_like",
    "make_skewed_weights",
    "make_subspace_weights",
    "make_synthetic_images",
    "quantize_hsv",
]
