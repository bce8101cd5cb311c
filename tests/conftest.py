"""Shared fixtures of the test suite.

The fixtures build small but realistic collections once per session:
Corel-like histograms for the histogram-intersection paths and a clustered
unit-hypercube collection for the Euclidean paths.  Sizes are chosen so the
whole suite runs quickly while still exercising pruning (a collection that is
too small never prunes anything and would hide bugs in the pruning logic).
"""

from __future__ import annotations

import glob
import multiprocessing
import threading

import numpy as np
import pytest

from repro.datasets.clustered import ClusteredConfig, make_clustered
from repro.datasets.corel import CorelLikeConfig, make_corel_like
from repro.storage.decomposed import DecomposedStore
from repro.storage.rowstore import RowStore


@pytest.fixture(scope="session")
def corel_histograms() -> np.ndarray:
    """A small Corel-like histogram collection (L1-normalised rows)."""
    return make_corel_like(CorelLikeConfig(cardinality=1200, dimensionality=48, seed=101))


@pytest.fixture(scope="session")
def clustered_vectors() -> np.ndarray:
    """A small clustered collection in the unit hypercube."""
    return make_clustered(
        ClusteredConfig(cardinality=1200, dimensionality=32, num_clusters=60, skew=1.0, seed=202)
    )


@pytest.fixture(scope="session")
def uniform_vectors() -> np.ndarray:
    """A small uniform collection (the hard case for pruning)."""
    rng = np.random.default_rng(303)
    return rng.random((600, 24))


@pytest.fixture()
def corel_store(corel_histograms: np.ndarray) -> DecomposedStore:
    """A fresh decomposed store over the histogram collection."""
    return DecomposedStore(corel_histograms, name="corel")


@pytest.fixture()
def corel_rowstore(corel_histograms: np.ndarray) -> RowStore:
    """A fresh row store over the histogram collection."""
    return RowStore(corel_histograms, name="corel")


@pytest.fixture()
def clustered_store(clustered_vectors: np.ndarray) -> DecomposedStore:
    """A fresh decomposed store over the clustered collection."""
    return DecomposedStore(clustered_vectors, name="clustered")


@pytest.fixture()
def clustered_rowstore(clustered_vectors: np.ndarray) -> RowStore:
    """A fresh row store over the clustered collection."""
    return RowStore(clustered_vectors, name="clustered")


@pytest.fixture(autouse=True)
def no_shard_leaks():
    """Fail any test that leaves a sharded engine's resources behind: a
    shared-memory segment or a live shard-worker process.  No code starts a
    ``repro-shard`` thread (in-process shards run inline, process shards are
    scattered from the calling thread); the thread check guards that."""
    yield
    assert not glob.glob("/dev/shm/repro_shm_*"), "leaked shared-memory segment"
    workers = [p for p in multiprocessing.active_children() if p.name == "repro-shard-worker"]
    assert not workers, f"live shard workers: {workers}"
    threads = [t.name for t in threading.enumerate() if t.name.startswith("repro-shard")]
    assert not threads, f"live shard dispatch threads: {threads}"
