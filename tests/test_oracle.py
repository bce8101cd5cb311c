"""Every exact BOND path against the frozen seed search (``tests/oracle.py``).

The seed's per-dimension loop is the one independently written reference
for exact BOND.  Each live path — single and batched calls, inline or
process shards, the ``Index`` facade — must return its top-k bitwise
(``np.array_equal`` on OIDs and scores) under both schedules and three
metrics, and the compressed filter-and-refine path its OIDs.  In the main
collection every row appears twice, so neighbours come in equal-score pairs
and, with k odd, the k-th place is a tie that only the OID tie-break
decides.  The edge shapes — one dimension, one row, k = n, k > n and
all-zero rows (under the distance metrics, the only ones that accept a zero
query) — run through the same paths, with two inline shards.
"""

from __future__ import annotations

import numpy as np
import pytest
from oracle import SeedBondSearcher

from repro.api import Index, Query
from repro.core.bond import BondSearcher
from repro.core.compressed import CompressedBondSearcher
from repro.core.parallel import ShardedBondSearcher
from repro.core.planner import FixedPeriodSchedule, MassAwareSchedule
from repro.datasets.corel import CorelLikeConfig, make_corel_like
from repro.metrics.euclidean import SquaredEuclidean
from repro.metrics.histogram import HistogramIntersection
from repro.metrics.weighted import WeightedSquaredEuclidean
from repro.storage.compressed import CompressedStore
from repro.storage.decomposed import DecomposedStore

#: Odd, so with paired neighbours the k-th and (k+1)-th answers tie.
K = 7


@pytest.fixture(scope="module")
def collection() -> np.ndarray:
    base = make_corel_like(CorelLikeConfig(cardinality=300, dimensionality=32, seed=17))
    return np.vstack([base, base])  # row i + 300 repeats row i, in another shard


def edge_collection(shape: str) -> tuple[np.ndarray, int]:
    """An edge-shaped collection of L1-normalised rows and its k."""
    rows, dimensionality, k = {
        "d1": (40, 1, 5),
        "n1": (1, 8, 1),
        "k_eq_n": (40, 8, 40),
        "k_gt_n": (40, 8, 43),
        "zero_rows": (40, 8, 5),
    }[shape]
    data = np.random.default_rng(3).random((rows, dimensionality)) + 0.01
    data /= data.sum(axis=1, keepdims=True)
    if shape == "zero_rows":
        data[:6] = 0.0  # the first query is one of them
    return data, k


def make_metric(name: str, dimensionality: int):
    if name == "Hq":
        return HistogramIntersection()
    if name == "euclidean":
        return SquaredEuclidean()
    weights = np.random.default_rng(5).uniform(0.1, 2.0, dimensionality)
    if dimensionality > 1:
        weights[::4] = 0.0  # zero-weight fragments are never read
    return WeightedSquaredEuclidean(weights)


SCHEDULES = {"mass": MassAwareSchedule, "m8": lambda: FixedPeriodSchedule(8)}
METRICS = ("Hq", "euclidean", "weighted")
EDGE_SHAPES = ("d1", "n1", "k_eq_n", "k_gt_n", "zero_rows")
CASES = [
    pytest.param(metric, schedule, "paired", id=f"{metric}-{schedule}")
    for metric in METRICS
    for schedule in SCHEDULES
] + [
    pytest.param(metric, schedule, shape, id=f"{metric}-{schedule}-{shape}")
    for shape in EDGE_SHAPES
    for metric in METRICS
    for schedule in SCHEDULES
    if not (shape == "zero_rows" and metric == "Hq")
]


@pytest.mark.parametrize("metric_name, schedule_name, shape", CASES)
def test_every_exact_path_returns_the_seed_answer(collection, metric_name, schedule_name, shape):
    if shape == "paired":
        data, k, shards, executors = collection, K, 3, ("thread", "process")
        queries = data[[3, 150, 277, 420, 599]]
    else:
        (data, k), shards, executors = edge_collection(shape), 2, ("thread",)
        queries = data[[0, data.shape[0] - 1]]
    metric = make_metric(metric_name, data.shape[1])
    schedule = SCHEDULES[schedule_name]()
    seed = SeedBondSearcher(data, metric)
    expected = [seed.search(query, k) for query in queries]

    def check(path, results, *, scores=True):
        results = list(results)
        assert len(results) == len(expected), path
        for want, got in zip(expected, results):
            assert np.array_equal(got.oids, want.oids), path
            if scores:
                assert np.array_equal(got.scores, want.scores), path

    searcher = BondSearcher(DecomposedStore(data), metric=metric, schedule=schedule)
    check("search", [searcher.search(query, k) for query in queries])
    check("batch", searcher.search_batch(queries, k))
    check("batch of one", [searcher.search_batch(query[None], k)[0] for query in queries])
    for executor in executors:
        sharded = ShardedBondSearcher(
            DecomposedStore(data),
            metric=metric,
            schedule=schedule,
            shards=shards,
            executor=executor,
        )
        try:
            check(f"sharded {executor}", sharded.search_batch(queries, k))
        finally:
            sharded.close()
    # The facade plans with the default schedule; the answer cannot depend on it.
    with Index.build(data) as index:
        check("Index.answer", [index.answer(Query(q, k=k, metric=metric)) for q in queries])
        check("Index.answer batch", index.answer(Query(queries, k=k, metric=metric, batch=True)))
    # The refinement scores a whole row at once, the seed folds it dimension
    # by dimension: the OIDs agree, the scores only to a few ulps.
    compressed = CompressedBondSearcher(
        CompressedStore(DecomposedStore(data)), metric=metric, schedule=schedule
    )
    check("compressed", [compressed.search(query, k) for query in queries], scores=False)
