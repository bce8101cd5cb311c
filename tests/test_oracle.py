"""Every exact BOND path against the frozen seed search (``tests/oracle.py``).

The seed's per-dimension loop is the one independently written reference
for exact BOND.  Each live path — the loop and fused engines, single and
batched calls, three inline or process shards, the ``Index`` facade — must
return its top-k bitwise (``np.array_equal`` on OIDs and scores) under both
schedules and three metrics.  Every row of the collection appears twice, so
neighbours come in equal-score pairs and, with k odd, the k-th place is a
tie that only the OID tie-break decides.
"""

from __future__ import annotations

import numpy as np
import pytest
from oracle import SeedBondSearcher

from repro.api import Index, Query
from repro.core.bond import BondSearcher
from repro.core.parallel import ShardedBondSearcher
from repro.core.planner import FixedPeriodSchedule, MassAwareSchedule
from repro.datasets.corel import CorelLikeConfig, make_corel_like
from repro.metrics.euclidean import SquaredEuclidean
from repro.metrics.histogram import HistogramIntersection
from repro.metrics.weighted import WeightedSquaredEuclidean
from repro.storage.decomposed import DecomposedStore

#: Odd, so with paired neighbours the k-th and (k+1)-th answers tie.
K = 7


@pytest.fixture(scope="module")
def collection() -> np.ndarray:
    base = make_corel_like(CorelLikeConfig(cardinality=300, dimensionality=32, seed=17))
    return np.vstack([base, base])  # row i + 300 repeats row i, in another shard


def make_metric(name: str, dimensionality: int):
    if name == "Hq":
        return HistogramIntersection()
    if name == "euclidean":
        return SquaredEuclidean()
    weights = np.random.default_rng(5).uniform(0.1, 2.0, dimensionality)
    weights[::4] = 0.0  # zero-weight fragments are never read
    return WeightedSquaredEuclidean(weights)


@pytest.mark.parametrize(
    "schedule", [MassAwareSchedule(), FixedPeriodSchedule(8)], ids=["mass", "m8"]
)
@pytest.mark.parametrize("metric_name", ["Hq", "euclidean", "weighted"])
def test_every_exact_path_returns_the_seed_answer(collection, metric_name, schedule):
    metric = make_metric(metric_name, collection.shape[1])
    queries = collection[[3, 150, 277, 420, 599]]
    seed = SeedBondSearcher(collection, metric)
    expected = [seed.search(query, K) for query in queries]

    def check(path, results):
        results = list(results)
        assert len(results) == len(expected), path
        for want, got in zip(expected, results):
            assert np.array_equal(got.oids, want.oids), path
            assert np.array_equal(got.scores, want.scores), path

    for engine in ("loop", "fused"):
        searcher = BondSearcher(
            DecomposedStore(collection), metric=metric, schedule=schedule, engine=engine
        )
        check(f"{engine} search", [searcher.search(query, K) for query in queries])
        check(f"{engine} batch", searcher.search_batch(queries, K))
        check(
            f"{engine} batch of one",
            [searcher.search_batch(query[None], K)[0] for query in queries],
        )
    for executor in ("thread", "process"):
        sharded = ShardedBondSearcher(
            DecomposedStore(collection),
            metric=metric,
            schedule=schedule,
            shards=3,
            executor=executor,
        )
        try:
            check(f"sharded {executor}", sharded.search_batch(queries, K))
        finally:
            sharded.close()
    # The facade plans with the default schedule; the answer cannot depend on it.
    index = Index.build(collection)
    check("Index.answer", [index.answer(Query(query, k=K, metric=metric)) for query in queries])
    check("Index.answer batch", index.answer(Query(queries, k=K, metric=metric, batch=True)))
