"""IVF clustered pruning: scan only the ``nprobe`` nearest partitions.

The searcher is deliberately thin: all heavy machinery is reused unchanged.
The permuted collection is a :class:`~repro.storage.decomposed.DecomposedStore`
assembled with :meth:`~repro.storage.decomposed.DecomposedStore.from_fragments`
(so narrow dtypes and memory-mapped residency survive the remapping), every
partition is a zero-copy
:meth:`~repro.storage.decomposed.DecomposedStore.row_slice` of it, each
partition is answered by the stock fused
:class:`~repro.core.bond.BondSearcher`, all charging flows through the one
shared :class:`~repro.engine.cost.CostModel`, and the per-partition top-k
sets merge with the same deterministic score-then-ascending-OID rule as the
sharded engine (:meth:`repro.metrics.base.Metric.merge_top_k`).

Exactness: probing every non-empty partition *is* the exact search — the
partitions tile the collection, per-row scores are partition-independent,
and the merge tie-break equals the global one (cluster members are stored in
ascending OID order) — so ``nprobe >= n_clusters`` returns the exact tier's
answer OID for OID and flags ``exact=True``.  Fewer probes trade recall for
a proportionally smaller scan volume and flag ``exact=False``.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.approx.cluster import ClusterPlan
from repro.core.bond import BondSearcher
from repro.core.result import BatchSearchResult, SearchResult
from repro.engine.cost import CostModel, DOUBLE_BYTES
from repro.errors import QueryError
from repro.metrics.base import Metric
from repro.storage.decomposed import DecomposedStore


def effective_nprobe(
    nprobe: int | None, target_recall: float | None, *, n_clusters: int, default: int
) -> int:
    """Resolve the query knobs to a concrete probe count.

    An explicit ``nprobe`` wins.  A ``target_recall`` maps conservatively:
    ``1.0`` forces the exhaustive (exact-equivalent) configuration, lower
    floors scale the probe count with the square of the target — monotone in
    the target and deliberately generous, since the contract is a floor, not
    a point estimate.  With neither knob the build-time default applies.
    """
    if nprobe is not None:
        return max(1, min(int(nprobe), n_clusters))
    if target_recall is not None:
        if target_recall >= 1.0:
            return n_clusters
        return max(1, min(n_clusters, math.ceil(n_clusters * target_recall**2)))
    return max(1, min(default, n_clusters))


class IVFPartitions:
    """The metric-independent physical side of the IVF backend.

    Owns the cluster plan, the permuted store and the per-partition slices;
    cached once per :class:`~repro.api.index.Index` and shared by every
    metric's :class:`IVFSearcher`.
    """

    def __init__(
        self,
        store: DecomposedStore,
        plan: ClusterPlan,
        *,
        cost: CostModel,
        name: str = "collection",
    ) -> None:
        if plan.cardinality != store.cardinality:
            raise QueryError(
                f"cluster plan covers {plan.cardinality} rows, the store holds {store.cardinality}"
            )
        self._plan = plan
        self._cost = cost
        permutation = plan.permutation
        # Permute each fragment tail in the store's own dtype; from_fragments
        # re-applies the format (a mapped store spills the permuted tails to
        # a fresh mapping), so formats thread through unchanged.
        tails = [store.fragment_tail(dim)[permutation] for dim in range(store.dimensionality)]
        row_sum_tail = np.asarray(store.materialize_row_sums().tail)[permutation]
        self._permuted = DecomposedStore.from_fragments(
            tails,
            format=store.format,
            cost=cost,
            name=f"{name}.ivf",
            row_sum_tail=row_sum_tail,
        )
        self._slices: dict[int, DecomposedStore] = {}

    @property
    def plan(self) -> ClusterPlan:
        """The cluster plan the partitions realise."""
        return self._plan

    @property
    def permuted_store(self) -> DecomposedStore:
        """The cluster-contiguous remapping of the collection."""
        return self._permuted

    def partition_store(self, cluster: int) -> DecomposedStore:
        """The zero-copy slice holding one (non-empty) cluster's rows."""
        store = self._slices.get(cluster)
        if store is None:
            start = int(self._plan.offsets[cluster])
            stop = int(self._plan.offsets[cluster + 1])
            store = DecomposedStore.row_slice(self._permuted, start, stop, cost=self._cost)
            self._slices[cluster] = store
        return store


class IVFSearcher:
    """Per-metric IVF search over shared :class:`IVFPartitions`."""

    def __init__(
        self,
        partitions: IVFPartitions,
        *,
        metric: Metric,
        default_nprobe: int = 4,
    ) -> None:
        self._partitions = partitions
        self._plan = partitions.plan
        self._metric = metric
        self._default_nprobe = default_nprobe
        self._searchers: dict[int, BondSearcher] = {}
        self._cost = partitions._cost

    @property
    def plan(self) -> ClusterPlan:
        """The cluster plan driving partition selection."""
        return self._plan

    def _partition_searcher(self, cluster: int) -> BondSearcher:
        searcher = self._searchers.get(cluster)
        if searcher is None:
            searcher = BondSearcher(self._partitions.partition_store(cluster), metric=self._metric)
            self._searchers[cluster] = searcher
        return searcher

    def score_rows(self, queries: np.ndarray, columns: np.ndarray) -> np.ndarray:
        """The ``(n_queries, n_rows)`` scores of rows held outside the
        partitions, given as ``(dimensions, n_rows)`` float64 columns.  Every
        partition searcher folds a row in the same query-only dimension order
        (:meth:`BondSearcher.score_rows`), so any one of them scores it bitwise
        as a probe of the partition holding it would.  Nothing is charged."""
        return self._partition_searcher(0).score_rows(queries, columns)

    def _resolve_nprobe(self, nprobe: int | None, target_recall: float | None) -> int:
        return effective_nprobe(
            nprobe,
            target_recall,
            n_clusters=self._plan.n_clusters,
            default=self._default_nprobe,
        )

    def _charge_centroid_scan(self, batch_size: int) -> None:
        plan = self._plan
        self._cost.charge_block_scan(plan.n_clusters, plan.dimensionality, DOUBLE_BYTES)
        self._cost.charge_arithmetic(2 * plan.n_clusters * plan.dimensionality * batch_size)

    def _merge(self, parts: list[tuple[np.ndarray, np.ndarray]], k: int) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic score-then-ascending-OID merge of partition top-k sets."""
        oids = np.concatenate([part[0] for part in parts])
        scores = np.concatenate([part[1] for part in parts])
        self._cost.charge_comparisons(len(oids))
        return self._metric.merge_top_k(oids, scores, k)

    def search(
        self,
        query: np.ndarray,
        k: int,
        *,
        nprobe: int | None = None,
        target_recall: float | None = None,
        trace=None,
    ) -> SearchResult:
        """Top-k over the ``nprobe`` partitions nearest to ``query``."""
        started = time.perf_counter()
        snapshot = self._cost.snapshot()
        probes = self._resolve_nprobe(nprobe, target_recall)
        self._charge_centroid_scan(1)
        order = self._plan.probe_order(np.asarray(query, dtype=np.float64))
        probed = order[:probes]
        exact = len(probed) == len(order)
        parts: list[tuple[np.ndarray, np.ndarray]] = []
        dimensions_processed = 0
        full_scan_dimensions = 0
        for cluster in probed:
            cluster = int(cluster)
            start = int(self._plan.offsets[cluster])
            local = self._partition_searcher(cluster).search(query, k)
            parts.append((self._plan.permutation[start + local.oids], local.scores))
            dimensions_processed = max(dimensions_processed, local.dimensions_processed)
            full_scan_dimensions = max(full_scan_dimensions, local.full_scan_dimensions)
        oids, scores = self._merge(parts, k)
        return SearchResult(
            oids=oids,
            scores=scores,
            dimensions_processed=dimensions_processed,
            full_scan_dimensions=full_scan_dimensions,
            cost=self._cost.delta_since(snapshot),
            elapsed_seconds=time.perf_counter() - started,
            exact=exact,
        )

    def search_batch(
        self,
        queries: np.ndarray,
        k: int,
        *,
        nprobe: int | None = None,
        target_recall: float | None = None,
    ) -> BatchSearchResult:
        """Batched variant: queries probing the same partition share its scan."""
        started = time.perf_counter()
        snapshot = self._cost.snapshot()
        queries = np.asarray(queries, dtype=np.float64)
        probes = self._resolve_nprobe(nprobe, target_recall)
        self._charge_centroid_scan(queries.shape[0])
        per_query_parts: list[list[tuple[np.ndarray, np.ndarray]]] = [
            [] for _ in range(queries.shape[0])
        ]
        exact = True
        # Group queries by probed partition so each partition runs one fused
        # batch over exactly the queries that selected it.
        by_cluster: dict[int, list[int]] = {}
        for position in range(queries.shape[0]):
            order = self._plan.probe_order(queries[position])
            probed = order[:probes]
            exact = exact and len(probed) == len(order)
            for cluster in probed:
                by_cluster.setdefault(int(cluster), []).append(position)
        for cluster in sorted(by_cluster):
            positions = by_cluster[cluster]
            start = int(self._plan.offsets[cluster])
            batch = self._partition_searcher(cluster).search_batch(queries[positions], k)
            for position, local in zip(positions, batch.results):
                per_query_parts[position].append(
                    (self._plan.permutation[start + local.oids], local.scores)
                )
        results = []
        for parts in per_query_parts:
            oids, scores = self._merge(parts, k)
            results.append(SearchResult(oids=oids, scores=scores, exact=exact))
        return BatchSearchResult(
            results=results,
            cost=self._cost.delta_since(snapshot),
            elapsed_seconds=time.perf_counter() - started,
        )
