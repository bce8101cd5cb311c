"""Multi-feature (complex) queries (Section 8.2).

A multi-feature query scores every object against several query components,
each living in its own feature collection (colour, texture, ...), and
combines the per-component similarities with an aggregate (average, weighted
average, fuzzy min/max).  Two processing strategies are implemented:

* :class:`MultiFeatureBondSearcher` — the paper's proposal: treat the union
  of all components' dimensions as one large set and run a single
  *synchronized* branch-and-bound over it.  Per-component partial scores and
  bounds are maintained; the aggregate combines the per-component bounds into
  global bounds, which prune candidates across all components at once.  No
  per-stream k has to be guessed and no random accesses across streams are
  needed.

* :class:`StreamMergingSearcher` — the baseline: retrieve a ranked stream of
  results from each component independently (each stream produced by BOND on
  that component), merge them with a threshold algorithm in the style of
  Fagin / Güntzer et al., performing random accesses to fetch the missing
  component scores of newly seen objects, and deepen the streams when the
  stopping condition is not yet met.  Its weakness — the right stream depth is
  unknown in advance and random accesses are expensive — is exactly the
  motivation the paper gives for the synchronized method.

Distance metrics are converted to similarities with the transform of
Equation 3 so that components with different metrics can be aggregated on a
common scale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.bounds.base import PartialState, PruningBound
from repro.core.bond import BondSearcher, default_bound_for
from repro.core.ordering import DecreasingQueryOrdering
from repro.core.planner import FixedPeriodSchedule, PruningSchedule
from repro.core.result import PruningTrace, SearchResult
from repro.engine.cost import CostAccount
from repro.errors import QueryError
from repro.metrics.aggregates import ScoreAggregate
from repro.metrics.base import Metric, MetricKind
from repro.metrics.weighted import WeightedSquaredEuclidean
from repro.storage.decomposed import DecomposedStore


@dataclass
class FeatureComponent:
    """One component of a multi-feature query.

    Attributes
    ----------
    name:
        Label used in reports ("color", "texture", ...).
    store:
        The decomposed feature collection of this component.  All components
        must describe the same objects, i.e. share cardinality and OID space.
    metric:
        Similarity or distance metric for this component.
    bound:
        Pruning bound; defaults to the paper's recommendation for the metric.
    """

    name: str
    store: DecomposedStore
    metric: Metric
    bound: PruningBound | None = None

    def resolved_bound(self) -> PruningBound:
        """The pruning bound, falling back to the metric's default."""
        return self.bound if self.bound is not None else default_bound_for(self.metric)

    def to_similarity(self, scores: np.ndarray) -> np.ndarray:
        """Convert raw metric scores to similarities on a common [<=1] scale."""
        if self.metric.kind is MetricKind.SIMILARITY:
            return np.asarray(scores, dtype=np.float64)
        normalizer = self._distance_normalizer()
        return 1.0 - np.sqrt(np.clip(np.asarray(scores, dtype=np.float64), 0.0, None) / normalizer)

    def similarity_interval(
        self, lower_scores: np.ndarray, upper_scores: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Convert (lower, upper) metric-score bounds to similarity bounds."""
        if self.metric.kind is MetricKind.SIMILARITY:
            return np.asarray(lower_scores, dtype=np.float64), np.asarray(upper_scores, dtype=np.float64)
        # For distances the transform is decreasing: a distance upper bound
        # becomes a similarity lower bound and vice versa.
        return self.to_similarity(upper_scores), self.to_similarity(lower_scores)

    def _distance_normalizer(self) -> float:
        if isinstance(self.metric, WeightedSquaredEuclidean):
            return float(self.metric.weights.sum())
        return float(self.store.dimensionality)


class MultiFeatureBondSearcher:
    """Synchronized dimension-wise branch-and-bound over several feature sets."""

    def __init__(
        self,
        components: list[FeatureComponent],
        aggregate: ScoreAggregate,
        *,
        schedule: PruningSchedule | None = None,
    ) -> None:
        if not components:
            raise QueryError("a multi-feature query needs at least one component")
        cardinality = components[0].store.cardinality
        for component in components[1:]:
            if component.store.cardinality != cardinality:
                raise QueryError("all feature collections must describe the same objects")
        self._components = components
        self._aggregate = aggregate
        self._schedule = schedule if schedule is not None else FixedPeriodSchedule(16)
        self._cardinality = cardinality

    def search(self, queries: list[np.ndarray], k: int) -> SearchResult:
        """Return the k objects with the best aggregated similarity.

        ``queries`` holds one query vector per component, in component order.
        """
        started = time.perf_counter()
        if len(queries) != len(self._components):
            raise QueryError("one query vector per component is required")
        if k <= 0:
            raise QueryError("k must be at least 1")
        k = min(k, self._cardinality)

        queries = [
            component.metric.validate_query(query)
            for component, query in zip(self._components, queries)
        ]
        checkpoints = [component.store.cost.checkpoint() for component in self._components]

        # Global processing order: (component, dimension) pairs, most skewed
        # query coefficients first, normalised per component so a component
        # with many dimensions does not dominate the schedule.
        schedule_entries = self._global_order(queries)
        total_steps = len(schedule_entries)

        oids = np.arange(self._cardinality, dtype=np.int64)
        component_states = [
            _ComponentState(component, query, self._cardinality)
            for component, query in zip(self._components, queries)
        ]
        trace = PruningTrace()
        trace.record(0, len(oids))

        processed = 0
        next_attempt = self._schedule.first_batch(total_steps)
        while processed < total_steps and len(oids) > k and next_attempt > processed:
            component_index, dimension = schedule_entries[processed]
            component_states[component_index].consume(dimension, oids)
            processed += 1

            if processed >= next_attempt or processed == total_steps:
                before = len(oids)
                keep = self._prune_mask(component_states, oids, k)
                if keep is not None:
                    oids = oids[keep]
                    for state in component_states:
                        state.restrict(keep)
                trace.record(processed, len(oids))
                next_attempt = processed + self._schedule.next_batch(
                    dimensionality=total_steps,
                    dimensions_processed=processed,
                    candidates_before=before,
                    candidates_after=len(oids),
                )

        oid_result, scores = self._finalize(component_states, oids, queries, k)
        cost = CostAccount()
        for component, checkpoint in zip(self._components, checkpoints):
            cost = cost.merged_with(component.store.cost.since(checkpoint))
        return SearchResult(
            oids=oid_result,
            scores=scores,
            dimensions_processed=processed,
            full_scan_dimensions=processed,
            candidate_trace=trace,
            cost=cost,
            elapsed_seconds=time.perf_counter() - started,
        )

    # -- internals ----------------------------------------------------------------

    def _global_order(self, queries: list[np.ndarray]) -> list[tuple[int, int]]:
        entries: list[tuple[float, int, int]] = []
        for component_index, (component, query) in enumerate(zip(self._components, queries)):
            weights = (
                component.metric.weights
                if isinstance(component.metric, WeightedSquaredEuclidean)
                else None
            )
            order = DecreasingQueryOrdering().order(query, weights=weights)
            if weights is not None:
                order = order[weights[order] > 0.0]
            dimensionality = max(1, order.shape[0])
            for rank, dimension in enumerate(order):
                # Normalised rank interleaves components fairly regardless of
                # their dimensionality.
                entries.append((rank / dimensionality, component_index, int(dimension)))
        entries.sort(key=lambda entry: entry[0])
        return [(component_index, dimension) for _, component_index, dimension in entries]

    def _prune_mask(
        self, component_states: list["_ComponentState"], oids: np.ndarray, k: int
    ) -> np.ndarray | None:
        count = oids.shape[0]
        if count <= k:
            return None
        lower_bounds = []
        upper_bounds = []
        for state in component_states:
            lower, upper = state.similarity_bounds()
            lower_bounds.append(lower)
            upper_bounds.append(upper)
        global_lower, global_upper = self._aggregate.combine_bounds(lower_bounds, upper_bounds)
        for state in component_states:
            state.component.store.cost.charge_comparisons(count)
        kappa = float(np.partition(global_lower, count - k)[count - k])
        keep = global_upper >= kappa
        return keep

    def _finalize(
        self,
        component_states: list["_ComponentState"],
        oids: np.ndarray,
        queries: list[np.ndarray],
        k: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        if oids.shape[0] == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        similarities = [state.exact_similarity(oids) for state in component_states]
        global_scores = self._aggregate.combine(similarities)
        best = np.argsort(-global_scores, kind="stable")[:k]
        return oids[best], global_scores[best]


class _ComponentState:
    """Per-component partial scores and bookkeeping of the synchronized search."""

    def __init__(self, component: FeatureComponent, query: np.ndarray, cardinality: int) -> None:
        self.component = component
        self.query = query
        self.bound = component.resolved_bound()
        weights = (
            component.metric.weights
            if isinstance(component.metric, WeightedSquaredEuclidean)
            else None
        )
        self.weights = weights
        order = DecreasingQueryOrdering().order(query, weights=weights)
        self.order = order
        self._order_position = {int(dimension): position for position, dimension in enumerate(order)}
        self.partial_scores = np.zeros(cardinality, dtype=np.float64)
        self.partial_value_sums = (
            np.zeros(cardinality, dtype=np.float64) if self.bound.needs_partial_value_sums else None
        )
        if self.bound.needs_remaining_value_sums:
            component.store.materialize_row_sums()
            self.remaining_value_sums = component.store.row_sums().tail.astype(np.float64).copy()
        else:
            self.remaining_value_sums = None
        self.processed_dimensions: list[int] = []

    def consume(self, dimension: int, oids: np.ndarray) -> None:
        """Accumulate one dimension of this component for the surviving OIDs."""
        store = self.component.store
        fragment = store.fragment(dimension)
        values = fragment.tail[oids]
        contributions = self.component.metric.contributions(
            values, self.query[dimension], dimension=dimension
        )
        store.cost.charge_arithmetic(len(oids) * self.component.metric.arithmetic_ops_per_value())
        self.partial_scores = self._aligned(self.partial_scores, oids.shape[0])
        self.partial_scores += contributions
        if self.partial_value_sums is not None:
            self.partial_value_sums = self._aligned(self.partial_value_sums, oids.shape[0])
            self.partial_value_sums += values
        if self.remaining_value_sums is not None:
            self.remaining_value_sums = self._aligned(self.remaining_value_sums, oids.shape[0])
            self.remaining_value_sums -= values
        self.processed_dimensions.append(dimension)

    @staticmethod
    def _aligned(array: np.ndarray, length: int) -> np.ndarray:
        if array.shape[0] != length:
            raise QueryError("component state lost alignment with the candidate list")
        return array

    def restrict(self, keep_mask: np.ndarray) -> None:
        """Drop pruned candidates from this component's arrays."""
        self.partial_scores = self.partial_scores[keep_mask]
        if self.partial_value_sums is not None:
            self.partial_value_sums = self.partial_value_sums[keep_mask]
        if self.remaining_value_sums is not None:
            self.remaining_value_sums = self.remaining_value_sums[keep_mask]

    def _partial_state(self) -> PartialState:
        processed = np.asarray(self.processed_dimensions, dtype=np.int64)
        remaining = np.setdiff1d(
            np.arange(self.query.shape[0], dtype=np.int64), processed, assume_unique=False
        )
        order = np.concatenate([processed, remaining])
        return PartialState(
            query=self.query,
            order=order,
            num_processed=processed.shape[0],
            partial_scores=self.partial_scores,
            partial_value_sums=self.partial_value_sums,
            remaining_value_sums=self.remaining_value_sums,
            weights=self.weights,
        )

    def similarity_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Global-score bounds of this component, on the similarity scale."""
        lower, upper = self.bound.total_bounds(self._partial_state())
        return self.component.similarity_interval(lower, upper)

    def exact_similarity(self, oids: np.ndarray) -> np.ndarray:
        """Exact component similarity of the surviving candidates."""
        store = self.component.store
        vectors = store.gather_matrix(oids)
        scores = self.component.metric.score(vectors, self.query)
        store.cost.charge_arithmetic(vectors.size * self.component.metric.arithmetic_ops_per_value())
        return self.component.to_similarity(scores)


class StreamMergingSearcher:
    """Threshold-style merging of per-component ranked streams (the baseline).

    Each component's stream is produced by running BOND on that component
    alone with a guessed retrieval depth; when the merge cannot terminate with
    the retrieved depth, the streams are deepened (doubling), repeating the
    per-stream work — the cost behaviour the paper holds against this
    architecture.  Random accesses fetch the missing component scores of
    objects seen in only some streams.
    """

    def __init__(
        self,
        components: list[FeatureComponent],
        aggregate: ScoreAggregate,
        *,
        initial_depth: int | None = None,
        maximum_depth: int | None = None,
    ) -> None:
        if not components:
            raise QueryError("a multi-feature query needs at least one component")
        self._components = components
        self._aggregate = aggregate
        self._initial_depth = initial_depth
        self._maximum_depth = maximum_depth
        self._cardinality = components[0].store.cardinality

    def search(self, queries: list[np.ndarray], k: int) -> SearchResult:
        """Return the k objects with the best aggregated similarity."""
        started = time.perf_counter()
        if len(queries) != len(self._components):
            raise QueryError("one query vector per component is required")
        if k <= 0:
            raise QueryError("k must be at least 1")
        k = min(k, self._cardinality)
        checkpoints = [component.store.cost.checkpoint() for component in self._components]

        depth = self._initial_depth if self._initial_depth is not None else max(4 * k, 32)
        maximum_depth = self._maximum_depth if self._maximum_depth is not None else self._cardinality
        result_oids: np.ndarray | None = None
        result_scores: np.ndarray | None = None

        while True:
            depth = min(depth, maximum_depth)
            streams = self._retrieve_streams(queries, depth)
            merged = self._threshold_merge(streams, queries, k)
            if merged is not None or depth >= maximum_depth:
                if merged is None:
                    merged = self._exhaustive_merge(queries, k)
                result_oids, result_scores = merged
                break
            depth *= 2

        cost = CostAccount()
        for component, checkpoint in zip(self._components, checkpoints):
            cost = cost.merged_with(component.store.cost.since(checkpoint))
        return SearchResult(
            oids=result_oids,
            scores=result_scores,
            dimensions_processed=sum(component.store.dimensionality for component in self._components),
            full_scan_dimensions=0,
            cost=cost,
            elapsed_seconds=time.perf_counter() - started,
        )

    # -- internals ----------------------------------------------------------------

    def _retrieve_streams(
        self, queries: list[np.ndarray], depth: int
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-component ranked (oids, similarities) streams of the given depth."""
        streams = []
        for component, query in zip(self._components, queries):
            searcher = BondSearcher(
                component.store, metric=component.metric, bound=component.resolved_bound()
            )
            result = searcher.search(query, depth)
            streams.append((result.oids, component.to_similarity(result.scores)))
        return streams

    def _component_similarity(self, component_index: int, oid: int, query: np.ndarray) -> float:
        """Random-access the similarity of one object in one component."""
        component = self._components[component_index]
        vector = component.store.gather_matrix(np.asarray([oid]))
        score = component.metric.score(vector, query)[0]
        component.store.cost.charge_arithmetic(
            vector.size * component.metric.arithmetic_ops_per_value()
        )
        return float(component.to_similarity(np.asarray([score]))[0])

    def _threshold_merge(
        self,
        streams: list[tuple[np.ndarray, np.ndarray]],
        queries: list[np.ndarray],
        k: int,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Fagin-style threshold algorithm over the retrieved streams.

        Returns ``None`` when the streams were too shallow to prove the top-k
        complete (the caller then deepens the streams and retries).
        """
        num_components = len(streams)
        seen: dict[int, np.ndarray] = {}
        global_scores: dict[int, float] = {}
        positions = [0] * num_components
        depth = min(stream[0].shape[0] for stream in streams)

        for rank in range(depth):
            frontier = np.empty(num_components, dtype=np.float64)
            for component_index, (oids, similarities) in enumerate(streams):
                oid = int(oids[rank])
                frontier[component_index] = similarities[rank]
                positions[component_index] = rank
                if oid not in global_scores:
                    component_scores = np.empty(num_components, dtype=np.float64)
                    for other_index in range(num_components):
                        other_oids, other_similarities = streams[other_index]
                        # Random access unless the object already appeared in
                        # that stream's retrieved prefix.
                        located = np.nonzero(other_oids == oid)[0]
                        if located.shape[0]:
                            component_scores[other_index] = other_similarities[located[0]]
                        else:
                            component_scores[other_index] = self._component_similarity(
                                other_index, oid, queries[other_index]
                            )
                    seen[oid] = component_scores
                    global_scores[oid] = float(
                        self._aggregate.combine([np.asarray([value]) for value in component_scores])[0]
                    )
            if len(global_scores) >= k:
                threshold = float(
                    self._aggregate.combine([np.asarray([value]) for value in frontier])[0]
                )
                best = sorted(global_scores.items(), key=lambda item: -item[1])[:k]
                if best[-1][1] >= threshold:
                    oids = np.asarray([oid for oid, _ in best], dtype=np.int64)
                    scores = np.asarray([score for _, score in best], dtype=np.float64)
                    return oids, scores
        return None

    def _exhaustive_merge(self, queries: list[np.ndarray], k: int) -> tuple[np.ndarray, np.ndarray]:
        """Fallback when even full-depth streams cannot prove termination."""
        similarities = []
        for component, query in zip(self._components, queries):
            vectors = component.store.gather_matrix(np.arange(self._cardinality, dtype=np.int64))
            scores = component.metric.score(vectors, query)
            similarities.append(component.to_similarity(scores))
        global_scores = self._aggregate.combine(similarities)
        best = np.argsort(-global_scores, kind="stable")[:k]
        return best.astype(np.int64), global_scores[best]
