"""Search results and per-query execution statistics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine.cost import CostAccount


@dataclass
class PruningTrace:
    """The pruning curve of one query: candidate-set size per dimension.

    ``dimensions_processed[i]`` dimensions had been consumed when the
    candidate set held ``candidates_remaining[i]`` vectors.  This is the data
    behind Figures 4-11 of the paper (plotted there as "images pruned" or
    "images remaining" against processed dimensions).
    """

    dimensions_processed: list[int] = field(default_factory=list)
    candidates_remaining: list[int] = field(default_factory=list)

    def record(self, dimensions: int, candidates: int) -> None:
        """Append one point to the curve."""
        self.dimensions_processed.append(int(dimensions))
        self.candidates_remaining.append(int(candidates))

    def pruned_at(self, dimensions: int, *, total: int) -> int:
        """Number of vectors pruned once ``dimensions`` dimensions were done.

        Uses the last recorded point at or before ``dimensions``; before the
        first pruning attempt nothing has been pruned.
        """
        pruned = 0
        for step_dimensions, remaining in zip(self.dimensions_processed, self.candidates_remaining):
            if step_dimensions <= dimensions:
                pruned = total - remaining
            else:
                break
        return pruned

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The curve as two aligned numpy arrays."""
        return (
            np.asarray(self.dimensions_processed, dtype=np.int64),
            np.asarray(self.candidates_remaining, dtype=np.int64),
        )


@dataclass
class SearchResult:
    """Outcome of one k-NN query.

    Attributes
    ----------
    oids:
        OIDs of the k best vectors, best first.
    scores:
        Their aggregate scores (similarity or distance, matching the metric).
    dimensions_processed:
        How many dimension fragments contributed to partial scores before the
        search finished (<= N; the paper reports ~64 of 166 on average).
    full_scan_dimensions:
        How many of those were processed while the candidate set still
        covered (essentially) the whole collection, i.e. required a full
        fragment read.
    candidate_trace:
        The pruning curve (see :class:`PruningTrace`).
    cost:
        Work charged to the cost model while answering this query.
    elapsed_seconds:
        Wall-clock time of the search call.
    exact:
        Whether the result is guaranteed exact (True for every searcher in
        this package; present so approximate extensions can flag themselves).
    degraded:
        Whether the answer was computed over less than the whole collection
        (a sharded engine in ``on_shard_failure="partial"`` mode lost a
        shard).  A degraded top-k is the best answer over the *surviving*
        rows — never silently passed off as the global top-k.
    failed_shards:
        Shard indices that failed when :attr:`degraded` is set.
    backend / failed_over:
        Set by ``Index.answer``: the registry name of the backend that
        answered, and whether it substituted for the planned one after a
        failure (``None`` / ``False`` for a direct searcher call).
    """

    oids: np.ndarray
    scores: np.ndarray
    dimensions_processed: int = 0
    full_scan_dimensions: int = 0
    candidate_trace: PruningTrace = field(default_factory=PruningTrace)
    cost: CostAccount = field(default_factory=CostAccount)
    elapsed_seconds: float = 0.0
    exact: bool = True
    degraded: bool = False
    failed_shards: tuple[int, ...] = ()
    backend: str | None = None
    failed_over: bool = False

    def __post_init__(self) -> None:
        self.oids = np.asarray(self.oids, dtype=np.int64)
        self.scores = np.asarray(self.scores, dtype=np.float64)

    @property
    def k(self) -> int:
        """Number of returned neighbours."""
        return int(self.oids.shape[0])

    def oid_set(self) -> set[int]:
        """The returned OIDs as a set (for recall computations)."""
        return {int(oid) for oid in self.oids}

    def recall_against(self, reference: "SearchResult") -> float:
        """Fraction of the reference result's OIDs present in this result.

        Ties at the k-th score can make two exact searchers return different
        but equally good sets; callers that need strict equality should
        compare score multisets instead (see ``repro.workload.ground_truth``).
        """
        if reference.k == 0:
            return 1.0
        return len(self.oid_set() & reference.oid_set()) / reference.k


@dataclass
class BatchSearchResult:
    """Outcome of one multi-query batch, aligned with the query order.

    Fragment reads are shared across the queries of a batch, so storage
    traffic cannot be attributed to individual queries; the cost account and
    wall-clock time are therefore reported once for the whole batch and the
    per-query :class:`SearchResult` entries carry empty cost accounts.

    Attributes
    ----------
    results:
        One :class:`SearchResult` per query, in submission order.
    cost:
        Work charged to the cost model while answering the whole batch.
    elapsed_seconds:
        Wall-clock time of the batch call.
    backend / failed_over:
        As on :class:`SearchResult`, for the whole batch.
    """

    results: list[SearchResult]
    cost: CostAccount = field(default_factory=CostAccount)
    elapsed_seconds: float = 0.0
    backend: str | None = None
    failed_over: bool = False

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index: int) -> SearchResult:
        return self.results[index]

    @property
    def batch_size(self) -> int:
        """Number of queries answered."""
        return len(self.results)

    @property
    def degraded(self) -> bool:
        """Whether any per-query result is flagged degraded."""
        return any(result.degraded for result in self.results)
