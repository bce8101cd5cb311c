"""The registered physical backends the planner chooses between.

Each backend adapts one existing searcher to the uniform facade surface:

=================  ==============================================  =========
registry name      underlying searcher                             modes
=================  ==============================================  =========
bond               :class:`repro.core.bond.BondSearcher`           exact
sharded_bond       :class:`repro.core.parallel.ShardedBondSearcher`  exact
sequential_scan    :class:`repro.core.sequential.SequentialScan`   exact
rtree              :class:`repro.baselines.rtree.RTreeIndex`       exact
compressed_bond    :class:`repro.core.compressed.CompressedBondSearcher`  compressed
vafile             :class:`repro.baselines.vafile.VAFile`          compressed
ivf                :class:`repro.approx.ivf.IVFSearcher`           approx
=================  ==============================================  =========

(every exact backend additionally serves ``approx``, where the planner is
free to pick the globally cheapest estimate — an exact answer is simply
recall 1.0.  The converse never holds: ``ivf`` declares ``exact=False`` and
is only ever eligible for ``mode="approx"``.)

A backend contributes three things: a :class:`~repro.api.capabilities.Capabilities`
declaration, a ``create()`` hook building the underlying searcher from an
:class:`~repro.api.index.Index`'s lazily materialised stores, and an
``estimate()`` cost-model hook the planner ranks candidates by.  The
estimates are deliberately simple closed forms over collection shape — they
only need to get the *ranking* right (BOND beats a scan, the compressed
filter beats a VA-file scan, an R-tree only wins in low dimensions), which is
exactly the knowledge the paper's measurements establish.

Every ``answer()`` passes through the ``backend.answer`` fault point with the
backend's name and the index's current store *generation* as context, so a
deterministic :class:`~repro.reliability.faults.FaultPlan` can target (say)
"the first sharded answer after the reorganisation committed generation 2"
when rehearsing failover under live updates.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

import numpy as np

from repro.api.capabilities import Capabilities, CostEstimate, register_backend
from repro.approx.ivf import IVFSearcher, effective_nprobe
from repro.baselines.rtree import RTreeIndex
from repro.baselines.vafile import VAFile
from repro.core.bond import BondSearcher
from repro.core.compressed import CompressedBondSearcher
from repro.core.parallel import ShardedBondSearcher
from repro.core.result import BatchSearchResult, PruningTrace, SearchResult
from repro.core.sequential import SequentialScan
from repro.engine.cost import COMPRESSED_BYTES, DOUBLE_BYTES, OID_BYTES
from repro.metrics.base import Metric
from repro.reliability.faults import fault_point

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.index import Index
    from repro.api.query import Query

#: Fraction of the full fragment volume BOND is expected to touch before the
#: candidate set collapses (the paper reports ~64 of 166 dimensions
#: contributing, with most candidates pruned inside the first periods).
BOND_PRUNE_FRACTION = 0.45

#: Shared-read discount for natively batched engines: per additional query in
#: a batch, only about half the fragment traffic is new (the full-bitmap
#: phase — where most bytes move — is read once per round for all queries).
BATCH_SHARE_FACTOR = 0.5


def _batch_read_factor(batch_size: int, *, shared: bool) -> float:
    """How many single-query read volumes a batch of ``batch_size`` costs."""
    if batch_size <= 1:
        return 1.0
    if shared:
        return 1.0 + BATCH_SHARE_FACTOR * (batch_size - 1)
    return float(batch_size)


def _effective_dimensions(query: "Query", dimensionality: int) -> int:
    """Dimensions whose fragments the decomposed engines actually touch."""
    if query.subspace is not None:
        return int(query.subspace.size)
    if query.weights is not None:
        return int(np.count_nonzero(query.weights))
    return dimensionality


def _format_note(index: "Index") -> str:
    """Estimate-detail suffix naming a non-default fragment format.

    Exact-fragment estimates scale their ``bytes_read`` by the format's
    coefficient width (a float32 store streams half the bytes of a float64
    one), and ``explain()`` should say so; the default format adds nothing,
    keeping the historical transcripts byte-identical.
    """
    fragment_format = index.format
    if fragment_format.is_identity and not fragment_format.is_mapped:
        return ""
    return (
        f"; {fragment_format.spec} fragments at "
        f"{fragment_format.coefficient_bytes} B/coefficient"
    )


class Backend(abc.ABC):
    """One physical search method, registered with its capabilities."""

    capabilities: Capabilities
    #: Execution-engine label reported by ``explain()``.
    engine: str = "-"
    #: Whether the searcher's ``search`` / ``search_batch`` take ``exclude=``.
    excludes_natively: bool = False

    @property
    def name(self) -> str:
        """Registry name (from the capabilities descriptor)."""
        return self.capabilities.backend

    def rejection_reason(self, query: "Query", metric: Metric) -> str | None:
        """Why this backend cannot serve ``query`` (``None`` when it can)."""
        caps = self.capabilities
        if query.mode not in caps.modes:
            return f"does not serve mode {query.mode!r} (serves {sorted(caps.modes)})"
        if query.is_weighted and not caps.weighted:
            return "weighted queries not supported"
        if query.is_subspace and not caps.subspace:
            return "subspace queries not supported"
        if caps.metrics and metric.name not in caps.metrics:
            return f"metric {metric.name!r} not supported (supports {sorted(caps.metrics)})"
        return None

    @abc.abstractmethod
    def estimate(self, index: "Index", query: "Query", metric: Metric) -> CostEstimate:
        """Cost-model hook: pre-execution estimate for the whole query."""

    @abc.abstractmethod
    def create(self, index: "Index", metric: Metric):
        """Build the underlying searcher on the index's stores."""

    def answer(
        self, index: "Index", query: "Query", metric: Metric, *, exclude=None
    ) -> SearchResult | BatchSearchResult:
        """Execute ``query`` through the (cached) underlying searcher.

        Single-vector queries go through ``search`` and batches through
        ``search_batch`` with the *same* arguments a direct call would use,
        which is what keeps facade answers bitwise identical to direct
        searcher calls.

        ``exclude`` holds ascending OIDs to leave out (a live index's deleted
        base rows).  A searcher that takes ``exclude=`` drops them inside its
        scan; the others search at ``k + len(exclude)`` — enough even if every
        excluded row ranks in the top-k — and filter.
        """
        fault_point(
            "backend.answer", backend=self.name, generation=getattr(index, "generation", 0)
        )
        searcher = index.searcher_for(self, query, metric)
        if exclude is None or not len(exclude):
            return self._search(searcher, query, query.k)
        if self.excludes_natively:
            return self._search(searcher, query, query.k, exclude=exclude)
        answer = self._search(searcher, query, min(query.k + len(exclude), index.cardinality))
        for result in answer.results if isinstance(answer, BatchSearchResult) else [answer]:
            found = exclude[np.searchsorted(exclude, result.oids).clip(max=len(exclude) - 1)]
            keep = found != result.oids
            index.cost.charge_comparisons(int(keep.shape[0]))
            result.oids, result.scores = metric.merge_top_k(
                result.oids[keep], result.scores[keep], query.k
            )
        return answer

    def _search(self, searcher, query: "Query", k: int, **options):
        """One ``search`` (single vector) or ``search_batch`` (batch) call."""
        if query.is_batch:
            return searcher.search_batch(query.query_matrix, k, **options)
        trace = PruningTrace() if query.trace else None
        return searcher.search(query.single_vector, k, trace=trace, **options)

    def score_rows(
        self, index: "Index", query: "Query", metric: Metric, columns: np.ndarray
    ) -> np.ndarray:
        """The ``(n_queries, n_rows)`` scores of rows held outside the index,
        given as ``(dimensions, n_rows)`` float64 columns — bitwise what this
        backend's searches score the rows inside one (the live tail overlay
        rests on this).  Nothing is charged.  Default: the metric's score of
        row-major rows, as the refine steps, the scan and the R-tree compute
        it."""
        rows = np.ascontiguousarray(columns.T)
        return np.stack([metric.score(rows, vector) for vector in query.query_matrix])


class BondBackend(Backend):
    """Branch-and-bound over the exact decomposed fragments (Algorithm 2)."""

    capabilities = Capabilities(
        backend="bond",
        description="branch-and-bound over exact decomposed fragments",
        metrics=frozenset(
            {"histogram_intersection", "squared_euclidean", "weighted_squared_euclidean"}
        ),
        modes=frozenset({"exact", "approx"}),
        weighted=True,
        subspace=True,
        batched=True,
        compressed=False,
        exact=True,
    )
    engine = "fused"
    excludes_natively = True

    def estimate(self, index: "Index", query: "Query", metric: Metric) -> CostEstimate:
        n = index.cardinality
        effective = _effective_dimensions(query, index.dimensionality)
        reads = _batch_read_factor(query.batch_size, shared=True)
        bytes_read = BOND_PRUNE_FRACTION * n * effective * index.format.coefficient_bytes * reads
        ops = BOND_PRUNE_FRACTION * n * effective * query.batch_size
        return CostEstimate(
            bytes_read=bytes_read,
            arithmetic_ops=ops,
            detail=f"~{BOND_PRUNE_FRACTION:.0%} of {effective} fragments before pruning converges"
            + _format_note(index),
        )

    def create(self, index: "Index", metric: Metric) -> BondSearcher:
        return BondSearcher(index.decomposed, metric=metric)

    def score_rows(self, index, query, metric, columns):
        """The searcher's own kernel fold (:meth:`BondSearcher.score_rows`)."""
        return index.searcher_for(self, query, metric).score_rows(query.query_matrix, columns)


class SequentialScanBackend(Backend):
    """Algorithm 1: full scan of the horizontal table (SSH / SSE)."""

    capabilities = Capabilities(
        backend="sequential_scan",
        description="full scan of the horizontal table with a k-best heap",
        metrics=frozenset(),  # metric-generic: anything with score()
        modes=frozenset({"exact", "approx"}),
        weighted=True,
        subspace=True,
        batched=True,
        compressed=False,
        exact=True,
    )
    engine = "scan"

    def estimate(self, index: "Index", query: "Query", metric: Metric) -> CostEstimate:
        n, d = index.cardinality, index.dimensionality
        # One pass serves the whole batch (the scan is query-independent),
        # but every query scores every row.
        return CostEstimate(
            bytes_read=float(n * d * index.format.coefficient_bytes),
            arithmetic_ops=float(n * d * query.batch_size),
            detail="every coefficient of every vector, once per batch" + _format_note(index),
        )

    def create(self, index: "Index", metric: Metric) -> SequentialScan:
        return SequentialScan(index.row_store, metric=metric)


class RTreeBackend(Backend):
    """STR bulk-loaded R-tree with best-first k-NN (the Section 2 SAM)."""

    capabilities = Capabilities(
        backend="rtree",
        description="STR-packed R-tree, best-first MINDIST traversal",
        metrics=frozenset({"squared_euclidean"}),
        modes=frozenset({"exact", "approx"}),
        weighted=False,
        subspace=False,
        batched=False,
        compressed=False,
        exact=True,
    )
    engine = "best-first"

    #: Dimensionality at which bounding-box overlap makes the traversal
    #: visit essentially the whole tree (the Section 2 breakdown).
    BREAKDOWN_DIMENSIONALITY = 16

    def estimate(self, index: "Index", query: "Query", metric: Metric) -> CostEstimate:
        n, d = index.cardinality, index.dimensionality
        visited = min(1.0, d / self.BREAKDOWN_DIMENSIONALITY)
        reads = _batch_read_factor(query.batch_size, shared=False)
        return CostEstimate(
            bytes_read=1.3 * visited * n * d * DOUBLE_BYTES * reads,
            arithmetic_ops=2.0 * visited * n * d * query.batch_size,
            detail=f"expects to visit ~{visited:.0%} of the tree at {d} dimensions",
        )

    def create(self, index: "Index", metric: Metric) -> RTreeIndex:
        return RTreeIndex(index.vectors, cost=index.cost)


class CompressedBondBackend(Backend):
    """BOND filter on 8-bit fragments plus exact refinement (Section 7.4)."""

    capabilities = Capabilities(
        backend="compressed_bond",
        description="branch-and-bound filter on 8-bit fragments + exact refine",
        metrics=frozenset(
            {
                "histogram_intersection",
                "squared_euclidean",
                "euclidean_similarity",
                "weighted_squared_euclidean",
            }
        ),
        modes=frozenset({"compressed", "approx"}),
        weighted=True,
        subspace=True,
        batched=True,
        compressed=True,
        exact=True,
    )
    engine = "fused"

    def estimate(self, index: "Index", query: "Query", metric: Metric) -> CostEstimate:
        n = index.cardinality
        d = index.dimensionality
        effective = _effective_dimensions(query, d)
        reads = _batch_read_factor(query.batch_size, shared=True)
        survivors = max(8 * query.k, int(0.005 * n))
        filter_bytes = BOND_PRUNE_FRACTION * n * effective * COMPRESSED_BYTES * reads
        refine_bytes = survivors * d * index.format.coefficient_bytes * query.batch_size
        # Interval accumulation maintains a lower AND an upper partial score.
        ops = 2.0 * BOND_PRUNE_FRACTION * n * effective * query.batch_size
        return CostEstimate(
            bytes_read=filter_bytes + refine_bytes,
            arithmetic_ops=ops,
            detail=f"1-byte filter + exact refine of ~{survivors} survivors",
        )

    def create(self, index: "Index", metric: Metric) -> CompressedBondSearcher:
        return CompressedBondSearcher(index.compressed, metric=metric)


class ShardedBondBackend(Backend):
    """Row-sharded parallel BOND: the fused batch engine per shard, merged.

    :class:`~repro.core.parallel.ShardedBondSearcher` over the index's
    decomposed store, for ``exact`` / ``approx`` queries.  It does not serve
    ``compressed``: the 8-bit filter does so little work per row that a
    split only adds each shard's fixed cost and the merge, so a compressed
    query on a sharded index is answered unsharded by ``compressed_bond``.
    Results are bitwise identical to the unsharded engine (deterministic
    top-k merge), so the planner may substitute this backend freely
    whenever its estimate wins.
    """

    capabilities = Capabilities(
        backend="sharded_bond",
        description="row-sharded parallel BOND (one searcher per shard, merged top-k)",
        metrics=frozenset(
            {"histogram_intersection", "squared_euclidean", "weighted_squared_euclidean"}
        ),
        modes=frozenset({"exact", "approx"}),
        weighted=True,
        subspace=True,
        batched=True,
        compressed=False,
        exact=True,
    )
    engine = "sharded"

    #: Per-shard, per-query coordination charge (round dispatch, pool
    #: hand-off) in arithmetic-op equivalents.  Keeps a one-shard plan from
    #: ever undercutting the unsharded engines: with nothing to parallelise,
    #: the sharded backend estimates strictly worse than ``bond``, which is
    #: exactly when it should lose.
    COORDINATION_OPS = 2_000.0

    #: Extra per-shard, per-query charge of the process executor: pickling
    #: the query / result / cost wire across the worker pipe costs real work
    #: a thread hand-off does not.  Keeps the planner honest about
    #: ``shard_executor="process"`` on small collections, where serialisation
    #: rivals the scan itself.
    PROCESS_SCATTER_OPS = 8_000.0

    def estimate(self, index: "Index", query: "Query", metric: Metric) -> CostEstimate:
        """Critical-path estimate: one shard's scan volume plus the merge.

        The estimate prices the shards as if they ran concurrently: its read
        volume is the per-shard share of the unsharded engine's traffic (the
        paper's pruning behaviour is row-local and survives sharding).  Only
        a batch a process index scatters to its worker pool runs that way; a
        thread index's shards, and a process index's batches below
        :data:`~repro.core.parallel.POOL_MIN_BATCH`, run one after another on
        the calling thread, so for them the estimate is optimistic.  On top
        sit the top-k merge (``shards * k`` candidates per query re-ranked in
        the parent) and a fixed per-shard coordination charge.
        """
        n = index.cardinality
        effective = _effective_dimensions(query, index.dimensionality)
        shards = index.shard_plan.num_shards
        reads = _batch_read_factor(query.batch_size, shared=True)
        scan_bytes = (
            BOND_PRUNE_FRACTION * n * effective * index.format.coefficient_bytes * reads / shards
        )
        scan_ops = BOND_PRUNE_FRACTION * n * effective * query.batch_size / shards
        merge_candidates = float(query.batch_size * shards * query.k)
        merge_bytes = merge_candidates * (DOUBLE_BYTES + OID_BYTES)
        coordination = self.COORDINATION_OPS * shards * query.batch_size
        detail = f"critical path of {shards} parallel shards + top-k merge"
        if getattr(index, "shard_executor", "thread") == "process":
            coordination += self.PROCESS_SCATTER_OPS * shards * query.batch_size
            detail += " (process workers)"
        return CostEstimate(
            bytes_read=scan_bytes + merge_bytes,
            arithmetic_ops=scan_ops + merge_candidates + coordination,
            detail=detail,
        )

    def create(self, index: "Index", metric: Metric) -> ShardedBondSearcher:
        return ShardedBondSearcher(
            index.decomposed,
            metric=metric,
            shards=index.shard_plan,
            on_shard_failure=index.on_shard_failure,
            executor=index.shard_executor,
        )

    def score_rows(self, index, query, metric, columns):
        """The shard searchers' kernel fold, as ``bond`` scores rows."""
        searcher = index.searcher_for(self, query, metric)
        return searcher.shard_searchers[0].score_rows(query.query_matrix, columns)


class VAFileBackend(Backend):
    """Full VA-file approximation scan plus exact refinement."""

    capabilities = Capabilities(
        backend="vafile",
        description="full VA-file approximation scan + exact refine",
        metrics=frozenset(
            {
                "histogram_intersection",
                "squared_euclidean",
                "euclidean_similarity",
                "weighted_squared_euclidean",
            }
        ),
        modes=frozenset({"compressed", "approx"}),
        weighted=True,
        subspace=True,
        batched=True,
        compressed=True,
        exact=True,
    )
    engine = "filter+refine"

    def estimate(self, index: "Index", query: "Query", metric: Metric) -> CostEstimate:
        n, d = index.cardinality, index.dimensionality
        survivors = max(8 * query.k, int(0.005 * n))
        # The approximation pass reads every code regardless of the query, so
        # a batch shares one pass; refinement is per query.
        return CostEstimate(
            bytes_read=float(n * d * COMPRESSED_BYTES)
            + survivors * d * index.format.coefficient_bytes * query.batch_size,
            arithmetic_ops=2.0 * n * d * query.batch_size,
            detail=f"full approximation scan + exact refine of ~{survivors} survivors",
        )

    def create(self, index: "Index", metric: Metric) -> VAFile:
        return VAFile(index.compressed, metric=metric)


class IVFBackend(Backend):
    """Clustered pruning: BOND fused kernels over ``nprobe`` k-means partitions.

    The paper's filter-and-refine idea generalised from dimensions to rows:
    a seeded k-means :class:`~repro.approx.cluster.ClusterPlan` remaps the
    collection into contiguous per-cluster stores, and each probed partition
    runs the unchanged fused BOND engine.  ``exact=False``: the result is
    exact only when every non-empty partition was probed (the searcher flags
    that case itself).
    """

    capabilities = Capabilities(
        backend="ivf",
        description="seeded k-means clustered pruning, fused BOND per partition",
        metrics=frozenset({"squared_euclidean"}),
        modes=frozenset({"approx"}),
        weighted=False,
        subspace=False,
        batched=True,
        compressed=False,
        exact=False,
    )
    engine = "ivf+fused"

    @staticmethod
    def _knobs(index: "Index", query: "Query") -> tuple[int, int]:
        """Resolve ``(nprobe, n_clusters)`` from the query and build config."""
        config = index.approx_config
        n_clusters = config.resolve_n_clusters(index.cardinality)
        params = query.approx_params
        nprobe = effective_nprobe(
            params.nprobe if params is not None else None,
            params.target_recall if params is not None else None,
            n_clusters=n_clusters,
            default=config.default_nprobe,
        )
        return nprobe, n_clusters

    def estimate(self, index: "Index", query: "Query", metric: Metric) -> CostEstimate:
        n, d = index.cardinality, index.dimensionality
        nprobe, n_clusters = self._knobs(index, query)
        fraction = nprobe / n_clusters
        reads = _batch_read_factor(query.batch_size, shared=True)
        # Centroid scan (once per batch) + the probed share of the fused
        # BOND traffic; pruning behaviour inside a partition matches the
        # unsharded engine's.
        centroid_bytes = float(n_clusters * d * DOUBLE_BYTES)
        scan_bytes = fraction * BOND_PRUNE_FRACTION * n * d * index.format.coefficient_bytes * reads
        ops = (
            2.0 * n_clusters * d * query.batch_size
            + fraction * BOND_PRUNE_FRACTION * n * d * query.batch_size
        )
        return CostEstimate(
            bytes_read=centroid_bytes + scan_bytes,
            arithmetic_ops=ops,
            detail=f"probes {nprobe}/{n_clusters} partitions (~{fraction:.0%} of rows)"
            + _format_note(index),
        )

    def create(self, index: "Index", metric: Metric) -> IVFSearcher:
        return IVFSearcher(
            index.ivf_partitions,
            metric=metric,
            default_nprobe=index.approx_config.default_nprobe,
        )

    def score_rows(self, index, query, metric, columns):
        """The partitions' own kernel fold (:meth:`IVFSearcher.score_rows`)."""
        return index.searcher_for(self, query, metric).score_rows(query.query_matrix, columns)

    def _search(self, searcher, query: "Query", k: int, **options):
        """Search with the query's ``approx_params`` knobs threaded through."""
        params = query.approx_params
        return super()._search(
            searcher,
            query,
            k,
            nprobe=params.nprobe if params is not None else None,
            target_recall=params.target_recall if params is not None else None,
            **options,
        )


#: The built-in backends, in planner tie-break order (the paper's preferred
#: methods first).
BUILTIN_BACKENDS = tuple(
    register_backend(backend)
    for backend in (
        BondBackend(),
        CompressedBondBackend(),
        ShardedBondBackend(),
        SequentialScanBackend(),
        VAFileBackend(),
        RTreeBackend(),
        IVFBackend(),
    )
)
