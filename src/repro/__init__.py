"""BOND: efficient k-NN search on vertically decomposed data.

A from-scratch reproduction of de Vries, Mamoulis, Nes & Kersten,
"Efficient k-NN Search on Vertically Decomposed Data", ACM SIGMOD 2002.

The package re-exports the user-facing entry points; see README.md for a
quickstart and docs/API.md for the facade.

Typical usage (the unified facade; see docs/API.md)::

    from repro import Index, Query, make_corel_like

    histograms = make_corel_like(cardinality=10_000, dimensionality=166)
    index = Index.build(histograms)
    result = index.answer(Query(histograms[42], k=10, metric="histogram"))
    print(result.oids, result.scores)

The physical layer stays available for direct use::

    from repro import BondSearcher, DecomposedStore, HistogramIntersection

    searcher = BondSearcher(DecomposedStore(histograms), metric=HistogramIntersection())
    result = searcher.search(histograms[42], k=10)
"""

from repro.api import (
    ApproxParams,
    Capabilities,
    Index,
    Plan,
    Query,
    QueryPlanner,
    Searcher,
)
from repro.approx import ApproxConfig
from repro.baselines import RTreeIndex, VAFile
from repro.bounds import (
    EqBound,
    EvBound,
    HhBound,
    HqBound,
    PartialState,
    PruningBound,
    WeightedEuclideanBound,
)
from repro.core import (
    BatchSearchResult,
    BondSearcher,
    CompressedBondSearcher,
    DataSkewOrdering,
    DecreasingQueryOrdering,
    FeatureComponent,
    FixedPeriodSchedule,
    GeometricSchedule,
    IncreasingQueryOrdering,
    MassAwareSchedule,
    MultiFeatureBondSearcher,
    RandomOrdering,
    SearchResult,
    SequentialScan,
    StreamMergingSearcher,
    subspace_search,
    weighted_search,
)
from repro.datasets import (
    ClusteredCollection,
    describe_dataset,
    make_clustered,
    make_clustered_collection,
    make_corel_like,
    make_skewed_weights,
    make_subspace_weights,
)
from repro.engine import CostModel
from repro.errors import (
    BackendError,
    CorruptFragmentError,
    DeadlineExceeded,
    FailoverExhausted,
    ManifestVersionError,
    PlanError,
    QueryError,
    QueueFull,
    ReproError,
    ServiceClosed,
    ServingError,
    StorageError,
    TransientBackendError,
)
from repro.reliability import (
    CircuitBreaker,
    FaultPlan,
    FaultSpec,
    RetryBudget,
    RetryPolicy,
    fault_point,
)
from repro.metrics import (
    AverageAggregate,
    EuclideanSimilarity,
    FuzzyMaxAggregate,
    FuzzyMinAggregate,
    HistogramIntersection,
    SquaredEuclidean,
    WeightedAverageAggregate,
    WeightedSquaredEuclidean,
)
from repro.serving import (
    FifoAdmission,
    OverlapAdmission,
    SearchService,
    ServiceHealth,
    ServingConfig,
    ServingStats,
)
from repro.storage import (
    CompressedStore,
    DecomposedStore,
    RowStore,
    load_decomposed,
    save_decomposed,
)
from repro.workload import (
    ArrivalSchedule,
    QueryWorkload,
    burst_arrivals,
    exact_top_k,
    poisson_arrivals,
    sample_queries,
)

__version__ = "1.0.0"

__all__ = [
    "ApproxConfig",
    "ApproxParams",
    "ArrivalSchedule",
    "AverageAggregate",
    "BackendError",
    "BatchSearchResult",
    "burst_arrivals",
    "BondSearcher",
    "Capabilities",
    "CircuitBreaker",
    "ClusteredCollection",
    "CorruptFragmentError",
    "CompressedBondSearcher",
    "CompressedStore",
    "CostModel",
    "DataSkewOrdering",
    "DecomposedStore",
    "DeadlineExceeded",
    "DecreasingQueryOrdering",
    "describe_dataset",
    "EqBound",
    "EuclideanSimilarity",
    "EvBound",
    "exact_top_k",
    "FailoverExhausted",
    "fault_point",
    "FaultPlan",
    "FaultSpec",
    "FeatureComponent",
    "FifoAdmission",
    "FixedPeriodSchedule",
    "FuzzyMaxAggregate",
    "FuzzyMinAggregate",
    "GeometricSchedule",
    "HhBound",
    "HistogramIntersection",
    "HqBound",
    "IncreasingQueryOrdering",
    "Index",
    "load_decomposed",
    "ManifestVersionError",
    "make_clustered",
    "make_clustered_collection",
    "make_corel_like",
    "make_skewed_weights",
    "make_subspace_weights",
    "MassAwareSchedule",
    "MultiFeatureBondSearcher",
    "OverlapAdmission",
    "PartialState",
    "Plan",
    "PlanError",
    "poisson_arrivals",
    "PruningBound",
    "Query",
    "QueryError",
    "QueryPlanner",
    "QueryWorkload",
    "QueueFull",
    "RandomOrdering",
    "ReproError",
    "RetryBudget",
    "RetryPolicy",
    "RowStore",
    "RTreeIndex",
    "sample_queries",
    "save_decomposed",
    "Searcher",
    "SearchResult",
    "SearchService",
    "SequentialScan",
    "ServiceClosed",
    "ServiceHealth",
    "ServingConfig",
    "ServingError",
    "ServingStats",
    "SquaredEuclidean",
    "StorageError",
    "StreamMergingSearcher",
    "subspace_search",
    "TransientBackendError",
    "VAFile",
    "weighted_search",
    "WeightedAverageAggregate",
    "WeightedEuclideanBound",
    "WeightedSquaredEuclidean",
    "__version__",
]
