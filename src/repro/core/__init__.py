"""The paper's contribution: BOND and the query variants built on it.

* :class:`~repro.core.bond.BondSearcher` — Algorithm 2, branch-and-bound k-NN
  over a vertically decomposed store, with pluggable metric, pruning bound,
  dimension ordering and pruning schedule;
* :class:`~repro.core.sequential.SequentialScan` — Algorithm 1, the SSH / SSE
  baselines;
* :mod:`~repro.core.ordering` — dimension-ordering strategies (Section 5.1);
* :mod:`~repro.core.planner` — pruning-period schedules (Section 5.2);
* :mod:`~repro.core.compressed` — BOND over 8-bit approximated fragments with
  exact refinement (Section 7.4);
* :mod:`~repro.core.weighted` / :mod:`~repro.core.subspace` — weighted and
  subspace k-NN (Section 8.1, Appendix A);
* :mod:`~repro.core.multifeature` — synchronized multi-feature search and the
  stream-merging baseline it is compared against (Section 8.2);
* :mod:`~repro.core.mil` — BOND expressed as the Section 6.1 MIL program over
  the engine algebra, for demonstrating the relational implementation;
* :mod:`~repro.core.batch` — the one round driver behind every fused
  ``search`` / ``search_batch`` (a single query is a batch of one);
* :mod:`~repro.core.parallel` — sharded execution
  (:class:`~repro.core.parallel.ShardedBondSearcher`, exact or compressed by
  the store it is given): each shard's own searcher, in this process or in
  worker processes, merged bitwise identical to the unsharded searchers.
"""

from repro.core.result import BatchSearchResult, SearchResult
from repro.core.ordering import (
    DataSkewOrdering,
    DecreasingQueryOrdering,
    DimensionOrdering,
    IncreasingQueryOrdering,
    OriginalOrdering,
    RandomOrdering,
)
from repro.core.planner import (
    FixedPeriodSchedule,
    GeometricSchedule,
    HandOffSchedule,
    MassAwareSchedule,
    PruningSchedule,
    recommend_period,
)
from repro.core.bond import BondSearcher
from repro.core.sequential import SequentialScan
from repro.core.compressed import CompressedBondSearcher
from repro.core.parallel import ShardedBondSearcher
from repro.core.weighted import weighted_search
from repro.core.subspace import subspace_search
from repro.core.multifeature import (
    FeatureComponent,
    MultiFeatureBondSearcher,
    StreamMergingSearcher,
)

__all__ = [
    "BatchSearchResult",
    "BondSearcher",
    "CompressedBondSearcher",
    "DataSkewOrdering",
    "DecreasingQueryOrdering",
    "DimensionOrdering",
    "FeatureComponent",
    "FixedPeriodSchedule",
    "GeometricSchedule",
    "HandOffSchedule",
    "MassAwareSchedule",
    "IncreasingQueryOrdering",
    "MultiFeatureBondSearcher",
    "OriginalOrdering",
    "PruningSchedule",
    "RandomOrdering",
    "SearchResult",
    "SequentialScan",
    "ShardedBondSearcher",
    "StreamMergingSearcher",
    "subspace_search",
    "recommend_period",
    "weighted_search",
]
