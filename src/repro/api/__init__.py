"""The unified search API: ``Index`` facade, declarative ``Query`` spec, and
the capability-driven backend planner.

This package is the single entry point the serving layers build on:

* :class:`~repro.api.query.Query` — a frozen, declarative description of one
  k-NN request (vector(s), k, metric, weights/subspace, accuracy mode, batch
  flag, trace request);
* :class:`~repro.api.index.Index` — owns the physical stores (row,
  decomposed, compressed), materialises them lazily, and answers queries;
* :class:`~repro.api.capabilities.Capabilities` /
  :class:`~repro.api.capabilities.BackendRegistry` — each physical searcher
  registers what it can do plus a cost-model hook;
* :class:`~repro.api.planner.QueryPlanner` — picks the cheapest capable
  backend; ``explain()`` renders the decision as a transcript;
* :class:`~repro.api.protocol.Searcher` — the uniform keyword-only protocol
  every underlying searcher satisfies.

See ``docs/API.md`` for the full tour and the old-call -> new-call migration
table.
"""

from repro.api.backends import (
    Backend,
    BondBackend,
    BUILTIN_BACKENDS,
    CompressedBondBackend,
    IVFBackend,
    RTreeBackend,
    SequentialScanBackend,
    VAFileBackend,
)
from repro.api.capabilities import (
    BackendRegistry,
    Capabilities,
    CostEstimate,
    DEFAULT_REGISTRY,
    register_backend,
)
from repro.api.index import Index
from repro.api.planner import Plan, PlanCandidate, QueryPlanner
from repro.api.protocol import Searcher
from repro.api.query import METRIC_ALIASES, QUERY_MODES, ApproxParams, Query

__all__ = [
    "ApproxParams",
    "BUILTIN_BACKENDS",
    "Backend",
    "BackendRegistry",
    "BondBackend",
    "Capabilities",
    "CompressedBondBackend",
    "CostEstimate",
    "DEFAULT_REGISTRY",
    "IVFBackend",
    "Index",
    "METRIC_ALIASES",
    "Plan",
    "PlanCandidate",
    "QUERY_MODES",
    "Query",
    "QueryPlanner",
    "RTreeBackend",
    "Searcher",
    "SequentialScanBackend",
    "VAFileBackend",
    "register_backend",
]
