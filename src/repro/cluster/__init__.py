"""``repro.cluster``: multi-core and multi-service deployment shapes.

Two layers, composable:

* **Process-pool shard execution** — the sharded engine of
  :mod:`repro.core.parallel` accepts ``executor="process"``: fragments are
  published once into ``multiprocessing.shared_memory``
  (:mod:`repro.cluster.shm`), worker processes attach zero-copy and build
  their shards from the same :class:`~repro.cluster.executor.EngineSpec`
  recipe the in-process executor uses (:mod:`repro.cluster.executor`), and
  per-shard results and explicit cost-account wire tuples come back to the
  parent's deterministic merge.  Answers and cost accounts are **bitwise
  identical** to the in-process executor for every backend and mode — exact,
  compressed, approx, and the live-tail overlay (which is applied in the
  parent, above the shard layer).  Through the facade: ``Index.build(data,
  shards=4, shard_executor="process")``.

* **Scatter-gather serving** — :class:`~repro.cluster.coordinator.ClusterCoordinator`
  partitions one collection into shard groups, runs one
  :class:`~repro.serving.SearchService` (over its own sub-``Index``) per
  group, scatters each submitted query to every member, and gathers the
  per-group top-k with the same score-then-ascending-OID merge — answers
  bitwise identical to one service over the whole collection, with
  aggregated ``stats()`` / ``health()`` and graceful member-failure
  degradation.

See the cluster section of ``docs/API.md`` for the shared-memory layout,
the worker lifecycle, coordinator semantics and the failure matrix.
"""

from repro.cluster.coordinator import ClusterCoordinator, ClusterHealth, ClusterStats
from repro.cluster.executor import EngineSpec, InProcessShardExecutor, ProcessShardExecutor
from repro.cluster.shm import (
    SEGMENT_PREFIX,
    AttachedStore,
    SharedStoreSegment,
    StoreSpec,
    attach_store,
)

__all__ = [
    "AttachedStore",
    "ClusterCoordinator",
    "ClusterHealth",
    "ClusterStats",
    "EngineSpec",
    "InProcessShardExecutor",
    "ProcessShardExecutor",
    "SEGMENT_PREFIX",
    "SharedStoreSegment",
    "StoreSpec",
    "attach_store",
]
