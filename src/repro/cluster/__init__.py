"""``repro.cluster``: process-pool shard execution.

The sharded engine of :mod:`repro.core.parallel` accepts
``executor="process"``: fragments are published once into
``multiprocessing.shared_memory`` (:mod:`repro.cluster.shm`), worker
processes attach zero-copy and build their shards from the same
:class:`~repro.cluster.executor.EngineSpec` recipe the in-process executor
uses (:mod:`repro.cluster.executor`), and per-shard results and explicit
cost-account wire tuples come back to the parent's deterministic merge.
Answers and cost accounts are **bitwise identical** to the in-process
executor for every backend and mode — exact, compressed, approx, and the
live-tail overlay (which is applied in the parent, above the shard layer).
Through the facade: ``Index.build(data, shards=4, shard_executor="process")``;
served, that index sits under one :class:`~repro.serving.SearchService`
like any other.

See the cluster section of ``docs/API.md`` for the shared-memory layout,
the worker lifecycle and the failure matrix.
"""

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
    "EngineSpec",
    "InProcessShardExecutor",
    "ProcessShardExecutor",
    "SEGMENT_PREFIX",
    "SharedStoreSegment",
    "StoreSpec",
    "attach_store",
]
