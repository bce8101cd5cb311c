"""Contiguous row sharding of the physical stores.

The BOND scan is embarrassingly parallel across rows: every candidate's
partial score depends only on its own coefficients, so the collection can be
cut into contiguous row ranges — *shards* — and each shard searched by an
independent engine.  A :class:`ShardPlan` fixes the cut points and
:func:`shard_view` cuts one shard's exact store, whose OIDs are local to the
shard (global OID = local OID + shard start) and which charges a **private**
:class:`~repro.engine.cost.CostModel` so concurrent workers never race on the
lock-free charging hot path.  A shard's searcher is
:class:`repro.cluster.executor.EngineSpec`'s to build; the engine in
:mod:`repro.core.parallel` merges the per-shard accounts into the parent model
after the shards finish.  Only the exact engine is sharded: a compressed
query on a sharded index runs unsharded.

Shards are **contiguous** row ranges in collection order, so per-shard
candidate lists stay ascending in global OID order and the deterministic
merge tie-break (ascending OID among equal scores, in the direction
:meth:`~repro.metrics.base.Metric.best_first` defines) reproduces the
unsharded ranking exactly: sharded results are bitwise identical to the
single-store engine.

The plan serialises into the persistence manifest
(:meth:`ShardPlan.to_manifest`), so ``Index.open`` restores the exact layout
an index was built with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import StorageError
from repro.storage.decomposed import DecomposedStore


@dataclass(frozen=True)
class ShardPlan:
    """Contiguous row partition of a collection into balanced shards.

    Attributes
    ----------
    cardinality:
        Number of rows being partitioned.
    boundaries:
        ``num_shards + 1`` ascending cut points; shard ``i`` covers rows
        ``[boundaries[i], boundaries[i + 1])``.  The first boundary is 0 and
        the last equals ``cardinality``, so the shards tile the collection
        exactly once.
    """

    cardinality: int
    boundaries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.cardinality < 1:
            raise StorageError("a shard plan needs at least one row")
        if len(self.boundaries) < 2:
            raise StorageError("a shard plan needs at least one shard")
        if self.boundaries[0] != 0 or self.boundaries[-1] != self.cardinality:
            raise StorageError(
                f"shard boundaries must run from 0 to {self.cardinality}, got {self.boundaries}"
            )
        if any(b <= a for a, b in zip(self.boundaries, self.boundaries[1:])):
            raise StorageError(f"shard boundaries must be strictly ascending: {self.boundaries}")

    @classmethod
    def balanced(cls, cardinality: int, shards: int) -> "ShardPlan":
        """Split ``cardinality`` rows into ``shards`` near-equal contiguous runs.

        The first ``cardinality % shards`` shards get one extra row, so shard
        sizes differ by at most one.  ``shards`` is clamped to the row count
        (a shard must hold at least one row).
        """
        if cardinality < 1:
            raise StorageError("a shard plan needs at least one row")
        if shards < 1:
            raise StorageError("a shard plan needs at least one shard")
        shards = min(shards, cardinality)
        base, extra = divmod(cardinality, shards)
        boundaries = [0]
        for shard in range(shards):
            boundaries.append(boundaries[-1] + base + (1 if shard < extra else 0))
        return cls(cardinality=cardinality, boundaries=tuple(boundaries))

    @property
    def num_shards(self) -> int:
        """Number of shards in the plan."""
        return len(self.boundaries) - 1

    @property
    def ranges(self) -> tuple[tuple[int, int], ...]:
        """The ``(start, stop)`` row range of every shard, in order."""
        return tuple(zip(self.boundaries, self.boundaries[1:]))

    @property
    def starts(self) -> tuple[int, ...]:
        """The start row (global-OID offset) of every shard."""
        return self.boundaries[:-1]

    def rows(self, shard: int) -> int:
        """Number of rows in one shard."""
        start, stop = self.ranges[shard]
        return stop - start

    def shard_of(self, oid: int) -> int:
        """The shard holding a global OID."""
        if oid < 0 or oid >= self.cardinality:
            raise StorageError(f"OID {oid} outside collection of size {self.cardinality}")
        return int(np.searchsorted(np.asarray(self.boundaries), oid, side="right")) - 1

    def to_manifest(self) -> dict:
        """JSON-serialisable description, the persistence-manifest entry."""
        return {
            "cardinality": self.cardinality,
            "boundaries": [int(boundary) for boundary in self.boundaries],
        }

    @classmethod
    def from_manifest(cls, manifest: dict) -> "ShardPlan":
        """Rebuild a plan from :meth:`to_manifest` output (validated)."""
        try:
            cardinality = int(manifest["cardinality"])
            boundaries = tuple(int(boundary) for boundary in manifest["boundaries"])
        except (KeyError, TypeError, ValueError) as error:
            raise StorageError(f"malformed shard-plan manifest: {manifest!r}") from error
        return cls(cardinality=cardinality, boundaries=boundaries)


def shard_view(store: DecomposedStore, plan: ShardPlan, shard: int) -> DecomposedStore:
    """The exact store of one shard of ``plan``: a zero-copy row slice of ``store``.

    Its fragment tails are contiguous views of the parent's columns — a slice
    of a contiguous column is itself contiguous, so the decomposed physical
    layout survives — and its row-sum column is a slice of the parent's
    (per-row sums do not depend on the row subset, so slicing equals
    recomputing bit for bit).  Memory-mapped parents shard without faulting a
    single coefficient in, and narrow parents shard without re-quantising.
    The view charges a private cost model, so concurrent shard searches never
    contend on the parent's counters.
    """
    if plan.cardinality != store.cardinality:
        raise StorageError(
            f"shard plan covers {plan.cardinality} rows, the store holds {store.cardinality}"
        )
    start, stop = plan.ranges[shard]
    return DecomposedStore.row_slice(store, start, stop, name=f"{store.name}.shard{shard}")
