"""Epoch snapshots: the unit of atomic publication for live mutability.

An :class:`Epoch` bundles everything whose consistency a query depends on —
the base stores of one committed generation, the shard plan over them, the
approximate-tier structures built against them, the searcher cache bound to
them, and the current delta tail.  The :class:`~repro.api.index.Index`
serves queries by *pinning* the current epoch for the duration of one
answer (a thread-local reference plus a refcount), and mutations publish a
new state with a single attribute assignment — atomic under the GIL — so
the answer path takes **no locks** and a reorganisation swapping the whole
epoch never tears a query that started on the old one.

Two kinds of publication happen here:

* updates replace ``epoch.tail`` (a fresh immutable
  :class:`~repro.mutability.tail.TailState`) on the live epoch;
* ``reorganize()`` replaces the index's epoch reference wholesale with the
  next generation.

Readers copy the reference(s) they need once and work off the copies; the
refcount (``pins``) exists for introspection and tests — correctness never
waits on it.
"""

from __future__ import annotations

import threading

from repro.mutability.tail import TailState


class Epoch:
    """One generation's worth of index state, swapped atomically as a unit."""

    def __init__(
        self,
        *,
        generation: int,
        base_cardinality: int,
        dimensionality: int,
        tail: TailState,
    ) -> None:
        self.generation = int(generation)
        self.base_cardinality = int(base_cardinality)
        self.dimensionality = int(dimensionality)
        #: The live delta tail; replaced (never mutated) on insert/delete.
        self.tail = tail
        # -- lazily materialised per-epoch state (built by the Index) -------
        self.input = None          # ingested matrix (None on the open path)
        self.vectors = None        # widened-quantised logical matrix cache
        self.row_store = None
        self.decomposed = None
        self.compressed = None
        self.shard_plan = None
        self.cluster_plan = None
        self.ivf_partitions = None
        self.approx_records = None  # persisted sidecar records (open path)
        self.approx_dir = None
        #: Searcher cache keyed by (backend name, metric spec); searchers
        #: hold references to this epoch's stores, so the cache dies with it.
        self.searchers: dict = {}
        self._pin_lock = threading.Lock()
        self._pins = 0
        self._on_idle = None

    @property
    def pins(self) -> int:
        """Number of queries currently pinned to this epoch."""
        with self._pin_lock:
            return self._pins

    def acquire(self) -> "Epoch":
        """Pin this epoch (one reader entered)."""
        with self._pin_lock:
            self._pins += 1
        return self

    def release(self) -> None:
        """Unpin this epoch (one reader left)."""
        with self._pin_lock:
            self._pins -= 1
            callback = self._on_idle if self._pins <= 0 else None
            if callback is not None:
                self._on_idle = None
        if callback is not None:
            callback()

    def retire(self, on_idle) -> None:
        """Run ``on_idle`` once the last pinned reader leaves.

        A superseded epoch may still be serving queries that pinned it
        before the swap; resources bound to it (process pools, shared-memory
        segments held by cached sharded engines) must not be torn down under
        them.  ``retire`` defers the cleanup to the last :meth:`release` —
        or runs it immediately when nothing is pinned.  The callback fires
        exactly once, outside the pin lock.
        """
        with self._pin_lock:
            if self._pins > 0:
                self._on_idle = on_idle
                return
        on_idle()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Epoch gen={self.generation} |{self.base_cardinality}| "
            f"tail={self.tail.live_tail_count}/-{self.tail.deleted_base_count} "
            f"pins={self.pins}>"
        )
