"""Physical designs for a collection of feature vectors.

The paper's central idea is a *physical database design* choice: store an
``|X| x N`` collection of feature vectors not as one wide table (the N-ary
Storage Model used by the sequential-scan baselines) but as N single-dimension
fragments (the Decomposition Storage Model, "vertical fragmentation"), each a
BAT of ``(vector id, coefficient)`` pairs with a virtual dense head.

Three stores are provided:

* :class:`~repro.storage.decomposed.DecomposedStore` — the vertically
  fragmented layout BOND runs on, immutable, with per-fragment access,
  multi-fragment block gathers and storage accounting;
* :class:`~repro.storage.rowstore.RowStore` — the conventional horizontal
  layout used by sequential scan (SSH / SSE) and as the refinement source for
  the VA-file;
* :class:`~repro.storage.compressed.CompressedStore` — 8-bit scalar-quantised
  dimension fragments (the approximation of Section 7.4 / Figure 9), with the
  exact store retained for the refinement step.

:mod:`~repro.storage.sharding` cuts either store into contiguous row shards
(:class:`~repro.storage.sharding.ShardPlan`) for the parallel engines of
:mod:`repro.core.parallel`.

Every store takes a :class:`~repro.storage.formats.FragmentFormat`
(coefficient dtype float64/float32/float16 x residency ram/mmap) controlling
how fragments are materialised — see :mod:`repro.storage.formats` for the
identity-vs-tolerance contract.
"""

from repro.storage.decomposed import DecomposedStore
from repro.storage.formats import DEFAULT_FORMAT, FragmentFormat
from repro.storage.rowstore import RowStore
from repro.storage.compressed import CompressedFragment, CompressedStore
from repro.storage.persistence import (
    fragment_checksum,
    load_decomposed,
    load_manifest,
    manifest_format,
    save_decomposed,
)
from repro.storage.sharding import ShardPlan, shard_view

__all__ = [
    "CompressedFragment",
    "CompressedStore",
    "DecomposedStore",
    "DEFAULT_FORMAT",
    "FragmentFormat",
    "fragment_checksum",
    "load_decomposed",
    "load_manifest",
    "manifest_format",
    "RowStore",
    "save_decomposed",
    "ShardPlan",
    "shard_view",
]
