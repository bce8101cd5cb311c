"""The :class:`Index` facade: one object that owns the stores and answers
declarative queries.

An :class:`Index` wraps a feature-vector collection and lazily materialises
every physical representation a registered backend might need — the
horizontal :class:`~repro.storage.rowstore.RowStore`, the vertically
decomposed :class:`~repro.storage.decomposed.DecomposedStore`, and the 8-bit
:class:`~repro.storage.compressed.CompressedStore` — against a single shared
cost model.  ``answer(query)`` plans the query with the capability-driven
:class:`~repro.api.planner.QueryPlanner` and executes it on the chosen
backend; ``explain(query)`` shows the decision without executing anything.

Typical usage::

    from repro.api import Index, Query

    index = Index.build(histograms, name="corel")
    result = index.answer(Query(histograms[42], k=10, metric="histogram"))
    print(index.explain(Query(histograms[42], k=10, mode="compressed")))

Facade answers are **bitwise identical** to direct searcher calls: the
backends construct the underlying searchers with exactly the defaults a
direct caller would get and invoke the same ``search`` / ``search_batch``
entry points (the equivalence suite in ``tests/test_api_facade.py`` pins
this for every registered backend and mode).

Live mutability
---------------

``insert(rows)`` / ``delete(oids)`` mutate the collection while it serves:
updates accumulate in an in-memory delta tail
(:class:`~repro.mutability.tail.TailState`, the paper's Section 6.2
differential file) that every ``answer`` overlays exactly on the chosen
backend's base answer — deleted base rows left out by the backend's own
answer, live tail rows scored by the backend's own row scorer and merged
through the stack's deterministic score-then-OID tie-break — so an
updated index answers **bitwise identically** to one rebuilt from scratch at
the same logical state.  ``reorganize()`` merges the tail into fresh base
fragments and publishes them as a new epoch with a single atomic reference
swap: in-flight queries pin the epoch they started on, so serving never
stops and never reads a torn state.

When the index is *attached* to a directory (``save`` attaches, ``open``
re-attaches), every update is written to a checksummed write-ahead log and
fsynced **before** it is acknowledged, and ``reorganize()`` commits the
merged fragments as a new manifest generation (temp + fsync + atomic
rename).  ``open`` recovers by loading the newest committed generation and
replaying the WAL suffix beyond the manifest's watermark — a kill at any
instant yields the state as of some acknowledged prefix of updates, never a
torn store and never a wrong answer.  An unattached (purely in-memory)
index supports the same operations without the durability.
"""

from __future__ import annotations

import contextlib
import pathlib
import threading

import numpy as np

from repro.api.capabilities import BackendRegistry
from repro.api.planner import Plan, QueryPlanner
from repro.api.query import Query
from repro.approx import ApproxConfig, ClusterPlan, IVFPartitions, build_cluster_plan
from repro.cluster.shm import decompose_shared
from repro.core.parallel import check_shard_options
from repro.core.result import BatchSearchResult, SearchResult
from repro.engine.cost import CostModel
from repro.errors import (
    BackendError,
    FailoverExhausted,
    QueryError,
    StorageError,
    TransientBackendError,
)
from repro.metrics.base import Metric
from repro.mutability.epoch import Epoch
from repro.mutability.overlay import overlay_answer
from repro.mutability.tail import TailState
from repro.mutability.wal import OP_INSERT, WriteAheadLog, read_wal, wal_token
from repro.reliability.retry import BreakerState, CircuitBreaker
from repro.storage.compressed import CompressedStore
from repro.storage.decomposed import DecomposedStore
from repro.storage.formats import FragmentFormat
from repro.storage.persistence import (
    MANIFEST_NAME,
    approx_sidecar_records,
    load_approx_array,
    load_decomposed,
    load_manifest,
    manifest_mutability,
    next_generation,
    save_decomposed,
)
from repro.storage.rowstore import RowStore
from repro.storage.sharding import ShardPlan

# Importing the backends module registers the built-ins with the default
# registry; the import is for its side effect.
import repro.api.backends  # noqa: F401

#: File name of the write-ahead log inside an attached store directory.
WAL_NAME = "wal.log"


#: Rows per block of the finiteness check: 1,024 rows x 166 float64
#: dimensions is ~1.3 MB, so ``max`` re-reads what ``min`` left in cache.
_FINITE_CHECK_ROWS = 1024


def _require_finite(rows: np.ndarray) -> None:
    """Reject NaN and inf coefficients, like ``Metric.validate_query``: NaN
    compares False, so a NaN row would slip past pruning into answers and
    rank differently before and after a reorganisation.  NaN propagates
    through ``min`` and ``max`` and each infinity shows in one of them; a
    block of rows small enough to stay in cache is read from memory once."""
    for start in range(0, rows.shape[0], _FINITE_CHECK_ROWS):
        block = rows[start : start + _FINITE_CHECK_ROWS]
        if not (np.isfinite(block.min()) and np.isfinite(block.max())):
            raise QueryError("vector coefficients must be finite (found NaN or inf)")


def _attributed(result, backend: str, *, failed_over: bool):
    """Stamp which backend produced ``result`` (and each query of a batch)."""
    parts = result.results if isinstance(result, BatchSearchResult) else ()
    for each in (result, *parts):
        each.backend = backend
        each.failed_over = failed_over
    return result


class Index:
    """Facade over one vector collection and every way of searching it.

    Parameters
    ----------
    vectors:
        The ``|X| x N`` matrix of feature vectors.
    name:
        Label used in store names and persisted manifests.
    bits:
        Bits per coefficient of the lazily built compressed representation
        (the paper uses 8).
    cost:
        Shared cost model every store and backend charges; a private model is
        created when omitted, so all work done through one index accumulates
        in one place.
    registry:
        Backend registry to plan against (defaults to the built-ins).
    shards:
        Row-shard count of the parallel ``sharded_bond`` backend (default 1:
        unsharded, so the single-store engines keep winning the plan); it
        shards exact queries only, compressed ones run unsharded.  The
        resulting balanced :class:`~repro.storage.sharding.ShardPlan` is
        persisted in the manifest by :meth:`save` and restored by
        :meth:`open`.
    on_shard_failure:
        Shard-failure policy of the sharded engines: ``"fail"`` (default)
        re-raises a failed shard's error, ``"partial"`` merges the surviving
        shards into a flagged degraded answer (see
        :class:`~repro.core.parallel.ShardedBondSearcher`).
    format:
        The :class:`~repro.storage.formats.FragmentFormat` (or its
        ``"float32/mmap"``-style spec) of the physical stores.  The default
        ``float64/ram`` preserves the ingested values bit for bit; narrow
        dtypes quantise once at ingest and every backend then answers over
        the float64-widened quantised collection (see the
        :mod:`repro.storage.formats` contract).  Persisted by :meth:`save`
        and restored by :meth:`open`.
    approx:
        The :class:`~repro.approx.ApproxConfig` (or a mapping of its fields)
        of the approximate tier: IVF cluster count, k-means budget and seed,
        and the default probe count.  The structure itself builds lazily on
        first ``mode="approx"`` use; once built it is persisted by
        :meth:`save` (manifest v4+ sidecar arrays) and reopened lazily by
        :meth:`open`.
    """

    def __init__(
        self,
        vectors: np.ndarray,
        *,
        name: str = "collection",
        bits: int = 8,
        cost: CostModel | None = None,
        registry: BackendRegistry | None = None,
        shards: int = 1,
        on_shard_failure: str = "fail",
        shard_executor: str = "thread",
        format: "FragmentFormat | str | None" = None,
        approx: "ApproxConfig | dict | None" = None,
    ) -> None:
        matrix = np.asarray(vectors, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] == 0 or matrix.shape[1] == 0:
            raise QueryError(f"an index needs a non-empty 2-D vector matrix, got {matrix.shape}")
        _require_finite(matrix)
        self._setup(
            name=name,
            bits=bits,
            cost=cost,
            registry=registry,
            shards=shards,
            on_shard_failure=on_shard_failure,
            shard_executor=shard_executor,
            format=FragmentFormat.coerce(format),
            approx=approx,
            cardinality=int(matrix.shape[0]),
            dimensionality=int(matrix.shape[1]),
        )
        epoch = self._epoch
        epoch.input = matrix
        # The logical (format-quantised, float64-widened) collection; for the
        # identity format it IS the ingested matrix, narrow formats derive it
        # lazily in the `vectors` property.
        epoch.vectors = matrix if self._format.is_identity else None

    def _setup(
        self,
        *,
        name: str,
        bits: int,
        cost: CostModel | None,
        registry: BackendRegistry | None,
        shards: int,
        on_shard_failure: str,
        format: "FragmentFormat",
        cardinality: int,
        dimensionality: int,
        approx: "ApproxConfig | dict | None" = None,
        shard_executor: str = "thread",
    ) -> None:
        """Option validation + shared state; matrix-independent, so the
        :meth:`open` path can run it without materialising the collection."""
        if shards < 1:
            raise QueryError("shards must be at least 1")
        check_shard_options(shard_executor, on_shard_failure)
        self._name = name
        self._bits = bits
        self._on_shard_failure = on_shard_failure
        self._shard_executor = shard_executor
        self._shards = int(shards)
        self._format = format
        self._dimensionality = dimensionality
        self._approx_config = ApproxConfig.coerce(approx)
        self._cost = cost if cost is not None else CostModel()
        self._planner = QueryPlanner(self, registry=registry)
        # Metric instances are stateless, so the cache survives epoch swaps.
        self._metrics: dict[tuple, Metric] = {}
        # One circuit breaker per backend, shared by every answer.
        self._breakers: dict[str, CircuitBreaker] = {}
        self._breaker_lock = threading.Lock()
        # -- mutability state ------------------------------------------------
        # All reads go through the current epoch (atomically swapped);
        # mutations serialise on the mutation lock; queries never take it.
        self._epoch = self._fresh_epoch(generation=0, base_cardinality=cardinality)
        self._tls = threading.local()
        self._mutation_lock = threading.RLock()
        # Attachment: set by save()/open(); None means purely in-memory.
        self._home: pathlib.Path | None = None
        self._wal: WriteAheadLog | None = None

    def _fresh_epoch(self, *, generation: int, base_cardinality: int) -> Epoch:
        return Epoch(
            generation=generation,
            base_cardinality=base_cardinality,
            dimensionality=self._dimensionality,
            tail=TailState.empty(
                base_cardinality=base_cardinality,
                dimensionality=self._dimensionality,
                format=self._format,
            ),
        )

    @classmethod
    def _from_store(
        cls,
        store: DecomposedStore,
        *,
        name: str,
        bits: int = 8,
        registry: BackendRegistry | None = None,
        shards: int = 1,
        on_shard_failure: str = "fail",
        shard_executor: str = "thread",
        approx: "ApproxConfig | dict | None" = None,
    ) -> "Index":
        """An index over an already-constructed decomposed store.

        The :meth:`open` path: the loaded (possibly memory-mapped) fragments
        become the index's decomposed store directly, and nothing
        materialises the row-major matrix — which is what lets an index
        larger than RAM open and answer queries.
        """
        index = object.__new__(cls)
        index._setup(
            name=name,
            bits=bits,
            cost=store.cost,
            registry=registry,
            shards=shards,
            on_shard_failure=on_shard_failure,
            shard_executor=shard_executor,
            format=store.format,
            approx=approx,
            cardinality=store.cardinality,
            dimensionality=store.dimensionality,
        )
        index._epoch.decomposed = store
        return index

    # -- epoch pinning -------------------------------------------------------------

    def _current_epoch(self) -> Epoch:
        """The epoch this thread should read: its pinned one, else the live one."""
        pinned = getattr(self._tls, "epoch", None)
        return pinned if pinned is not None else self._epoch

    @contextlib.contextmanager
    def pin(self):
        """Pin the current epoch for the duration of the block.

        Everything the block reads through the index — stores, shard plan,
        tail, searcher cache — comes from one consistent epoch even if a
        concurrent ``reorganize()`` publishes the next generation mid-block.
        Pins nest (the inner pin reuses the outer epoch), and the answer
        path takes no locks: pinning is one thread-local assignment and a
        refcount touch.
        """
        existing = getattr(self._tls, "epoch", None)
        if existing is not None:
            yield existing
            return
        epoch = self._epoch
        epoch.acquire()
        self._tls.epoch = epoch
        try:
            yield epoch
        finally:
            self._tls.epoch = None
            epoch.release()

    # -- construction / persistence ----------------------------------------------

    @classmethod
    def build(cls, vectors: np.ndarray, **opts) -> "Index":
        """Build an index over an in-memory collection (see ``__init__``)."""
        return cls(vectors, **opts)

    @classmethod
    def open(cls, path: str | pathlib.Path, *, verify: str = "none", **opts) -> "Index":
        """Open a collection persisted by :meth:`save`.

        Build options recorded in the manifest (name, compression bits,
        shard-failure policy, fragment format) are restored; explicit keyword
        arguments override them — in particular ``format="float64/mmap"``
        reopens the persisted fragments as read-only memory maps, so the
        index comes up without reading a coefficient and a collection larger
        than RAM pages fragments in as queries touch them.
        ``verify="checksum"`` re-hashes every fragment file against the
        manifest's recorded checksums while loading and raises
        :class:`~repro.errors.CorruptFragmentError` (naming the fragment) on
        any mismatch; for memory-mapped targets the files are verified by
        streaming in chunks, never by faulting the mapping in — see
        :func:`~repro.storage.persistence.load_decomposed`.

        **Recovery.** The newest *committed* manifest generation is loaded
        (an interrupted save or reorganisation can never publish a torn one
        — the manifest rename is the commit point), and any write-ahead-log
        records beyond the manifest's LSN watermark are replayed into the
        delta tail, restoring exactly the acknowledged updates.  A WAL left
        behind by a superseded manifest lineage (crash between a
        reorganisation's commit and its log reset) is recognised by its
        lineage token and ignored — its records are already inside the
        committed fragments.  The opened index is attached: further updates
        log to the same WAL, and ``reorganize()`` commits the next
        generation in place.
        """
        manifest = load_manifest(path)
        saved = dict(manifest.get("index", {}))
        if "approx" in saved:
            saved["approx"] = ApproxConfig.from_manifest(saved["approx"])
        saved["name"] = str(manifest.get("name", pathlib.Path(path).name))
        saved.update(opts)
        cost = saved.pop("cost", None)
        # None lets load_decomposed fall back to the manifest's own format.
        target = saved.pop("format", None)
        store = load_decomposed(path, cost=cost, verify=verify, format=target)
        index = cls._from_store(store, **saved)
        if "sharding" in manifest and "shards" not in opts:
            # Restore the exact persisted shard layout (an explicit shards=
            # override recomputes a fresh balanced plan instead).
            index._epoch.shard_plan = ShardPlan.from_manifest(manifest["sharding"])
        if "approx" in manifest:
            # The persisted cluster plan loads lazily, like the fragment
            # stores: nothing is read until the first approx query (or an
            # explicit cluster_plan access) needs it.  Only its "ivf" record
            # is ever read, so an older manifest's "hnsw" section is left out
            # of the next commit, which then sweeps its sidecar files.
            index._epoch.approx_records = dict(manifest["approx"])
            index._epoch.approx_dir = pathlib.Path(path)
        index._recover(pathlib.Path(path), manifest)
        return index

    def _recover(self, home: pathlib.Path, manifest: dict) -> None:
        """Attach to ``home`` and replay the WAL suffix into the delta tail."""
        mutability = manifest_mutability(manifest)
        epoch = self._epoch
        epoch.generation = mutability["generation"]
        token = wal_token((home / MANIFEST_NAME).read_bytes())
        records, last_lsn = read_wal(home / WAL_NAME, token=token)
        watermark = mutability["wal_lsn"]
        tail = epoch.tail
        for record in records:
            if record.lsn <= watermark:
                # Already merged into the committed fragments.
                continue
            if record.op == OP_INSERT:
                tail = tail.with_insert(record.vectors, lsn=record.lsn)
            else:
                tail = tail.with_delete(record.oids, lsn=record.lsn)
        epoch.tail = tail
        self._home = home
        self._wal = WriteAheadLog(
            home / WAL_NAME, token=token, next_lsn=max(watermark, last_lsn) + 1
        )

    def save(self, path: str | pathlib.Path, *, overwrite: bool = False) -> pathlib.Path:
        """Persist the collection plus the facade's build options — atomically.

        The manifest records the build options under ``"index"`` (including
        the approximate-tier config) and the shard layout under
        ``"sharding"``, so :meth:`open` restores both the shard count and
        the exact row boundaries.  An IVF cluster plan that exists — built
        in this process, or carried over from the manifest this index was
        opened from — is persisted as sidecar arrays with the same
        integrity records as the fragments; an index that never touched the
        approximate tier writes no sidecars and its manifest carries no
        ``approx`` section.

        Every data file (fragments, row sums, sidecars) is written before
        the manifest commits via temp + fsync + atomic rename, so a crash
        mid-save leaves the target directory holding its previous store (or
        nothing), never a torn one.  Saving over an existing store commits
        the next generation under fresh file names and garbage-collects the
        superseded files after the commit.

        A pending delta tail cannot be saved as-is — call
        :meth:`reorganize` first (attached indexes persist the merge
        automatically).  On success the index is **attached** to ``path``:
        subsequent updates are WAL-logged there and recoverable by
        :meth:`open`.
        """
        with self.pin() as epoch:
            if not epoch.tail.is_empty:
                raise StorageError(
                    "the index has unmerged live updates; call reorganize() before "
                    "save() so the persisted fragments reflect the logical collection"
                )
            target_path = pathlib.Path(path)
            generation = next_generation(target_path)
            if (target_path / MANIFEST_NAME).exists() and not overwrite:
                # save_decomposed would raise too; raising before any file is
                # written keeps a refused save perfectly side-effect free.
                raise StorageError(
                    f"{target_path} already contains a persisted collection "
                    "(pass overwrite=True)"
                )
            approx_section, sidecar_files = self._approx_save_payload(generation)
            extra_manifest = self._manifest_options(self.shard_plan)
            if approx_section:
                extra_manifest["approx"] = approx_section
            target = save_decomposed(
                self.decomposed,
                path,
                overwrite=overwrite,
                extra_manifest=extra_manifest,
                generation=generation,
                sidecar_files=sidecar_files,
            )
        self._attach(target)
        return target

    def _manifest_options(self, shard_plan: ShardPlan) -> dict:
        """The build options (``"index"``) and shard layout (``"sharding"``)
        every manifest this index commits records, for :meth:`open` to
        restore — written by :meth:`save` and :meth:`reorganize` alike."""
        return {
            "index": {
                "bits": self._bits,
                "shards": self._shards,
                "on_shard_failure": self._on_shard_failure,
                "shard_executor": self._shard_executor,
                "format": self._format.spec,
                "approx": self._approx_config.to_manifest(),
            },
            "sharding": shard_plan.to_manifest(),
        }

    def _attach(self, home: pathlib.Path) -> None:
        """Bind the index to a freshly committed store directory.

        Any write-ahead log already at ``home`` belongs to a superseded
        manifest lineage (every record it held is either inside the
        committed fragments or belongs to a different store entirely), so it
        is dropped; a fresh log is created lazily on the first update.
        """
        token = wal_token((home / MANIFEST_NAME).read_bytes())
        if self._wal is not None:
            self._wal.close()
        (home / WAL_NAME).unlink(missing_ok=True)
        self._home = home
        self._wal = WriteAheadLog(home / WAL_NAME, token=token, next_lsn=1)

    def _approx_save_payload(self, generation: int = 0) -> tuple[dict, dict]:
        """Manifest section + sidecar payloads of the IVF cluster plan.

        Empty unless the plan exists: built in memory or recorded in the
        manifest this index was opened from (loaded here so a round trip
        preserves it); a plan that was never needed is not built just to be
        saved.
        """
        epoch = self._current_epoch()
        if epoch.cluster_plan is None and "ivf" not in (epoch.approx_records or {}):
            return {}, {}
        plan = self.cluster_plan
        arrays, files = approx_sidecar_records(
            plan.to_arrays(), structure="ivf", generation=generation
        )
        section = {
            "ivf": {
                "seed": plan.seed,
                "iterations": plan.iterations,
                "n_clusters": plan.n_clusters,
                "arrays": arrays,
            }
        }
        return section, files

    # -- shape / shared state -----------------------------------------------------

    @property
    def vectors(self) -> np.ndarray:
        """The logical **base** collection matrix, float64 (no cost charged).

        For the identity format this is the ingested matrix itself.  For a
        narrow format it is the quantised collection widened back to float64
        — the values every backend actually answers over — materialised (and
        cached) on first access; the query path of the decomposed backends
        never needs it, so answering from a lazy (mapped) index does not
        trigger it.  Live tail rows are *not* part of this matrix — they
        overlay answers until :meth:`reorganize` merges them.
        """
        epoch = self._current_epoch()
        if epoch.vectors is None:
            if epoch.input is not None:
                epoch.vectors = self._format.widen(self._format.quantise(epoch.input))
            else:
                epoch.vectors = self.decomposed.matrix
        return epoch.vectors

    @property
    def name(self) -> str:
        """Collection label."""
        return self._name

    @property
    def format(self) -> "FragmentFormat":
        """The fragment format (dtype x residency) of the physical stores."""
        return self._format

    @property
    def cardinality(self) -> int:
        """Number of vectors in the **base** snapshot (excluding the live tail)."""
        return self._current_epoch().base_cardinality

    @property
    def dimensionality(self) -> int:
        """Number of dimensions per vector."""
        return self._dimensionality

    def __len__(self) -> int:
        return self.cardinality

    @property
    def cost(self) -> CostModel:
        """The shared cost model every store and backend charges."""
        return self._cost

    @property
    def shards(self) -> int:
        """The row-shard count the index was built with."""
        return self._shards

    @property
    def on_shard_failure(self) -> str:
        """Shard-failure policy handed to the sharded engines."""
        return self._on_shard_failure

    @property
    def shard_executor(self) -> str:
        """Where the sharded engine runs its shards (``"thread"``: in this process / ``"process"``)."""
        return self._shard_executor

    @property
    def shard_plan(self) -> ShardPlan:
        """The row partition of the ``sharded_bond`` backend.

        A balanced plan over :attr:`shards` shards, computed on first use —
        or the exact layout restored from a persisted manifest.  The plan
        covers the base snapshot; live tail rows overlay every backend's
        answer and are re-sharded at the next :meth:`reorganize`.
        """
        epoch = self._current_epoch()
        if epoch.shard_plan is None:
            epoch.shard_plan = ShardPlan.balanced(epoch.base_cardinality, self._shards)
        return epoch.shard_plan

    # -- live mutability ----------------------------------------------------------

    @property
    def generation(self) -> int:
        """The committed store generation this index serves (0 for in-memory)."""
        return self._current_epoch().generation

    @property
    def live_count(self) -> int:
        """Logical collection size: live base rows plus live tail rows."""
        return self._current_epoch().tail.live_count

    @property
    def tail_rows(self) -> int:
        """Rows inserted since the last reorganisation (dead ones included)."""
        return self._current_epoch().tail.tail_rows

    @property
    def deleted_count(self) -> int:
        """Base rows deleted since the last reorganisation."""
        return self._current_epoch().tail.deleted_base_count

    def planning_state(self) -> tuple[int, int, int, int]:
        """``(generation, cardinality, tail_rows, deleted_count)`` of the epoch
        this thread reads, from one epoch lookup.

        Together with a query's shape this is everything a planning decision
        depends on, so the planner keys its plan cache by it: every
        ``insert`` / ``delete`` / ``reorganize`` changes the tuple, and a
        reader pinned to an older epoch keeps getting that epoch's plans.
        """
        epoch = self._current_epoch()
        tail = epoch.tail
        return (
            epoch.generation,
            epoch.base_cardinality,
            tail.tail_rows,
            tail.deleted_base_count,
        )

    def insert(self, vectors: np.ndarray) -> np.ndarray:
        """Insert one or more vectors; returns their assigned OIDs.

        The rows become visible to every subsequent ``answer`` immediately
        (via the tail overlay) and are merged into the base fragments at the
        next :meth:`reorganize`.  On an attached index the insert is written
        to the write-ahead log and fsynced **before** this method returns —
        an acknowledged insert survives any crash.  OIDs continue past the
        current coordinate system (base rows, then tail rows in insert
        order) and are compacted by the next reorganisation
        (:meth:`~repro.mutability.tail.TailState.merged`).  A non-finite
        coefficient raises before anything is logged.
        """
        rows = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        if rows.ndim != 2 or rows.shape[0] == 0:
            raise QueryError(f"insert needs one or more vector rows, got shape {rows.shape}")
        if rows.shape[1] != self._dimensionality:
            raise QueryError(
                f"inserted vectors have {rows.shape[1]} dimensions, "
                f"index has {self._dimensionality}"
            )
        _require_finite(rows)
        with self._mutation_lock:
            epoch = self._epoch
            if self._wal is not None:
                lsn = self._wal.append_insert(rows)
            else:
                lsn = epoch.tail.last_lsn + 1
            # Durable (or in-memory acknowledged) — now publish.
            start = epoch.tail.total_cardinality
            epoch.tail = epoch.tail.with_insert(rows, lsn=lsn)
            return np.arange(start, start + rows.shape[0], dtype=np.int64)

    def delete(self, oids) -> int:
        """Delete the vectors with the given OIDs; returns how many were named.

        Takes effect immediately for every subsequent ``answer``.  OIDs are
        validated against the current coordinate system (base plus tail)
        before anything is logged; deleting an already-deleted row again is
        a no-op, an OID that never existed raises.  On an attached index the
        delete is WAL-logged and fsynced before this method returns.
        """
        oid_array = np.atleast_1d(np.asarray(oids, dtype=np.int64))
        if oid_array.ndim != 1:
            raise QueryError("delete expects a flat sequence of OIDs")
        if oid_array.size == 0:
            return 0
        with self._mutation_lock:
            epoch = self._epoch
            # Validate BEFORE logging: the WAL must never hold a record that
            # cannot replay.
            if oid_array.min() < 0 or oid_array.max() >= epoch.tail.total_cardinality:
                raise StorageError(
                    f"delete targets an OID outside the collection "
                    f"(coordinate system is [0, {epoch.tail.total_cardinality}))"
                )
            if self._wal is not None:
                lsn = self._wal.append_delete(oid_array)
            else:
                lsn = epoch.tail.last_lsn + 1
            epoch.tail = epoch.tail.with_delete(oid_array, lsn=lsn)
            return int(oid_array.size)

    def reorganize(self) -> int:
        """Merge the delta tail into fresh base fragments; returns the generation.

        The paper's "periodic reorganisation": the live base rows and then
        the live tail rows (:meth:`~repro.mutability.tail.TailState.merged`,
        which only reads the immutable tail, so a failure leaves the live
        state untouched) get fresh stores, a fresh shard plan, and a cleared
        tail, and the whole bundle is published as the next epoch with one
        atomic swap.
        In-flight queries finish on the epoch they pinned; new queries see
        the new one.  Serving never stops.

        On an attached index the merged fragments are committed **durably**
        as the next manifest generation (every data file fsynced, manifest
        temp + fsync + atomic rename) before the epoch swaps and before the
        WAL resets — a crash anywhere leaves the directory opening as either
        the old generation plus its replayable WAL, or the new generation.

        Approximate-tier structures are built over the base snapshot, so a
        reorganisation drops them; they rebuild lazily (same seeds) over the
        merged collection on next use.  A clean index is a no-op.
        """
        with self._mutation_lock:
            epoch = self._epoch
            if epoch.tail.is_empty:
                return epoch.generation
            merged = epoch.tail.merged(self.vectors)
            if merged.shape[0] == 0:
                raise StorageError(
                    "reorganisation would delete every row; an index cannot be empty"
                )
            generation = epoch.generation + 1
            new_epoch = self._fresh_epoch(
                generation=generation, base_cardinality=int(merged.shape[0])
            )
            new_epoch.input = merged
            new_epoch.vectors = merged if self._format.is_identity else None
            if self._home is not None:
                # Build the merged store and commit it durably BEFORE the
                # swap: if anything here raises (including injected faults),
                # the live epoch, its tail, and the WAL are untouched.
                new_epoch.decomposed = self._decompose(merged)
                try:
                    save_decomposed(
                        new_epoch.decomposed,
                        self._home,
                        overwrite=True,
                        extra_manifest=self._manifest_options(
                            ShardPlan.balanced(int(merged.shape[0]), self._shards)
                        ),
                        generation=generation,
                        wal_lsn=epoch.tail.last_lsn,
                        durable=True,
                    )
                    token = wal_token((self._home / MANIFEST_NAME).read_bytes())
                except BaseException:
                    self._close_epoch_resources(new_epoch)
                    raise
                # The commit owns every logged record; swap, then retire the
                # old log under the new lineage.  A crash between the commit
                # and the reset is safe: the old log's token no longer
                # matches the manifest, so open() ignores it.
                self._epoch = new_epoch
                assert self._wal is not None
                self._wal.reset(token=token)
            else:
                self._epoch = new_epoch
            # The superseded epoch's cached searchers and its store's segment
            # are real resources (process pools, shared memory); tear them
            # down once the last query pinned to it finishes — never under a
            # reader.
            epoch.retire(lambda: self._close_epoch_resources(epoch))
            return generation

    # -- lifecycle -----------------------------------------------------------------

    @staticmethod
    def _close_epoch_resources(epoch: Epoch) -> None:
        """Close everything one epoch holds onto.

        Cached searchers that expose ``close()`` (the sharded engines — their
        process pools must not outlive the epoch) are closed; plain searchers
        are simply dropped.  A store decomposed into a shared-memory segment
        is dropped with the epoch's reference on the segment, which unlinks
        it; views still held elsewhere keep their pages, and a later use of
        the epoch decomposes afresh.
        """
        searchers = list(epoch.searchers.values())
        epoch.searchers.clear()
        for searcher in searchers:
            closer = getattr(searcher, "close", None)
            if callable(closer):
                closer()
        store = epoch.decomposed
        if store is not None and store.segment is not None:
            epoch.decomposed = None
            epoch.compressed = None
            store.segment.release()

    def close(self) -> None:
        """Release every resource the index owns (idempotent).

        Closes the current epoch's cached backend engines — including any
        process-pool sharded engines, whose worker processes exit — unlinks
        the shared-memory segment a process-sharded store lives in and, on an
        attached index, closes the write-ahead log.  Answering again after
        ``close()`` is permitted (stores and engines rebuild lazily), but further
        mutations on an attached index are not.  ``Index`` is also a context
        manager: ``with Index.build(...) as index: ...`` closes on exit.
        """
        self._close_epoch_resources(self._epoch)
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    def __enter__(self) -> "Index":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- approximate-tier structures ----------------------------------------------

    @property
    def approx_config(self) -> ApproxConfig:
        """The approximate-tier build configuration."""
        return self._approx_config

    @property
    def cluster_plan(self) -> ClusterPlan:
        """The IVF cluster plan: persisted arrays if present, else a seeded build."""
        epoch = self._current_epoch()
        if epoch.cluster_plan is None:
            record = (epoch.approx_records or {}).get("ivf")
            if record is not None:
                assert epoch.approx_dir is not None
                arrays = {
                    name: load_approx_array(epoch.approx_dir, array_record)
                    for name, array_record in record["arrays"].items()
                }
                epoch.cluster_plan = ClusterPlan.from_arrays(
                    arrays, seed=record["seed"], iterations=record["iterations"]
                )
            else:
                config = self._approx_config
                epoch.cluster_plan = build_cluster_plan(
                    self.vectors,
                    n_clusters=config.resolve_n_clusters(self.cardinality),
                    iterations=config.kmeans_iterations,
                    seed=config.seed,
                )
        return epoch.cluster_plan

    @property
    def ivf_partitions(self) -> IVFPartitions:
        """The permuted store + zero-copy partition slices of the IVF backend."""
        epoch = self._current_epoch()
        if epoch.ivf_partitions is None:
            epoch.ivf_partitions = IVFPartitions(
                self.decomposed, self.cluster_plan, cost=self._cost, name=self._name
            )
        return epoch.ivf_partitions

    @property
    def planner(self) -> QueryPlanner:
        """The capability-driven planner answering queries."""
        return self._planner

    # -- lazily materialised stores ----------------------------------------------

    @property
    def row_store(self) -> RowStore:
        """The horizontal (NSM) representation, built on first use."""
        epoch = self._current_epoch()
        if epoch.row_store is None:
            source = epoch.input if epoch.input is not None else self.vectors
            epoch.row_store = RowStore(
                source, cost=self._cost, name=self._name, format=self._format
            )
        return epoch.row_store

    @property
    def decomposed(self) -> DecomposedStore:
        """The vertically decomposed representation, built on first use."""
        epoch = self._current_epoch()
        if epoch.decomposed is None:
            # Under the lock: a store decomposed into shared memory that lost
            # a race would keep its segment until exit.
            with self._mutation_lock:
                if epoch.decomposed is None:
                    source = epoch.input if epoch.input is not None else self.vectors
                    epoch.decomposed = self._decompose(source)
        return epoch.decomposed

    def _decompose(self, source: np.ndarray) -> DecomposedStore:
        """The decomposed store of ``source``.  With process shards and a
        RAM-resident format it is decomposed straight into the shared-memory
        segment every process pool of the epoch attaches (the epoch owns it;
        see :meth:`_close_epoch_resources`); otherwise it is private."""
        options = {"cost": self._cost, "name": self._name, "format": self._format}
        if self._shards > 1 and self._shard_executor == "process" and not self._format.is_mapped:
            return decompose_shared(source, **options)
        return DecomposedStore(source, **options)

    @property
    def compressed(self) -> CompressedStore:
        """The 8-bit quantised representation, built on first use."""
        epoch = self._current_epoch()
        if epoch.compressed is None:
            epoch.compressed = CompressedStore(self.decomposed, bits=self._bits)
        return epoch.compressed

    # -- planning and answering ---------------------------------------------------

    def resolved_metric(self, query: Query) -> Metric:
        """The metric instance for ``query``, cached per specification."""
        key = query.metric_spec_key()
        metric = self._metrics.get(key)
        if metric is None:
            metric = query.resolve_metric()
            self._metrics[key] = metric
        return metric

    def searcher_for(self, backend, query: Query, metric: Metric):
        """The (cached) underlying searcher of ``backend`` for this metric.

        Caching is what keeps expensive backends affordable through the
        facade: the R-tree is bulk-loaded once, the compressed store is
        quantised once, and BOND's reusable scratch buffers persist across
        ``answer()`` calls exactly as they would for a long-lived directly
        constructed searcher.  The cache lives on the epoch — searchers hold
        references to the epoch's stores, so a reorganisation retires them
        with the rest of the old generation.
        """
        epoch = self._current_epoch()
        key = (backend.name, query.metric_spec_key())
        searcher = epoch.searchers.get(key)
        if searcher is None:
            # Two racing first callers both build one; both use the one
            # stored first (the other holds no pool or segment yet).
            searcher = epoch.searchers.setdefault(key, backend.create(self, metric))
        return searcher

    def plan(self, query: Query) -> Plan:
        """Plan ``query`` without executing it."""
        return self._planner.plan(query)

    def explain(self, query: Query) -> str:
        """The planning transcript for ``query`` (nothing is executed)."""
        return self._planner.explain(query)

    def execute(
        self, query: Query, *, backend: str | None = None, plan: Plan | None = None
    ) -> SearchResult | BatchSearchResult:
        """Execute ``query`` on one backend, with the live-update overlay.

        One attempt of :meth:`answer`'s failover chain: ``plan`` reuses a
        planning decision, ``backend`` overrides which backend runs.  The
        execution is pinned to one epoch (the caller's, when it holds a pin).

        The update-free path hands the query straight to the backend.  With
        live updates, the backend answers over the base snapshot at the
        caller's ``k``, its search excluding the deleted base rows, and
        scores the live tail rows with its own row scorer — bitwise what it
        scores them once reorganised into the base (per-row scores do not
        depend on the rest of the collection) — and the overlay merges the
        two.  Approximate backends score the tail exactly, so a fresh insert
        is never hidden by a stale structure.
        """
        with self.pin() as epoch:
            if plan is None:
                plan = self._planner.plan(query)
            chosen = (
                plan.backend if backend is None else self._planner.registry.get(backend)
            )
            metric = plan.metric
            tail = epoch.tail
            if tail.is_empty:
                return chosen.answer(self, query, metric)
            base = chosen.answer(self, query, metric, exclude=tail.deleted_base)
            if not tail.live_tail_count:
                return base
            oids, columns = tail.live_rows()
            # One read of the tail per answer; its arithmetic per query.
            self._cost.charge_scan(columns.size, self._format.coefficient_bytes)
            self._cost.charge_arithmetic(
                columns.size * metric.arithmetic_ops_per_value() * query.batch_size
            )
            scores = chosen.score_rows(self, query, metric, columns)
            return overlay_answer(base, query.k, metric, oids, scores, self._cost)

    def answer(
        self, query: Query, *, failover: bool = False
    ) -> SearchResult | BatchSearchResult:
        """Plan and execute ``query`` on the cheapest capable backend.

        Returns a :class:`~repro.core.result.SearchResult` for single-vector
        queries and a :class:`~repro.core.result.BatchSearchResult` for
        batches, exactly as the underlying searcher would, with ``backend``
        naming the backend that answered and ``failed_over`` whether it was
        a substitute.  Under live updates (see :meth:`insert` /
        :meth:`delete`) the answer is the overlay-corrected top-k: bitwise
        identical to an index rebuilt from scratch at the same logical state.

        Without ``failover`` the planned backend alone runs.  With
        ``failover=True`` an execution-time
        :class:`~repro.errors.BackendError` is not final: the plan's
        :meth:`~repro.api.planner.Plan.failover_chain` is walked (the
        next-cheapest eligible *exact* backend first) until one answers.  A
        substitute agrees with the planned backend on OIDs and on scores to
        1e-9, not bitwise (engines sum partial scores in different orders);
        an approximate backend is only ever substituted by an exact one.

        Every attempt reports to its backend's circuit breaker (one per
        backend, shared by every caller of this index, the serving layer
        included); a backend whose breaker is open is skipped, and when every
        breaker of the chain is open the planned backend is probed anyway.
        An attempt that raises anything but a ``BackendError`` (a storage or
        query error, say) ends the answer with that error and counts neither
        way on its breaker, which stays free to admit the next probe.
        The plan and every attempt run on one pinned epoch.  When no attempt
        answers, the first transient error is re-raised (a retry may
        succeed); otherwise a single attempt re-raises its error unchanged
        and several raise :class:`~repro.errors.FailoverExhausted`.
        """
        with self.pin():
            plan = self._planner.plan(query)
            chain = plan.failover_chain() if failover else (plan.backend_name,)
            attempts: list[tuple[str, BackendError]] = []
            for name, breaker in self._admitted(chain):
                try:
                    result = self.execute(query, backend=name, plan=plan)
                except BackendError as exc:
                    breaker.record_failure()
                    attempts.append((name, exc))
                    continue
                except BaseException:
                    breaker.release()
                    raise
                breaker.record_success()
                return _attributed(result, name, failed_over=name != plan.backend_name)
        for _, error in attempts:
            if isinstance(error, TransientBackendError):
                raise error
        if len(attempts) == 1:
            raise attempts[0][1]
        summary = "; ".join(f"{name}: {error}" for name, error in attempts)
        raise FailoverExhausted(
            f"all {len(attempts)} backends of the failover chain failed ({summary})",
            attempts=attempts,
        )

    def _admitted(self, chain: tuple[str, ...]):
        """``(name, breaker)`` of each backend of ``chain`` whose breaker
        admits a call, asked one at a time (an admitted half-open breaker
        holds its single probe); the planned ``chain[0]`` when none does, so
        a recovered backend is rediscovered instead of failing fast forever."""
        admitted = False
        for name in chain:
            breaker = self._breaker(name)
            if breaker.allow():
                admitted = True
                yield name, breaker
        if not admitted:
            yield chain[0], self._breaker(chain[0])

    def _breaker(self, backend: str) -> CircuitBreaker:
        """The circuit breaker of one backend, created on first use."""
        breaker = self._breakers.get(backend)
        if breaker is None:
            with self._breaker_lock:
                breaker = self._breakers.setdefault(backend, CircuitBreaker(backend))
        return breaker

    def breaker_states(self) -> tuple[BreakerState, ...]:
        """A snapshot of every backend circuit breaker, sorted by name."""
        with self._breaker_lock:
            breakers = sorted(self._breakers.items())
        return tuple(breaker.snapshot() for _, breaker in breakers)
