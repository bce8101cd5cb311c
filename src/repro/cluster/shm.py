"""Zero-copy fragment publication over ``multiprocessing.shared_memory``.

The process-pool shard executor (:mod:`repro.cluster.executor`) must hand
every worker the same physical collection the parent scans — without copying
it per worker and without pickling hundreds of megabytes per task.  Workers
attach a named shared-memory segment by name and rebuild the store as numpy
views straight into it, so a worker's store shares bytes (not copies) with
every other worker on the machine.

Where the fragments come from
-----------------------------
A process-sharded :class:`~repro.api.index.Index` with a RAM-resident format
decomposes its collection **straight into a segment**
(:func:`decompose_shared`): the parent's store is a set of views into it, the
store carries the segment (:attr:`DecomposedStore.segment
<repro.storage.decomposed.DecomposedStore.segment>`), and every process pool
of the index's epoch — whatever its metric or kind — attaches that one
segment.  :func:`publish` is the one decision point: a store that carries a
live segment is attached as it is, any other store (a directly constructed
engine's, a memory-mapped or an opened one) is published **by copy** through
``SharedStoreSegment(store)``.  The compressed kind adds only its code
columns, in a second segment that holds a reference to the first.

Layout
------
A segment holds back to back (each array 64-byte aligned):

* the exact fragments as one ``(dimensionality, stride)`` region in the
  store's native dtype, one contiguous fragment per row (``stride`` rounds
  the cardinality up so every fragment starts on a cache line);
* the row-sum column (float64) when the store has one;
* for compressed publication, the parent's quantisation-code columns
  (uint8/uint16) — the per-dimension min/max grids are a few doubles and
  travel inside the picklable :class:`StoreSpec` instead.

A code-only segment holds just the third part; its spec names the carried
segment for the first two.  Workers rebuild the exact store with
:meth:`~repro.storage.decomposed.DecomposedStore.from_fragments` and the
compressed store with
:meth:`~repro.storage.compressed.CompressedStore.from_arrays`, so the
attached stores carry bitwise the parent's coefficients, codes and grids —
the foundation of the process pool's identity contract.  Attached stores are
always RAM-resident views (a ``mmap`` parent is materialised into the
segment at publication; the dtype — and therefore every answer and every
charged byte — is unchanged).

Every segment's blocks are reserved at creation (``posix_fallocate``): a
segment sized with ``ftruncate`` alone is sparse, and a write past a full
``/dev/shm`` then kills the process with ``SIGBUS``.  A full ``/dev/shm``
is a :class:`~repro.errors.StorageError` instead, and leaves no segment.

Lifecycle
---------
The creating process owns the segment.  Ownership is reference-counted
(:meth:`SharedStoreSegment.acquire` / :meth:`~SharedStoreSegment.release`):
the creator holds one reference — for a carried segment, the index epoch
whose store it is — and the executor of each sharded engine holds one more.
The segment is **unlinked** when the last reference drops — no segment
outlives ``close()``, which ``tests/test_cluster.py`` verifies against
``/dev/shm``.  Releasing never waits on, and never invalidates, a view the
parent still holds: the parent's mapping goes with its last view.  Workers
attach read-only and merely close their mapping on exit; on Python < 3.13
an attach also registers with the worker's ``resource_tracker`` (whose
exit-time cleanup would unlink the parent's live segment and warn), so
:class:`AttachedStore` suppresses that registration.
"""

from __future__ import annotations

import dataclasses
import errno
import mmap
import os
import secrets
import threading
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.engine.cost import CostModel
from repro.errors import StorageError
from repro.storage.compressed import CompressedStore
from repro.storage.decomposed import DecomposedStore, vector_matrix
from repro.storage.formats import FragmentFormat

#: Prefix of every segment name this module creates — the leak checks in the
#: tests and the CI ``examples`` job look for stale ``/dev/shm`` entries by
#: this marker.
SEGMENT_PREFIX = "repro_shm_"

#: Alignment of every array inside a segment, in bytes (one cache line).
_ALIGN = 64


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass(frozen=True)
class ArraySpec:
    """Where one array lives inside a segment: byte offset, dtype, length."""

    offset: int
    dtype: str
    length: int

    def view(self, buffer) -> np.ndarray:
        """The array as a zero-copy view into ``buffer``."""
        return np.ndarray(
            (self.length,), dtype=np.dtype(self.dtype), buffer=buffer, offset=self.offset
        )

    @property
    def end(self) -> int:
        """The byte offset just past the array."""
        return self.offset + self.length * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class StoreSpec:
    """Everything a worker needs to rebuild the published store(s).

    Picklable and small: array payloads stay in the segment(s), only names,
    offsets, dtypes and the per-dimension quantisation grids travel here.
    ``columns`` and ``row_sums`` live in ``segment``; ``code_columns`` in
    ``code_segment``, which is ``segment`` itself unless the codes were
    published beside a carried store's segment.
    """

    segment: str
    name: str
    format_spec: str
    cardinality: int
    dimensionality: int
    columns: tuple[ArraySpec, ...]
    row_sums: ArraySpec | None
    #: Compressed publication (None / empty when exact-only).
    bits: int | None
    code_columns: tuple[ArraySpec, ...]
    minimums: tuple[float, ...]
    maximums: tuple[float, ...]
    code_segment: str | None = None


def _fragment_layout(
    cardinality: int, dimensionality: int, dtype: np.dtype, *, row_sums: bool
) -> tuple[int, tuple[ArraySpec, ...], ArraySpec | None]:
    """``(stride, columns, row_sums)``: the fragment columns as the rows of a
    ``(dimensionality, stride)`` region at offset 0, then the row-sum column
    — one layout for every segment that holds fragments."""
    stride = _aligned(cardinality * dtype.itemsize) // dtype.itemsize
    columns = tuple(
        ArraySpec(offset=dim * stride * dtype.itemsize, dtype=str(dtype), length=cardinality)
        for dim in range(dimensionality)
    )
    row_sum_spec = None
    if row_sums:
        offset = _aligned(dimensionality * stride * dtype.itemsize)
        row_sum_spec = ArraySpec(offset=offset, dtype="float64", length=cardinality)
    return stride, columns, row_sum_spec


def _code_layout(columns: list[np.ndarray], start: int) -> tuple[ArraySpec, ...]:
    specs: list[ArraySpec] = []
    offset = start
    for column in columns:
        offset = _aligned(offset)
        specs.append(ArraySpec(offset=offset, dtype=str(column.dtype), length=int(column.shape[0])))
        offset += column.nbytes
    return tuple(specs)


def _end(*groups) -> int:
    return max((spec.end for group in groups for spec in group if spec is not None), default=0)


class SharedStoreSegment:
    """Owner-side handle of one segment (creating process only).

    ``SharedStoreSegment(store)`` publishes ``store`` **by copy** (with
    ``compressed=``, its code columns too) into a fresh segment; the carried
    segments of :func:`decompose_shared` and the code-only segments of
    :func:`publish` are built by the same machinery.  A segment is created
    with one reference; every additional holder calls :meth:`acquire` and
    every holder — the creator included — calls :meth:`release` (alias
    :meth:`close`) exactly once.  The segment is **unlinked** when the count
    reaches zero.
    """

    def __init__(
        self,
        store: DecomposedStore,
        *,
        compressed: CompressedStore | None = None,
    ) -> None:
        if compressed is not None and compressed.exact is not store:
            raise StorageError(
                "the compressed store must be built over the published exact store"
            )
        _, columns, row_sums = _fragment_layout(
            store.cardinality,
            store.dimensionality,
            store.format.np_dtype,
            row_sums=store.has_row_sums,
        )
        codes = [] if compressed is None else list(compressed._code_tails)
        code_columns = _code_layout(codes, _end(columns, (row_sums,)))
        self._open(_end(columns, (row_sums,), code_columns))
        arrays = [*zip(columns, store._tails), *zip(code_columns, codes)]
        if row_sums is not None:
            arrays.append((row_sums, store._row_sums.tail))
        self._write(arrays)
        self._spec = StoreSpec(
            segment=self.name,
            name=store.name,
            format_spec=store.format.spec,
            cardinality=store.cardinality,
            dimensionality=store.dimensionality,
            columns=columns,
            row_sums=row_sums,
            **_code_fields(compressed, code_columns, self.name),
        )

    def _open(self, size: int) -> None:
        """Create the named segment with ``size`` bytes reserved, map it,
        and take the creator's reference."""
        name = f"{SEGMENT_PREFIX}{secrets.token_hex(8)}"
        size = max(size, 1)
        shm = shared_memory.SharedMemory(name=name, create=True, size=size)
        try:
            if hasattr(os, "posix_fallocate"):
                # The stdlib handle exposes its descriptor only as ``_fd``.
                os.posix_fallocate(shm._fd, 0, size)
            # A shared mapping of our own: the handle's mapping is closed at
            # once, so no later close can trip over a view exported from it.
            self._buffer = mmap.mmap(shm._fd, size)
        except BaseException as exc:
            shm.close()
            shm.unlink()
            if isinstance(exc, OSError) and exc.errno == errno.ENOSPC:
                raise StorageError(
                    f"no room for a {size / 1e6:.1f} MB shared-memory segment "
                    "(is /dev/shm full or too small?)"
                ) from exc
            raise
        shm.close()
        self._shm = shm
        self._carried: SharedStoreSegment | None = None
        # Pools of one epoch start and stop on whichever thread serves.
        self._lock = threading.Lock()
        self._refs = 1

    def _write(self, arrays) -> None:
        """Copy each ``(spec, array)`` pair in; on failure the segment goes."""
        try:
            for spec, array in arrays:
                spec.view(self._buffer)[:] = array
        except BaseException:
            self.release()
            raise

    @classmethod
    def _codes_beside(
        cls, carried: "SharedStoreSegment", compressed: CompressedStore
    ) -> "SharedStoreSegment":
        """A segment of ``compressed``'s code columns alone, attached next to
        the ``carried`` segment its exact store lives in (one reference on
        ``carried`` is held until this segment is unlinked)."""
        codes = list(compressed._code_tails)
        code_columns = _code_layout(codes, 0)
        segment = object.__new__(cls)
        segment._open(_end(code_columns))
        segment._write(zip(code_columns, codes))
        segment._carried = carried.acquire()
        segment._spec = dataclasses.replace(
            carried.spec, **_code_fields(compressed, code_columns, segment.name)
        )
        return segment

    @property
    def spec(self) -> StoreSpec:
        """The picklable attach recipe shipped to the workers."""
        return self._spec

    @property
    def name(self) -> str:
        """The shared-memory segment name."""
        return self._shm.name

    @property
    def references(self) -> int:
        """Live owner-side references (0 once unlinked)."""
        return self._refs

    def acquire(self) -> "SharedStoreSegment":
        """Take one more owner-side reference."""
        with self._lock:
            if self._refs <= 0:
                raise StorageError(f"shared segment {self.name} is already unlinked")
            self._refs += 1
        return self

    def release(self) -> None:
        """Drop one reference; the last one **unlinks** the segment.

        The creator's mapping is dropped with it, but views the creator still
        holds keep their pages: the mapping goes with the last of them, so
        releasing never waits on (or raises for) a live view.
        """
        with self._lock:
            if self._refs <= 0:
                return
            self._refs -= 1
            if self._refs:
                return
        self._shm.unlink()
        self._buffer = None
        if self._carried is not None:
            self._carried.release()
            self._carried = None

    # The creator's reference reads naturally as close().
    close = release

    def __enter__(self) -> "SharedStoreSegment":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


def _code_fields(
    compressed: CompressedStore | None,
    code_columns: tuple[ArraySpec, ...] = (),
    segment: str | None = None,
) -> dict:
    """The :class:`StoreSpec` fields of a compressed publication."""
    if compressed is None:
        return {"bits": None, "code_columns": (), "minimums": (), "maximums": ()}
    return {
        "bits": compressed.bits,
        "code_columns": code_columns,
        "minimums": tuple(float(v) for v in compressed.minimums),
        "maximums": tuple(float(v) for v in compressed.maximums),
        "code_segment": segment,
    }


def decompose_shared(
    vectors: np.ndarray,
    *,
    format: FragmentFormat | str | None = None,
    cost: CostModel | None = None,
    name: str = "collection",
) -> DecomposedStore:
    """Decompose ``vectors`` straight into a fresh segment.

    The returned store is bitwise ``DecomposedStore(vectors, ...)`` (row sums
    included, RAM-resident formats only), but its fragments and row-sum
    column are views into the segment it carries as ``store.segment`` — so
    process pools over it attach instead of copying, and no private fragment
    array exists.  The caller owns the segment's one reference and releases
    it when the store retires.
    """
    fragment_format = FragmentFormat.coerce(format)
    matrix = vector_matrix(vectors)
    cardinality, dimensionality = matrix.shape
    dtype = fragment_format.np_dtype
    stride, columns, row_sums = _fragment_layout(
        cardinality, dimensionality, dtype, row_sums=True
    )
    segment = object.__new__(SharedStoreSegment)
    segment._open(_end(columns, (row_sums,)))
    try:
        fragments = np.ndarray((dimensionality, stride), dtype=dtype, buffer=segment._buffer)
        store = DecomposedStore.decompose_into(
            matrix,
            fragments,
            row_sums.view(segment._buffer),
            segment=segment,
            cost=cost,
            name=name,
            format=fragment_format,
        )
    except BaseException:
        segment.release()
        raise
    segment._spec = StoreSpec(
        segment=segment.name,
        name=name,
        format_spec=fragment_format.spec,
        cardinality=cardinality,
        dimensionality=dimensionality,
        columns=columns,
        row_sums=row_sums,
        **_code_fields(None),
    )
    return store


def publish(
    store: DecomposedStore, *, compressed: CompressedStore | None = None
) -> SharedStoreSegment:
    """The segment a process pool over ``store`` attaches, with one reference
    for the caller.

    A store that carries a live segment is attached as it is (plus, for the
    compressed kind, a segment of the code columns alone); any other store
    is published by copy.
    """
    carried = store.segment
    if carried is None or carried.references == 0:
        return SharedStoreSegment(store, compressed=compressed)
    if compressed is None:
        return carried.acquire()
    return SharedStoreSegment._codes_beside(carried, compressed)


class AttachedStore:
    """Worker-side view of a published store: attach, rebuild, close.

    ``decomposed`` (and ``compressed``, when the spec carries codes) are
    zero-copy numpy views into the shared segment(s); :meth:`close` drops the
    mappings (never a segment — that is the owner's unlink).
    """

    def __init__(self, spec: StoreSpec, *, cost: CostModel | None = None) -> None:
        names = [spec.segment]
        if spec.code_segment not in (None, spec.segment):
            names.append(spec.code_segment)
        self._shms = [_attach(name) for name in names]
        fmt = FragmentFormat.parse(spec.format_spec)
        if fmt.is_mapped:
            # The bytes already live in the (RAM-backed) segment; a mapped
            # residency would only make from_fragments spill copies to disk.
            fmt = FragmentFormat(dtype=fmt.dtype, residency="ram")
        buffer = self._shms[0].buf
        tails = [column.view(buffer) for column in spec.columns]
        row_sum_tail = spec.row_sums.view(buffer) if spec.row_sums is not None else None
        self.decomposed = DecomposedStore.from_fragments(
            tails,
            format=fmt,
            cost=cost,
            name=spec.name,
            row_sum_tail=row_sum_tail,
        )
        self.compressed: CompressedStore | None = None
        if spec.bits is not None:
            code_buffer = self._shms[-1].buf
            self.compressed = CompressedStore.from_arrays(
                self.decomposed,
                codes=[column.view(code_buffer) for column in spec.code_columns],
                minimums=np.asarray(spec.minimums, dtype=np.float64),
                maximums=np.asarray(spec.maximums, dtype=np.float64),
                bits=spec.bits,
            )

    def close(self) -> None:
        """Drop this process's mappings of the segments (views die with them)."""
        self.decomposed = None
        self.compressed = None
        for shm in self._shms:
            shm.close()


def _attach(name: str) -> shared_memory.SharedMemory:
    """Map an existing segment without registering it with a resource tracker.

    Pre-3.13 SharedMemory registers *attachments* with the resource tracker
    as if they were owned segments.  Left alone, a spawn-mode worker's
    tracker unlinks the owner's live segment at worker exit; undone with
    unregister(), a fork-mode worker (shared tracker process) removes the
    owner's cache entry instead and the owner's later unlink trips a
    KeyError inside the tracker.  Attaching is not owning: suppress the
    registration itself, so no tracker in any start method ever learns
    about it.
    """
    register = resource_tracker.register
    try:
        resource_tracker.register = lambda name, rtype: None
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = register


def attach_store(spec: StoreSpec, *, cost: CostModel | None = None) -> AttachedStore:
    """Attach to a published store by spec (worker-side entry point)."""
    return AttachedStore(spec, cost=cost)
