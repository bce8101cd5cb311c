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
of the index's epoch — whatever its metric — attaches that one segment.
:func:`publish` is the one decision point: a store that carries a live
segment is attached as it is, any other store (a directly constructed
engine's, a memory-mapped or an opened one) is published **by copy** through
``SharedStoreSegment(store)``.  The sharded engine is exact-only, so a
segment never holds quantisation codes.

Layout
------
A segment holds back to back (each array 64-byte aligned):

* the exact fragments as one ``(dimensionality, stride)`` region in the
  store's native dtype, one contiguous fragment per row (``stride`` rounds
  the cardinality up so every fragment starts on a cache line);
* the row-sum column (float64) when the store has one.

Workers rebuild the store with
:meth:`~repro.storage.decomposed.DecomposedStore.from_fragments`, so the
attached store carries bitwise the parent's coefficients — the foundation
of the process pool's identity contract.  Attached stores are
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
    """Everything a worker needs to rebuild the published store.

    Picklable and small: array payloads stay in the segment, only names,
    offsets and dtypes travel here.
    """

    segment: str
    name: str
    format_spec: str
    cardinality: int
    dimensionality: int
    columns: tuple[ArraySpec, ...]
    row_sums: ArraySpec | None
    #: Always empty (no segment holds codes); bench/layers.py reads it (ROADMAP item 1(c)).
    code_columns: tuple[ArraySpec, ...] = ()


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


def _end(*groups) -> int:
    return max((spec.end for group in groups for spec in group if spec is not None), default=0)


class SharedStoreSegment:
    """Owner-side handle of one segment (creating process only).

    ``SharedStoreSegment(store)`` publishes ``store`` **by copy** into a
    fresh segment; the carried segments of :func:`decompose_shared` are
    built by the same machinery.  A segment is created with one reference;
    every additional holder calls :meth:`acquire` and every holder — the
    creator included — calls :meth:`release` (alias :meth:`close`) exactly
    once.  The segment is **unlinked** when the count reaches zero.
    """

    def __init__(self, store: DecomposedStore) -> None:
        _, columns, row_sums = _fragment_layout(
            store.cardinality,
            store.dimensionality,
            store.format.np_dtype,
            row_sums=store.has_row_sums,
        )
        self._open(_end(columns, (row_sums,)))
        arrays = list(zip(columns, store._tails))
        if row_sums is not None:
            arrays.append((row_sums, store._row_sums.tail))
        try:
            for spec, array in arrays:
                spec.view(self._buffer)[:] = array
        except BaseException:
            self.release()  # a half-written segment goes
            raise
        self._spec = StoreSpec(
            segment=self.name,
            name=store.name,
            format_spec=store.format.spec,
            cardinality=store.cardinality,
            dimensionality=store.dimensionality,
            columns=columns,
            row_sums=row_sums,
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
        # Pools of one epoch start and stop on whichever thread serves.
        self._lock = threading.Lock()
        self._refs = 1

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

    # The creator's reference reads naturally as close().
    close = release

    def __enter__(self) -> "SharedStoreSegment":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


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
    )
    return store


def publish(store: DecomposedStore) -> SharedStoreSegment:
    """The segment a process pool over ``store`` attaches, with one reference
    for the caller: the live segment the store carries, else a copy."""
    carried = store.segment
    if carried is None or carried.references == 0:
        return SharedStoreSegment(store)
    return carried.acquire()


class AttachedStore:
    """Worker-side view of a published store: attach, rebuild, close.

    ``decomposed`` is a zero-copy numpy view into the shared segment;
    :meth:`close` drops the mapping (never the segment — that is the owner's
    unlink).
    """

    def __init__(self, spec: StoreSpec, *, cost: CostModel | None = None) -> None:
        self._shm = _attach(spec.segment)
        fmt = FragmentFormat.parse(spec.format_spec)
        if fmt.is_mapped:
            # The bytes already live in the (RAM-backed) segment; a mapped
            # residency would only make from_fragments spill copies to disk.
            fmt = FragmentFormat(dtype=fmt.dtype, residency="ram")
        buffer = self._shm.buf
        tails = [column.view(buffer) for column in spec.columns]
        row_sum_tail = spec.row_sums.view(buffer) if spec.row_sums is not None else None
        self.decomposed = DecomposedStore.from_fragments(
            tails,
            format=fmt,
            cost=cost,
            name=spec.name,
            row_sum_tail=row_sum_tail,
        )

    def close(self) -> None:
        """Drop this process's mapping of the segment (views die with it)."""
        self.decomposed = None
        self._shm.close()


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
