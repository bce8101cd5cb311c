"""The vertically decomposed (DSM) store that BOND runs on.

A :class:`DecomposedStore` fragments an ``|X| x N`` matrix of feature vectors
into N dimension fragments, each a :class:`~repro.engine.bat.BAT` with a
virtual dense head holding the coefficients of one dimension for every vector
(Figure 3a of the paper).  The store hands out fragments one at a time —
that independent per-dimension access is exactly what BOND exploits — and
charges fragment reads to a shared :class:`~repro.engine.cost.CostModel`.

Fragment format
---------------
The physical shape of a fragment is a :class:`~repro.storage.formats.FragmentFormat`:
coefficients may be stored as float64 (the identity-preserving default),
float32 or float16, resident in RAM or as read-only memory-mapped files.
Narrow coefficients are quantised **once** at ingest; every access path that
feeds arithmetic (gathers, blocks, single columns) widens to float64 — an
exact cast — so partial scores and pruning bounds are computed over the
widened collection and branch-and-bound stays internally exact (see the
:mod:`repro.storage.formats` contract).  The zero-copy column accessors
(:meth:`fragment_columns`, :meth:`fragment_tail`) hand out the *raw* narrow
columns so the fused kernels can stream half- or quarter-width fragments
straight into their float64 accumulators.  Cost charges use the format's
coefficient width: a float32 fragment scan moves half the bytes of a float64
one, which is the whole point.

A store is immutable: OID ``i`` is row ``i`` for its whole life.  Updates
live beside it in the index's delta tail (:mod:`repro.mutability.tail`, the
paper's Section 6.2), and a reorganisation builds the next store.
"""

from __future__ import annotations

import pathlib
import tempfile
from typing import Iterator, Sequence

import numpy as np

from repro.engine.bat import BAT
from repro.engine.cost import CostModel, DOUBLE_BYTES
from repro.errors import StorageError
from repro.storage.formats import FragmentFormat


class DecomposedStore:
    """Vertically fragmented storage of a feature-vector collection.

    Parameters
    ----------
    vectors:
        The ``|X| x N`` matrix of feature vectors (rows are vectors).
    cost:
        Cost model charged by fragment reads.  A private model is created
        when omitted.
    name:
        Label used in fragment names and reprs.
    precompute_row_sums:
        Whether to materialise the per-vector total ``T(v)`` (needed by the
        ``Ev`` bound of Section 4.3, which the paper materialises as an extra
        table).  Costs one extra column of doubles (row sums stay float64
        for every format — they are bound inputs, not streamed fragments).
    format:
        The fragment :class:`~repro.storage.formats.FragmentFormat` (or its
        ``"float32/mmap"``-style spec).  Defaults to ``float64/ram``, the
        bitwise-identical seed behaviour.  ``mmap`` residency spills the
        fragment columns to a private temporary directory and maps them
        read-only (persisted collections are mapped in place by
        :func:`~repro.storage.persistence.load_decomposed` instead).
    """

    def __init__(
        self,
        vectors: np.ndarray,
        *,
        cost: CostModel | None = None,
        name: str = "collection",
        precompute_row_sums: bool = True,
        format: FragmentFormat | str | None = None,
    ) -> None:
        fragment_format = FragmentFormat.coerce(format)
        matrix = vector_matrix(vectors)
        # Each fragment owns a *contiguous* copy of its column: vertical
        # decomposition is a physical layout, and a strided view into the
        # row-major matrix would silently read with row-store locality —
        # every fragment scan would drag the neighbouring dimensions through
        # the cache, defeating the paper's point.
        fragments = np.empty(matrix.shape[::-1], dtype=fragment_format.np_dtype)
        self._ingest(
            matrix,
            fragments,
            None,
            fragment_format=fragment_format,
            cost=cost,
            name=name,
            precompute_row_sums=precompute_row_sums,
            segment=None,
        )

    def _ingest(
        self,
        matrix: np.ndarray,
        fragments: np.ndarray,
        row_sum_column: np.ndarray | None,
        *,
        fragment_format: FragmentFormat,
        cost: CostModel | None,
        name: str,
        precompute_row_sums: bool,
        segment,
    ) -> None:
        """Decompose ``matrix`` into ``fragments`` (a ``(dimensionality,
        stride)`` array, ``stride >= cardinality``) and assemble the store
        over it.  Narrow formats quantise here, once; all later arithmetic
        runs over the float64-widened values of exactly these coefficients.
        ``row_sum_column``, when given, receives the ``T(v)`` column."""
        self.name = name
        self._cost = cost if cost is not None else CostModel()
        self._cardinality = int(matrix.shape[0])
        self._dimensionality = int(matrix.shape[1])
        _decompose(matrix, fragments)
        tails = list(fragments[:, : self._cardinality])
        row_sum_tail = None
        if fragment_format.is_identity:
            if precompute_row_sums:
                row_sum_tail = matrix.sum(axis=1)
            # The seed-identical fast path keeps the row-major matrix for
            # whole-row access (unless it is about to be mapped out).
            retained_matrix = matrix if not fragment_format.is_mapped else None
        else:
            retained_matrix = None
            if precompute_row_sums:
                # T(v) over the *widened* quantised values (C-order, same
                # per-row reduction a later lazy widening would produce), so
                # the Ev bound sees the collection the fragments actually hold.
                row_sum_tail = self._widened_from(tails).sum(axis=1)
        if row_sum_column is not None:
            row_sum_column[:] = row_sum_tail
            row_sum_tail = row_sum_column
        mmap_dir = None
        flat = (fragments.reshape(-1), int(fragments.shape[1]), 0)
        if fragment_format.is_mapped:
            mmap_dir, tails = _spill_to_mmap(tails, name)
            flat = None
        self._assemble(
            tails,
            fragment_format=fragment_format,
            row_sum_tail=row_sum_tail,
            matrix=retained_matrix,
            mmap_dir=mmap_dir,
            mmap_owner=None,
            flat=flat,
            segment=segment,
        )

    # -- alternate constructors ----------------------------------------------

    @classmethod
    def decompose_into(
        cls,
        vectors: np.ndarray,
        fragments: np.ndarray,
        row_sums: np.ndarray,
        *,
        segment,
        cost: CostModel | None = None,
        name: str = "collection",
        format: FragmentFormat | str | None = None,
    ) -> "DecomposedStore":
        """Decompose ``vectors`` into memory the caller owns.

        The shared-memory path of :func:`repro.cluster.shm.decompose_shared`:
        ``fragments`` is a writable ``(dimensionality, stride)`` array of the
        format's dtype (``stride >= cardinality``, so every fragment can start
        on an aligned boundary) and ``row_sums`` a writable float64 column of
        ``cardinality`` values.  The store is bitwise the one ``__init__``
        builds — same transpose, same row sums, the caller's row matrix kept
        for the identity format — but its tails, flat array and row-sum column
        are views into that memory, and ``segment`` (its owner) is carried as
        :attr:`segment`.  RAM-resident formats only.
        """
        fragment_format = FragmentFormat.coerce(format)
        if fragment_format.is_mapped:
            raise StorageError(f"a {fragment_format.spec} store cannot live in caller memory")
        store = object.__new__(cls)
        store._ingest(
            vector_matrix(vectors),
            fragments,
            row_sums,
            fragment_format=fragment_format,
            cost=cost,
            name=name,
            precompute_row_sums=True,
            segment=segment,
        )
        return store

    @classmethod
    def from_fragments(
        cls,
        tails: Sequence[np.ndarray],
        *,
        format: FragmentFormat | str | None = None,
        cost: CostModel | None = None,
        name: str = "collection",
        row_sum_tail: np.ndarray | None = None,
    ) -> "DecomposedStore":
        """Assemble a store directly from per-dimension fragment tails.

        The loading path of :func:`~repro.storage.persistence.load_decomposed`:
        fragments read (or memory-mapped) from disk become the store's columns
        without ever materialising the row-major matrix — which is what keeps
        opening a larger-than-RAM mapped collection cheap.  Tails must already
        be in the format's dtype; ``mmap`` formats spill any RAM-resident
        tails to a private temporary directory (tails that are already
        memory-mapped are adopted as-is).
        """
        fragment_format = FragmentFormat.coerce(format)
        tails = [np.asarray(tail) for tail in tails]
        if not tails:
            raise StorageError("the collection must contain at least one vector and one dimension")
        cardinality = int(tails[0].shape[0])
        if cardinality == 0:
            raise StorageError("the collection must contain at least one vector and one dimension")
        for tail in tails:
            if tail.ndim != 1 or tail.shape[0] != cardinality:
                raise StorageError("fragment tails must be 1-D and of equal length")
            if tail.dtype != fragment_format.np_dtype:
                raise StorageError(
                    f"fragment tail dtype {tail.dtype} does not match format "
                    f"{fragment_format.spec} ({fragment_format.np_dtype})"
                )
        store = object.__new__(cls)
        store.name = name
        store._cost = cost if cost is not None else CostModel()
        store._cardinality = cardinality
        store._dimensionality = len(tails)
        mmap_dir = None
        if fragment_format.is_mapped and not all(_is_mapped(tail) for tail in tails):
            mmap_dir, tails = _spill_to_mmap(tails, name)
        store._assemble(
            tails,
            fragment_format=fragment_format,
            row_sum_tail=row_sum_tail,
            matrix=None,
            mmap_dir=mmap_dir,
            mmap_owner=None,
        )
        return store

    @classmethod
    def row_slice(
        cls,
        parent: "DecomposedStore",
        start: int,
        stop: int,
        *,
        cost: CostModel | None = None,
        name: str | None = None,
    ) -> "DecomposedStore":
        """A zero-copy shard view over rows ``[start, stop)`` of ``parent``.

        Every fragment tail of the slice is a contiguous view of the parent's
        column — including memory-mapped ones, so sharding a mapped store
        never copies or faults coefficients in.  The row-sum column is sliced
        from the parent's (per-row sums are independent of the row subset, so
        the slice is bitwise identical to recomputing them), and shard OIDs
        are local to the range (global OID = local OID + ``start``).  The
        slice holds a reference to the parent, keeping any temporary mapping
        directory alive.
        """
        if not (0 <= start < stop <= parent.cardinality):
            raise StorageError(
                f"row slice [{start}, {stop}) outside collection of size {parent.cardinality}"
            )
        shard = object.__new__(cls)
        shard.name = name if name is not None else f"{parent.name}[{start}:{stop}]"
        shard._cost = cost if cost is not None else CostModel()
        shard._cardinality = stop - start
        shard._dimensionality = parent._dimensionality
        row_sum_tail = (
            parent._row_sums.tail[start:stop] if parent._row_sums is not None else None
        )
        flat = parent._flat
        if flat is not None:
            flat = (flat[0], flat[1], flat[2] + start)
        shard._assemble(
            [tail[start:stop] for tail in parent._tails],
            fragment_format=parent._format,
            row_sum_tail=row_sum_tail,
            matrix=parent._matrix[start:stop] if parent._matrix is not None else None,
            mmap_dir=None,
            mmap_owner=parent,
            flat=flat,
        )
        return shard

    def _assemble(
        self,
        tails: list[np.ndarray],
        *,
        fragment_format: FragmentFormat,
        row_sum_tail: np.ndarray | None,
        matrix: np.ndarray | None,
        mmap_dir,
        mmap_owner,
        flat: tuple[np.ndarray, int, int] | None = None,
        segment=None,
    ) -> None:
        """Shared tail-of-construction: wrap tails in BATs and init bookkeeping.

        ``flat`` is ``(array, stride, offset)`` when every tail is a row
        range of one contiguous fragment array (the ingest path and its row
        slices): coefficient ``(dimension, oid)`` then sits at
        ``array[dimension * stride + offset + oid]``, which lets
        :meth:`gather_block` fetch a restricted block with a single ``take``.
        Stores assembled from independent tails (loaded, mapped or
        shared-memory fragments) pass ``None``.  ``segment`` is the
        shared-memory segment the fragments were decomposed into, if any.
        """
        self._format = fragment_format
        self._flat = flat
        self._segment = segment
        self._coefficient_bytes = fragment_format.coefficient_bytes
        self._alignment_token = id(self)
        self._matrix = matrix
        self._mmap_dir = mmap_dir
        self._mmap_owner = mmap_owner
        self._fragments = [
            BAT.dense(tail, alignment=self._alignment_token, name=f"{self.name}.d{dim}")
            for dim, tail in enumerate(tails)
        ]
        # Raw tail arrays, pre-resolved for the block-gather hot path.
        self._tails = [fragment.tail for fragment in self._fragments]
        self._row_sums: BAT | None = None
        if row_sum_tail is not None:
            self._row_sums = BAT.dense(
                np.asarray(row_sum_tail, dtype=np.float64),
                alignment=self._alignment_token,
                name=f"{self.name}.rowsum",
            )

    def _widened_from(self, tails: Sequence[np.ndarray]) -> np.ndarray:
        """The float64 C-order matrix of the (possibly narrow) tails."""
        widened = np.empty((self._cardinality, self._dimensionality), dtype=np.float64)
        for dimension, tail in enumerate(tails):
            widened[:, dimension] = tail
        return widened

    # -- shape ---------------------------------------------------------------

    @property
    def cardinality(self) -> int:
        """Number of vectors in the collection."""
        return self._cardinality

    @property
    def dimensionality(self) -> int:
        """Number of dimensions per vector."""
        return self._dimensionality

    def __len__(self) -> int:
        return self.cardinality

    @property
    def cost(self) -> CostModel:
        """The cost model fragment reads are charged to."""
        return self._cost

    @property
    def format(self) -> FragmentFormat:
        """The fragment format (dtype x residency) of this store."""
        return self._format

    @property
    def coefficient_bytes(self) -> int:
        """Bytes per stored coefficient — what fragment reads are charged at."""
        return self._coefficient_bytes

    @property
    def segment(self):
        """The shared-memory segment this store was decomposed into, or
        ``None`` for a private store.  A process-sharded index builds its
        store in one (:func:`repro.cluster.shm.decompose_shared`), and every
        process pool attaches that segment instead of copying the fragments."""
        return self._segment

    # -- fragment access ------------------------------------------------------

    def fragment(self, dimension: int, *, charge: bool = True) -> BAT:
        """Return the dimension fragment for ``dimension``.

        ``charge=True`` (the default) charges a full sequential read of the
        fragment to the cost model — this is the access BOND performs in its
        early, bitmap-based iterations.  The tail carries the store's
        (possibly narrow) dtype; consumers that feed arithmetic widen to
        float64.
        """
        self._check_dimension(dimension)
        fragment = self._fragments[dimension]
        if charge:
            self._cost.charge_scan(len(fragment), self._coefficient_bytes)
        return fragment

    def fragment_tail(self, dimension: int) -> np.ndarray:
        """The raw (possibly narrow / memory-mapped) tail of one fragment.

        Uncharged zero-copy access for consumers that do their own cost
        accounting (persistence, the IVF partition build).
        """
        self._check_dimension(dimension)
        return self._tails[dimension]

    def widened_column(self, dimension: int) -> np.ndarray:
        """One fragment's logical (float64-widened) values, uncharged.

        For float64 formats this is the tail itself (no copy); narrow tails
        are cast exactly.  The quantisation path of
        :class:`~repro.storage.compressed.CompressedStore` builds its code
        grids from this, so compressed filters see the same logical
        collection the exact engines score.
        """
        self._check_dimension(dimension)
        return np.asarray(self._tails[dimension], dtype=np.float64)

    def gather(self, dimension: int, oids: np.ndarray | Sequence[int]) -> np.ndarray:
        """Return fragment values for the given OIDs (positional gathers)."""
        self._check_dimension(dimension)
        oid_array = np.asarray(oids, dtype=np.int64)
        self._cost.charge_random_access(len(oid_array), self._coefficient_bytes)
        return np.asarray(self._tails[dimension][oid_array], dtype=np.float64)

    def gather_block(
        self,
        dimensions: np.ndarray | Sequence[int],
        oids: np.ndarray | None = None,
        *,
        charge: str | None = "full",
    ) -> np.ndarray:
        """Multi-fragment gather: the values of several dimensions in one call.

        This is the storage primitive behind the fused block-scan kernels: one
        pruning period of m fragments comes back as a single ``(rows, m)``
        float64 array instead of m per-dimension round trips (narrow
        coefficients are widened — an exact cast).  The block is
        column-contiguous, whatever the row count and however the store was
        assembled.

        Parameters
        ----------
        dimensions:
            The m dimension indices to gather (block columns, in this order).
        oids:
            Candidate OIDs to restrict the rows to; ``None`` returns every row.
        charge:
            How to account the access: ``"full"`` charges m full sequential
            fragment scans (the bitmap-mode physical reality — the whole
            column streams past the filter), ``"candidates"`` charges m
            sequential scans of the restricted rows (positional mode), and
            ``None`` charges nothing (the caller already paid, e.g. a batch
            engine sharing one read across queries).
        """
        dims = np.asarray(dimensions, dtype=np.int64)
        if dims.size and (int(dims.min()) < 0 or int(dims.max()) >= self.dimensionality):
            raise StorageError(
                f"block dimensions outside collection dimensionality {self.dimensionality}"
            )
        rows = self.cardinality if oids is None else int(len(oids))
        if charge == "full":
            self._cost.charge_block_scan(self.cardinality, int(dims.size), self._coefficient_bytes)
        elif charge == "candidates":
            self._cost.charge_block_scan(rows, int(dims.size), self._coefficient_bytes)
        elif charge is not None:
            raise StorageError(f"unknown block charge mode {charge!r}")
        # Column-major output: the block is built as m contiguous rows and
        # handed out transposed, so each column of the result is contiguous
        # and the kernels (and the left-to-right column folds) stream it.
        oid_array = None if oids is None else np.asarray(oids, dtype=np.int64)
        if oid_array is not None and self._flat is not None:
            # One take over the single fragment array — no per-column round
            # trips, and never a row of the row-major matrix dragged through
            # the cache for the sake of m of its coefficients.
            array, stride, offset = self._flat
            block = array.take((dims * stride + offset)[:, None] + oid_array)
            return np.asarray(block, dtype=np.float64).T
        block = np.empty((dims.size, rows), dtype=np.float64)
        for position, dimension in enumerate(dims):
            tail = self._tails[dimension]
            block[position] = tail if oid_array is None else tail[oid_array]
        return block.T

    def fragment_columns(
        self, dimensions: np.ndarray | Sequence[int], *, charge: bool = True
    ) -> list[np.ndarray]:
        """Zero-copy contiguous value columns of several dimensions.

        The fastest access path of the store: while every vector is still a
        candidate no gather is needed at all, so the block-scan kernels can
        stream the fragments in place — in the store's native dtype, which is
        how narrow formats actually halve or quarter the streamed bytes (the
        kernels accumulate into float64, an exact widening).  Charged as one
        fused block scan at the format's coefficient width (``charge=False``
        lets a batch engine charge a shared read itself).
        """
        dims = np.asarray(dimensions, dtype=np.int64)
        if dims.size and (int(dims.min()) < 0 or int(dims.max()) >= self.dimensionality):
            raise StorageError(
                f"block dimensions outside collection dimensionality {self.dimensionality}"
            )
        if charge:
            self._cost.charge_block_scan(self.cardinality, int(dims.size), self._coefficient_bytes)
        tails = self._tails
        return [tails[int(dimension)] for dimension in dims]

    def gather_matrix(self, oids: np.ndarray | Sequence[int], dimensions: Sequence[int] | None = None) -> np.ndarray:
        """Return the float64 sub-matrix of the given OIDs restricted to ``dimensions``.

        Used by refinement steps that need the exact (widened) vectors of a
        small candidate set.
        """
        oid_array = np.asarray(oids, dtype=np.int64)
        if dimensions is None:
            dims = np.arange(self.dimensionality, dtype=np.int64)
        else:
            dims = np.asarray(dimensions, dtype=np.int64)
        if self._matrix is not None:
            selected = (
                self._matrix[oid_array]
                if dimensions is None
                else self._matrix[np.ix_(oid_array, dims)]
            )
        else:
            selected = np.empty((oid_array.shape[0], dims.size), dtype=np.float64)
            tails = self._tails
            for position, dimension in enumerate(dims):
                selected[:, position] = tails[dimension][oid_array]
        self._cost.charge_random_access(selected.size, self._coefficient_bytes)
        return selected

    def iter_fragments(self, order: Sequence[int] | None = None) -> Iterator[tuple[int, BAT]]:
        """Iterate ``(dimension, fragment)`` pairs in the given order."""
        dimensions = range(self.dimensionality) if order is None else order
        for dimension in dimensions:
            yield dimension, self.fragment(dimension)

    @property
    def has_row_sums(self) -> bool:
        """Whether the ``T(v)`` column is materialised (no cost charged)."""
        return self._row_sums is not None

    def row_sums(self) -> BAT:
        """The materialised ``T(v)`` column (per-vector total, always float64).

        Raises :class:`StorageError` if the store was created with
        ``precompute_row_sums=False`` — the Ev bound then cannot be used
        without first calling :meth:`materialize_row_sums`.
        """
        if self._row_sums is None:
            raise StorageError(
                "row sums were not materialised; create the store with "
                "precompute_row_sums=True or call materialize_row_sums()"
            )
        self._cost.charge_scan(len(self._row_sums), DOUBLE_BYTES)
        return self._row_sums

    def materialize_row_sums(self) -> BAT:
        """Materialise (and return) the ``T(v)`` column if not already present."""
        if self._row_sums is None:
            source = self._matrix if self._matrix is not None else self._widened_from(self._tails)
            self._row_sums = BAT.dense(
                source.sum(axis=1),
                alignment=self._alignment_token,
                name=f"{self.name}.rowsum",
            )
        return self._row_sums

    # -- whole-collection access (used by baselines / ground truth) -----------

    @property
    def matrix(self) -> np.ndarray:
        """The float64 logical matrix (no cost charged; intended for ground truth).

        For the default in-RAM float64 format this is the ingested matrix
        itself.  For narrow or memory-mapped formats it is materialised (and
        cached) from the fragment tails on first access — deliberately not on
        the query path, so answering from a larger-than-RAM mapped store
        never builds it; only explicit ground-truth / export access pays.
        """
        if self._matrix is None:
            self._matrix = self._widened_from(self._tails)
        return self._matrix

    def vector(self, oid: int) -> np.ndarray:
        """Return one full (widened) vector by OID (charged as N random accesses)."""
        if oid < 0 or oid >= self.cardinality:
            raise StorageError(f"OID {oid} outside collection of size {self.cardinality}")
        self._cost.charge_random_access(self.dimensionality, self._coefficient_bytes)
        if self._matrix is not None:
            return self._matrix[oid]
        row = np.empty(self.dimensionality, dtype=np.float64)
        for dimension, tail in enumerate(self._tails):
            row[dimension] = tail[oid]
        return row

    # -- storage accounting ----------------------------------------------------

    def storage_bytes(self) -> int:
        """Total bytes of the fragments plus the optional row-sum column."""
        total = sum(fragment.storage_bytes() for fragment in self._fragments)
        if self._row_sums is not None:
            total += self._row_sums.storage_bytes()
        return total

    def storage_overhead_ratio(self) -> float:
        """Storage relative to the plain row-major matrix of doubles.

        The paper claims "practically no storage overhead"; with virtual OIDs
        the only overhead of the default format is the optional ``T(v)``
        column, i.e. a factor of ``(N + 1) / N``.  Narrow formats land below
        1: the fragments themselves shrink by the dtype ratio.
        """
        base = self.cardinality * self.dimensionality * DOUBLE_BYTES
        return self.storage_bytes() / base

    # -- helpers -----------------------------------------------------------------

    def _check_dimension(self, dimension: int) -> None:
        if dimension < 0 or dimension >= self.dimensionality:
            raise StorageError(
                f"dimension {dimension} outside collection dimensionality {self.dimensionality}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DecomposedStore {self.name!r} |{self.cardinality}| x {self.dimensionality}"
            f" [{self._format.spec}]>"
        )


#: Row-block height of the ingest transposition: 1,024 rows x 166 float64
#: dimensions is ~1.3 MB, so both the row-major source block and the strided
#: destination stay cache-resident while the block is turned.
_DECOMPOSE_BLOCK_ROWS = 1024


def _decompose(matrix: np.ndarray, fragments: np.ndarray) -> None:
    """Write the fragments of ``matrix`` into ``fragments[:, :cardinality]``.

    Row ``d`` of ``fragments`` receives the contiguous fragment of dimension
    ``d`` in its dtype (the assignment casts exactly like ``astype``).
    Turning the matrix in row blocks reads and writes every cache line once;
    one strided column copy per dimension re-reads the whole matrix
    ``dimensionality / 8`` times.
    """
    cardinality = matrix.shape[0]
    for start in range(0, cardinality, _DECOMPOSE_BLOCK_ROWS):
        stop = min(start + _DECOMPOSE_BLOCK_ROWS, cardinality)
        fragments[:, start:stop] = matrix[start:stop].T


def vector_matrix(vectors: np.ndarray) -> np.ndarray:
    """``vectors`` as the float64 ``|X| x N`` matrix a store ingests, or a
    :class:`~repro.errors.StorageError` if it is not a non-empty 2-D one."""
    matrix = np.asarray(vectors, dtype=np.float64)
    if matrix.ndim != 2:
        raise StorageError(f"expected a 2-D vector matrix, got shape {matrix.shape}")
    if matrix.shape[0] == 0 or matrix.shape[1] == 0:
        raise StorageError("the collection must contain at least one vector and one dimension")
    return matrix


def _is_mapped(array: np.ndarray) -> bool:
    """Whether an array (or its base) is backed by a :class:`numpy.memmap`."""
    while array is not None:
        if isinstance(array, np.memmap):
            return True
        array = array.base
    return False


def _spill_to_mmap(
    tails: list[np.ndarray], name: str
) -> tuple[tempfile.TemporaryDirectory, list[np.ndarray]]:
    """Write tails to a private temp directory and map them back read-only.

    The returned :class:`~tempfile.TemporaryDirectory` must be kept alive by
    the store for the lifetime of the mappings (deleting an open mapping's
    file is safe on POSIX, but there is no reason to race the OS).
    """
    safe = "".join(ch if ch.isalnum() or ch in "-_" else "-" for ch in name) or "store"
    mmap_dir = tempfile.TemporaryDirectory(prefix=f"repro-{safe}-fragments-")
    base = pathlib.Path(mmap_dir.name)
    mapped: list[np.ndarray] = []
    for dimension, tail in enumerate(tails):
        path = base / f"dim_{dimension:05d}.col"
        np.ascontiguousarray(tail).tofile(path)
        mapped.append(np.memmap(path, dtype=tail.dtype, mode="r"))
    return mmap_dir, mapped
