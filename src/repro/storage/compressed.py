"""8-bit approximated dimension fragments (Section 7.4, Figure 9, Table 4).

The paper shows that BOND composes with the approximation idea of the VA-file:
each double coefficient is replaced by an 8-bit approximation per dimension,
the branch-and-bound filter runs on the small approximate fragments, and a
refinement step on the exact vectors of the surviving candidates produces the
final answer.  Because the quantisation error is bounded per dimension, the
filter can use *error-adjusted* partial scores that never prune a true
top-k member.

:class:`CompressedFragment` quantises one dimension to ``2**bits`` uniform
cells between the observed minimum and maximum; it can reconstruct both an
approximate value and per-value lower/upper bounds on the original value.
:class:`CompressedStore` holds one compressed fragment per dimension next to
the exact :class:`~repro.storage.decomposed.DecomposedStore` used for
refinement.

A compressed store is a **base-snapshot** structure: its quantisation grid
(per-dimension min/max) is fixed when the store is built, so live updates
never mutate it.  Under the facade's mutability layer
(:mod:`repro.mutability`) the compressed backends answer over the base
snapshot of the current epoch and the delta tail is overlaid exactly on top;
``Index.reorganize()`` retires the store with its epoch and the next
compressed query quantises the merged collection afresh — which is also what
keeps the error-adjusted bounds valid (they are bounds over exactly the
collection the grid was built from).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.engine.bat import BAT
from repro.engine.cost import CostModel, COMPRESSED_BYTES, DOUBLE_BYTES
from repro.errors import StorageError
from repro.storage.decomposed import DecomposedStore


@dataclass
class CompressedFragment:
    """One dimension's coefficients quantised to ``2**bits`` uniform cells."""

    codes: np.ndarray
    minimum: float
    maximum: float
    bits: int

    @classmethod
    def from_values(cls, values: np.ndarray, *, bits: int = 8) -> "CompressedFragment":
        """Quantise ``values`` into ``2**bits`` cells spanning their range."""
        if bits < 1 or bits > 16:
            raise StorageError("compressed fragments support 1..16 bits per value")
        values = np.asarray(values, dtype=np.float64)
        minimum = float(values.min())
        maximum = float(values.max())
        levels = (1 << bits) - 1
        if maximum > minimum:
            scaled = (values - minimum) / (maximum - minimum) * levels
        else:
            scaled = np.zeros_like(values)
        dtype = np.uint8 if bits <= 8 else np.uint16
        codes = np.clip(np.rint(scaled), 0, levels).astype(dtype)
        return cls(codes=codes, minimum=minimum, maximum=maximum, bits=bits)

    def __len__(self) -> int:
        return int(self.codes.shape[0])

    @property
    def cell_width(self) -> float:
        """Width of one quantisation cell in the original value space."""
        levels = (1 << self.bits) - 1
        if self.maximum == self.minimum:
            return 0.0
        return (self.maximum - self.minimum) / levels

    def reconstruct(self) -> np.ndarray:
        """Approximate values (cell midpoints are not needed; codes map back linearly)."""
        return self.minimum + self.codes.astype(np.float64) * self.cell_width

    def value_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-value (lower, upper) bounds on the original coefficients.

        Rounding to the nearest level means the true value lies within half a
        cell of the reconstruction.
        """
        approx = self.reconstruct()
        half = self.cell_width / 2.0
        return approx - half, approx + half

    def storage_bytes(self) -> int:
        """Bytes of the code array plus the two range doubles."""
        return len(self) * self.codes.itemsize + 2 * DOUBLE_BYTES


class CompressedStore:
    """Approximate (quantised) dimension fragments over an exact store.

    Parameters
    ----------
    exact:
        The exact decomposed store; retained for the refinement step.
    bits:
        Bits per coefficient in the approximation (the paper uses 8).
    cost:
        Cost model for approximate-fragment reads.  Defaults to the exact
        store's model so filter and refinement costs accumulate together.
    """

    def __init__(
        self,
        exact: DecomposedStore,
        *,
        bits: int = 8,
        cost: CostModel | None = None,
    ) -> None:
        self._exact = exact
        self._bits = bits
        self._cost = cost if cost is not None else exact.cost
        # Quantise from the widened per-dimension columns rather than the
        # full matrix: the filter grid then reflects exactly the (possibly
        # narrow) logical collection the exact store scores, and building
        # over a lazy (mapped / narrow) store streams one column at a time
        # instead of materialising the whole widened matrix.
        self._fragments = [
            CompressedFragment.from_values(exact.widened_column(dim), bits=bits)
            for dim in range(exact.dimensionality)
        ]
        # Pre-resolved code arrays and quantisation grids for the fused
        # interval kernels: one contiguous code column per dimension plus the
        # per-dimension (minimum, maximum, cell width) as plain arrays.
        self._code_tails = [fragment.codes for fragment in self._fragments]
        self._minimums = np.array(
            [fragment.minimum for fragment in self._fragments], dtype=np.float64
        )
        self._maximums = np.array(
            [fragment.maximum for fragment in self._fragments], dtype=np.float64
        )
        self._cell_widths = np.array(
            [fragment.cell_width for fragment in self._fragments], dtype=np.float64
        )

    @classmethod
    def from_arrays(
        cls,
        exact: DecomposedStore,
        *,
        codes: Sequence[np.ndarray],
        minimums: np.ndarray,
        maximums: np.ndarray,
        bits: int = 8,
        cost: CostModel | None = None,
    ) -> "CompressedStore":
        """Assemble a store from already-quantised code columns and their grid.

        The attach path of :mod:`repro.cluster.shm`: a worker process that
        mapped the parent's code columns out of shared memory rebuilds the
        store around them instead of re-quantising — the codes *and* the
        per-dimension grid are the parent's own arrays, so every interval
        bound the filter computes is bitwise the parent's.  ``codes`` must
        hold one 1-D column per dimension of ``exact``, all of equal length.
        """
        if bits < 1 or bits > 16:
            raise StorageError("compressed fragments support 1..16 bits per value")
        codes = [np.asarray(column) for column in codes]
        if len(codes) != exact.dimensionality:
            raise StorageError(
                f"{len(codes)} code columns do not cover dimensionality "
                f"{exact.dimensionality}"
            )
        for column in codes:
            if column.ndim != 1 or column.shape[0] != exact.cardinality:
                raise StorageError("code columns must be 1-D and match the exact cardinality")
        minimums = np.asarray(minimums, dtype=np.float64)
        maximums = np.asarray(maximums, dtype=np.float64)
        if minimums.shape != (exact.dimensionality,) or maximums.shape != (exact.dimensionality,):
            raise StorageError("quantisation grids must hold one value per dimension")
        store = object.__new__(cls)
        store._exact = exact
        store._bits = bits
        store._cost = cost if cost is not None else exact.cost
        store._fragments = [
            CompressedFragment(
                codes=column,
                minimum=float(minimums[dim]),
                maximum=float(maximums[dim]),
                bits=bits,
            )
            for dim, column in enumerate(codes)
        ]
        store._code_tails = [fragment.codes for fragment in store._fragments]
        store._minimums = minimums
        store._maximums = maximums
        store._cell_widths = np.array(
            [fragment.cell_width for fragment in store._fragments], dtype=np.float64
        )
        return store

    @classmethod
    def row_slice(
        cls,
        parent: "CompressedStore",
        start: int,
        stop: int,
        *,
        exact: DecomposedStore,
        cost: CostModel | None = None,
    ) -> "CompressedStore":
        """A shard view over rows ``[start, stop)`` of ``parent``.

        The slice keeps the **parent's quantisation grid**: its code columns
        are zero-copy slices of the parent's code arrays and its per-dimension
        minimums / maximums / cell widths are the parent's (global) ones.
        Re-quantising the shard rows independently would move every cell
        boundary, so a sharded filter would accumulate different interval
        scores than the unsharded one — sharing the grid is what keeps
        sharded filter-and-refine results bitwise identical to the
        single-store engine.

        Parameters
        ----------
        parent:
            The store being sharded.
        start / stop:
            The shard's contiguous row range.
        exact:
            The shard's exact store (same rows) used for refinement; shard
            OIDs are local to this range.
        cost:
            Cost model for the shard's approximate reads; defaults to the
            exact shard's model so filter and refinement accumulate together.
        """
        if not (0 <= start < stop <= parent.cardinality):
            raise StorageError(
                f"row slice [{start}, {stop}) outside collection of size {parent.cardinality}"
            )
        if exact.cardinality != stop - start or exact.dimensionality != parent.dimensionality:
            raise StorageError(
                "the exact shard's shape does not match the requested row slice"
            )
        shard = object.__new__(cls)
        shard._exact = exact
        shard._bits = parent._bits
        shard._cost = cost if cost is not None else exact.cost
        shard._fragments = [
            CompressedFragment(
                codes=fragment.codes[start:stop],
                minimum=fragment.minimum,
                maximum=fragment.maximum,
                bits=fragment.bits,
            )
            for fragment in parent._fragments
        ]
        shard._code_tails = [fragment.codes for fragment in shard._fragments]
        # Global grids, shared with the parent (read-only by contract).
        shard._minimums = parent._minimums
        shard._maximums = parent._maximums
        shard._cell_widths = parent._cell_widths
        return shard

    @property
    def exact(self) -> DecomposedStore:
        """The exact store used for refinement."""
        return self._exact

    @property
    def bits(self) -> int:
        """Bits per approximated coefficient."""
        return self._bits

    @property
    def cardinality(self) -> int:
        """Number of vectors."""
        return self._exact.cardinality

    @property
    def dimensionality(self) -> int:
        """Number of dimensions."""
        return self._exact.dimensionality

    @property
    def cost(self) -> CostModel:
        """The cost model approximate reads are charged to."""
        return self._cost

    @property
    def minimums(self) -> np.ndarray:
        """Per-dimension minima of the stored (true) values."""
        return self._minimums

    @property
    def maximums(self) -> np.ndarray:
        """Per-dimension maxima of the stored (true) values."""
        return self._maximums

    @property
    def cell_widths(self) -> np.ndarray:
        """Per-dimension quantisation cell widths."""
        return self._cell_widths

    def fragment(self, dimension: int) -> CompressedFragment:
        """Return the compressed fragment of ``dimension`` (charging its read)."""
        if dimension < 0 or dimension >= self.dimensionality:
            raise StorageError(
                f"dimension {dimension} outside dimensionality {self.dimensionality}"
            )
        fragment = self._fragments[dimension]
        self._cost.charge_scan(len(fragment), COMPRESSED_BYTES)
        return fragment

    def approximate_fragment_bat(self, dimension: int) -> BAT:
        """The reconstructed (approximate) values of one dimension as a BAT."""
        fragment = self.fragment(dimension)
        return BAT.dense(fragment.reconstruct(), name=f"{self._exact.name}.c{dimension}")

    def bounded_fragment(self, dimension: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-vector (lower, upper) bounds of one dimension's true values."""
        return self.fragment(dimension).value_bounds()

    def code_columns(
        self, dimensions: np.ndarray | Sequence[int], *, charge: bool = True
    ) -> list[np.ndarray]:
        """Zero-copy quantisation-code columns of several dimensions.

        The storage primitive behind the fused interval kernels: one pruning
        period of m compressed fragments comes back as m contiguous code
        arrays in a single call, charged as one fused block scan of 1-byte
        coefficients (identical totals to m per-dimension
        :meth:`fragment` reads).  ``charge=False`` lets a batch engine charge
        a shared read across queries itself.
        """
        dims = np.asarray(dimensions, dtype=np.int64)
        if dims.size and (int(dims.min()) < 0 or int(dims.max()) >= self.dimensionality):
            raise StorageError(
                f"block dimensions outside dimensionality {self.dimensionality}"
            )
        if charge:
            self._cost.charge_block_scan(self.cardinality, int(dims.size), COMPRESSED_BYTES)
        code_tails = self._code_tails
        return [code_tails[int(dimension)] for dimension in dims]

    def code_row_block(
        self,
        dimensions: np.ndarray | Sequence[int],
        oids: np.ndarray,
        *,
        charge: str | None = "positional",
    ) -> np.ndarray:
        """Candidate codes of several dimensions as one ``(m, n)`` row block.

        Row ``j`` holds dimension ``dimensions[j]``'s codes for every OID —
        the layout the fused interval kernels consume with broadcast
        expressions.  ``charge`` selects the accounting: ``"positional"``
        charges m positional fetches per candidate (the post-switch-over
        access pattern), ``"full"`` charges m full sequential fragment scans
        (the physical reality while the filter still streams whole columns),
        and ``None`` charges nothing (a batch engine already paid).
        """
        dims = np.asarray(dimensions, dtype=np.int64)
        if dims.size and (int(dims.min()) < 0 or int(dims.max()) >= self.dimensionality):
            raise StorageError(
                f"block dimensions outside dimensionality {self.dimensionality}"
            )
        oid_array = np.asarray(oids, dtype=np.int64)
        if charge == "positional":
            self._cost.charge_random_access(
                int(dims.size) * len(oid_array), COMPRESSED_BYTES
            )
        elif charge == "full":
            self._cost.charge_block_scan(self.cardinality, int(dims.size), COMPRESSED_BYTES)
        elif charge is not None:
            raise StorageError(f"unknown row-block charge mode {charge!r}")
        code_tails = self._code_tails
        block = np.empty((int(dims.size), len(oid_array)), dtype=self.code_dtype)
        for position, dimension in enumerate(dims):
            # The method skips np.take's dispatch (~0.8 us of ~1.5 us per call
            # on a few hundred survivors); it runs once per column per round.
            code_tails[int(dimension)].take(oid_array, out=block[position])
        return block

    @property
    def coefficient_bytes(self) -> int:
        """Bytes one stored (quantised) coefficient streams through the cost
        model — the compressed counterpart of
        :attr:`DecomposedStore.coefficient_bytes`."""
        return COMPRESSED_BYTES

    @property
    def code_dtype(self) -> np.dtype:
        """Dtype of the stored quantisation codes (uint8 up to 8 bits)."""
        return self._code_tails[0].dtype

    def max_quantization_error(self, dimension: int) -> float:
        """Half a cell width: the largest possible per-value reconstruction error."""
        return self._fragments[dimension].cell_width / 2.0

    def storage_bytes(self) -> int:
        """Bytes of all compressed fragments (excluding the exact store)."""
        return sum(fragment.storage_bytes() for fragment in self._fragments)

    def compression_ratio(self) -> float:
        """Exact store bytes divided by compressed bytes (≈ 8 for 8-bit codes)."""
        return self._exact.storage_bytes() / self.storage_bytes()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CompressedStore |{self.cardinality}| x {self.dimensionality} @ {self._bits} bits>"
        )
