"""Per-metric fused *interval* block kernels over quantised fragments.

The filter phase of filter-and-refine search (Section 7.4) accumulates
interval partial scores — a lower and an upper bound per candidate — from
quantised dimension fragments.  A code can take only ``2**bits`` values, so
per pruning period a kernel evaluates each active dimension's (lower, upper)
contribution once per *possible code* — a contribution table — and then folds
the candidates' codes in by lookup: one ``take`` and one add per code.  The
metric-specific part of a kernel is only its contribution formula
(:meth:`IntervalBlockKernel.contribution_interval`).

Lower and upper travel together as one ``complex128`` value (real part =
lower, imaginary part = upper): one lookup fetches both, one add folds both,
and the searcher's accumulator is a single interleaved array.

Bitwise equivalence contract
----------------------------
Every kernel must accumulate, for column ``j``, exactly the float64 values
that the reference per-dimension sequence

.. code-block:: python

    lower_values, upper_values = fragment.value_bounds()          # dequantise
    low, up = contribution_interval(metric, lower_values, upper_values, q_j)
    score_lower += low
    score_upper += up

would accumulate — same operations, same operand order — so fused filter runs
are bit-for-bit identical to the seed loop.  A table entry is that sequence
applied to the code itself (every operation is elementwise, so evaluating it
on the code grid and looking the result up is bitwise the same as evaluating
it on the stored codes), and complex addition adds the real and imaginary
parts independently.  ``tests/test_compressed_fused.py`` enforces the
contract with ``np.array_equal``.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.metrics.base import Metric
from repro.metrics.euclidean import EuclideanSimilarity, SquaredEuclidean
from repro.metrics.histogram import HistogramIntersection
from repro.metrics.weighted import WeightedSquaredEuclidean


def contribution_interval(
    metric: Metric,
    lower_values: np.ndarray,
    upper_values: np.ndarray,
    query_value: float,
    *,
    dimension: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Bounds on one dimension's contribution given per-value intervals.

    For histogram intersection ``min(h, q)`` is monotone in ``h``, so the
    interval maps directly.  For (weighted) squared Euclidean the contribution
    ``w (h - q)^2`` is not monotone: it is zero when the query lies inside the
    interval and otherwise attains its extremes at the interval endpoints.
    """
    if isinstance(metric, HistogramIntersection):
        return (
            metric.contributions(lower_values, query_value, dimension=dimension),
            metric.contributions(upper_values, query_value, dimension=dimension),
        )
    at_lower = metric.contributions(lower_values, query_value, dimension=dimension)
    at_upper = metric.contributions(upper_values, query_value, dimension=dimension)
    upper = np.maximum(at_lower, at_upper)
    inside = (lower_values <= query_value) & (query_value <= upper_values)
    lower = np.where(inside, 0.0, np.minimum(at_lower, at_upper))
    return lower, upper


class IntervalWorkspace:
    """Reusable scratch for interval kernels: one interleaved column buffer.

    One workspace per searcher: the buffer is lazily grown to the largest
    column seen and handed out as views, so full-height lookups land in it
    without allocating.
    """

    def __init__(self) -> None:
        self._values = np.empty(0, dtype=np.complex128)

    def values(self, count: int) -> np.ndarray:
        """A ``complex128`` view of length ``count`` (real = lower, imag = upper)."""
        if self._values.shape[0] < count:
            self._values = np.empty(count, dtype=np.complex128)
        return self._values[:count]

    def value_buffers(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) contiguous float64 views of length ``count``, the
        two halves of the memory behind :meth:`values` (which they clobber)."""
        flat = self.values(count).view(np.float64)
        return flat[:count], flat[count:]


def dequantize_bounds(
    codes: np.ndarray,
    minimum: float | np.ndarray,
    cell_width: float | np.ndarray,
    lower_out: np.ndarray,
    upper_out: np.ndarray,
) -> None:
    """Turn quantisation codes into per-value (lower, upper) bounds.

    Reproduces ``CompressedFragment.value_bounds()`` bit for bit —
    ``approx = minimum + codes * cell_width`` then ``approx ∓ cell_width/2`` —
    with every intermediate landing in the caller-provided output buffers.
    ``minimum`` / ``cell_width`` are scalars for one column, or ``(m, 1)``
    columns to dequantise m rows at once by broadcasting.
    """
    half = cell_width / 2.0
    np.multiply(codes, cell_width, out=lower_out)
    np.add(lower_out, minimum, out=lower_out)          # lower_out = approx
    np.add(lower_out, half, out=upper_out)             # approx + half
    np.subtract(lower_out, half, out=lower_out)        # approx - half


def _accumulate(values: np.ndarray, score_lower: np.ndarray, score_upper: np.ndarray | None) -> None:
    """Fold one interleaved contribution column into the accumulator(s)."""
    if score_upper is None:
        score_lower += values
    else:
        score_lower += values.real
        score_upper += values.imag


class IntervalBlockKernel(abc.ABC):
    """Accumulates one pruning period of interval contributions in one call."""

    #: Name used in reports and benchmark output.
    name: str = "interval-kernel"

    @abc.abstractmethod
    def contribution_interval(
        self,
        value_lower: np.ndarray,
        value_upper: np.ndarray,
        query_values: np.ndarray,
        dimensions: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) contributions of values known to lie in
        ``[value_lower, value_upper]``.

        The value arrays are ``(m, c)`` with row ``j`` belonging to dimension
        ``dimensions[j]``; ``query_values`` is the ``(m, 1)`` column of the
        query's coefficients.  May overwrite the value arrays.
        """

    def contributions(
        self,
        codes: np.ndarray,
        minimums: np.ndarray,
        cell_widths: np.ndarray,
        query_values: np.ndarray,
        dimensions: np.ndarray,
    ) -> np.ndarray:
        """Interleaved contributions of ``codes`` under m dimensions' grids.

        ``codes`` is ``(m, c)`` (row ``j`` read under dimension
        ``dimensions[j]``) or ``(c,)`` (the same codes under every
        dimension — the code grid, which makes the result a contribution
        table).  Returns ``(m, c)`` ``complex128``: real = lower, imag = upper.
        """
        shape = (minimums.shape[0], codes.shape[-1])
        value_lower = np.empty(shape)
        value_upper = np.empty(shape)
        dequantize_bounds(codes, minimums[:, None], cell_widths[:, None], value_lower, value_upper)
        lower, upper = self.contribution_interval(
            value_lower, value_upper, query_values[:, None], dimensions
        )
        table = np.empty(shape, dtype=np.complex128)
        table.real = lower
        table.imag = upper
        return table

    def accumulate_block(
        self,
        code_columns: "list[np.ndarray]",
        minimums: np.ndarray,
        cell_widths: np.ndarray,
        query_values: np.ndarray,
        dimensions: np.ndarray,
        score_lower: np.ndarray,
        score_upper: np.ndarray | None,
        workspace: IntervalWorkspace,
        *,
        levels: int | None = None,
    ) -> None:
        """Fold a block of compressed columns into the interval accumulators.

        Parameters
        ----------
        code_columns:
            The m quantisation-code columns of the block (full fragments
            while every vector is alive).  Left untouched.
        minimums / cell_widths:
            Per-column quantisation grids (length m, aligned with the block).
        query_values:
            The query's coefficients of the block's dimensions (length m).
        dimensions:
            Original dimension indices (length m); weighted kernels use them
            to select weights, the others ignore them.
        score_lower / score_upper:
            The interval partial-score accumulators, updated in place column
            by column, left to right: two float64 arrays, or one interleaved
            ``complex128`` array in ``score_lower`` with ``score_upper=None``.
        workspace:
            Reusable scratch buffers (see :class:`IntervalWorkspace`).
        levels:
            Number of possible codes (``2**bits``); every code lies below it.
            Defaults to every value the code dtype can hold.
        """
        if not code_columns:
            return
        grid = _code_grid(code_columns[0].dtype, levels)
        tables = self.contributions(grid, minimums, cell_widths, query_values, dimensions)
        values = workspace.values(code_columns[0].shape[0])
        for table, codes in zip(tables, code_columns):
            table.take(codes, out=values, mode="clip")
            _accumulate(values, score_lower, score_upper)

    def accumulate_row_block(
        self,
        code_rows: np.ndarray,
        minimums: np.ndarray,
        cell_widths: np.ndarray,
        query_values: np.ndarray,
        dimensions: np.ndarray,
        score_lower: np.ndarray,
        score_upper: np.ndarray | None,
        workspace: IntervalWorkspace,
        *,
        levels: int | None = None,
    ) -> None:
        """Fold a gathered ``(m, n)`` code block into the interval accumulators.

        The candidate-restricted path: row ``j`` holds dimension
        ``dimensions[j]``'s codes for every surviving candidate.  The block's
        contributions come from one 2-D lookup into the period's tables — or,
        when there are fewer candidates than possible codes, from evaluating
        the gathered codes directly — and are folded in row by row, left to
        right, exactly like :meth:`accumulate_block`.
        """
        grid = _code_grid(code_rows.dtype, levels)
        if grid.shape[0] > code_rows.shape[1]:
            values = self.contributions(code_rows, minimums, cell_widths, query_values, dimensions)
        else:
            tables = self.contributions(grid, minimums, cell_widths, query_values, dimensions)
            values = np.take_along_axis(tables, code_rows, axis=1)
        for row in values:
            _accumulate(row, score_lower, score_upper)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


def _code_grid(dtype: np.dtype, levels: int | None) -> np.ndarray:
    """The codes ``0 … levels - 1`` (default: every value of ``dtype``)."""
    if levels is None:
        levels = int(np.iinfo(dtype).max) + 1
    return np.arange(levels, dtype=dtype)


class HistogramIntersectionIntervalKernel(IntervalBlockKernel):
    """Interval ``min(h, q)`` — monotone, so the interval maps directly."""

    name = "histogram-interval"

    def contribution_interval(self, value_lower, value_upper, query_values, dimensions):
        np.minimum(value_lower, query_values, out=value_lower)
        np.minimum(value_upper, query_values, out=value_upper)
        return value_lower, value_upper


def _squared_interval(at_lower, at_upper, inside):
    """Bounds of a convex per-value contribution from its endpoint values:
    the larger endpoint above, the smaller below — or zero when the query
    lies inside the interval."""
    upper = np.maximum(at_lower, at_upper)
    np.minimum(at_lower, at_upper, out=at_lower)
    at_lower[inside] = 0.0
    return at_lower, upper


class SquaredEuclideanIntervalKernel(IntervalBlockKernel):
    """Interval ``(v - q)^2`` — zero when the query lies inside the cell."""

    name = "euclidean-interval"

    def contribution_interval(self, value_lower, value_upper, query_values, dimensions):
        inside = (value_lower <= query_values) & (value_upper >= query_values)
        np.subtract(value_lower, query_values, out=value_lower)
        np.multiply(value_lower, value_lower, out=value_lower)
        np.subtract(value_upper, query_values, out=value_upper)
        np.multiply(value_upper, value_upper, out=value_upper)
        return _squared_interval(value_lower, value_upper, inside)


class WeightedSquaredEuclideanIntervalKernel(IntervalBlockKernel):
    """Interval ``w (v - q)^2``, multiplying as ``(w * d) * d``.

    The multiplication order matches the scalar metric — ``w * d == d * w``
    bitwise (IEEE multiplication commutes) — so the endpoint contributions
    round identically to the per-dimension path.
    """

    name = "weighted-euclidean-interval"

    def __init__(self, weights: np.ndarray) -> None:
        self._weights = np.asarray(weights, dtype=np.float64)

    def contribution_interval(self, value_lower, value_upper, query_values, dimensions):
        weights = self._weights[dimensions][:, None]
        inside = (value_lower <= query_values) & (value_upper >= query_values)
        np.subtract(value_lower, query_values, out=value_lower)
        np.multiply(value_lower * weights, value_lower, out=value_lower)
        np.subtract(value_upper, query_values, out=value_upper)
        np.multiply(value_upper * weights, value_upper, out=value_upper)
        return _squared_interval(value_lower, value_upper, inside)


class GenericIntervalKernel(IntervalBlockKernel):
    """Fallback for metrics without a fused interval formula.

    Delegates each row to :func:`contribution_interval`
    — still one storage call and one table per block, only the contribution
    math stays generic.
    """

    name = "generic-interval"

    def __init__(self, metric: Metric) -> None:
        self._metric = metric

    def contribution_interval(self, value_lower, value_upper, query_values, dimensions):
        for position in range(value_lower.shape[0]):
            value_lower[position], value_upper[position] = contribution_interval(
                self._metric,
                value_lower[position],
                value_upper[position],
                float(query_values[position, 0]),
                dimension=int(dimensions[position]),
            )
        return value_lower, value_upper


def provably_zero_dimensions(
    metric: Metric,
    minimums: np.ndarray,
    maximums: np.ndarray,
    cell_widths: np.ndarray,
    query: np.ndarray,
) -> np.ndarray:
    """Dimensions whose interval contribution is exactly zero for **every**
    candidate, decidable from the quantisation grid and the query alone.

    This is the query-side early-out of the compressed filter: a dimension in
    the mask adds ``0.0`` to both the lower and the upper accumulator of every
    candidate, so the engines may skip its fetch, dequantisation and
    accumulation entirely without changing a single accumulated float.  The
    conditions are deliberately conservative (sufficient, not necessary):

    * **histogram intersection** — the query coefficient is 0 and even the
      lowest dequantised bound is non-negative (``minimum - cell/2 >= 0``),
      so ``min(v, 0) == 0`` for every representable value;
    * **(weighted) squared Euclidean** — the dimension is constant
      (``cell width == 0``) and equals the query coefficient, so both interval
      endpoints sit on the query and ``(v - q)^2 == 0``; for the weighted
      metric a zero weight also qualifies (``w (v - q)^2 == 0``), though
      zero-weight dimensions are normally dropped from the processing order
      before they reach a kernel.

    Metrics without a provable condition get an all-false mask.
    """
    minimums = np.asarray(minimums, dtype=np.float64)
    cell_widths = np.asarray(cell_widths, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    if isinstance(metric, HistogramIntersection):
        return (query == 0.0) & (minimums - cell_widths / 2.0 >= 0.0)
    if isinstance(metric, WeightedSquaredEuclidean):
        constant_on_query = (cell_widths == 0.0) & (minimums == query)
        return constant_on_query | (metric.weights == 0.0)
    if isinstance(metric, (SquaredEuclidean, EuclideanSimilarity)):
        return (cell_widths == 0.0) & (minimums == query)
    return np.zeros(query.shape[0], dtype=bool)


def interval_kernel_for(metric: Metric) -> IntervalBlockKernel:
    """The fused interval kernel matching a metric (generic fallback otherwise)."""
    if isinstance(metric, WeightedSquaredEuclidean):
        return WeightedSquaredEuclideanIntervalKernel(metric.weights)
    if isinstance(metric, HistogramIntersection):
        return HistogramIntersectionIntervalKernel()
    # EuclideanSimilarity delegates its contributions to the squared distance.
    if isinstance(metric, (SquaredEuclidean, EuclideanSimilarity)):
        return SquaredEuclideanIntervalKernel()
    return GenericIntervalKernel(metric)
