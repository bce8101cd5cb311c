"""Fused block-scan kernels for the BOND hot path.

The seed searcher paid Python-interpreter overhead *per dimension*: one
fragment fetch, one ``contributions`` call and one ``accumulate`` per
fragment.  The kernels in this package amortise that overhead over a whole
pruning period: a single ``(candidates, m)`` gather from the store feeds one
vectorised per-metric kernel that produces all ``m`` contribution columns at
once, and the columns are folded into the partial scores in processing order
— which keeps the accumulated floating-point values *bitwise identical* to
the per-dimension loop while eliminating almost all of its interpreter cost.

:mod:`repro.kernels.interval` applies the same treatment to the compressed
filter-and-refine path: interval kernels consume 8-bit code columns directly,
dequantise them in a reusable workspace and accumulate (lower, upper) partial
scores per pruning period.
"""

from repro.kernels.block import (
    BlockKernel,
    GenericBlockKernel,
    HistogramIntersectionKernel,
    SquaredEuclideanKernel,
    WeightedSquaredEuclideanKernel,
    accumulate_columns,
    kernel_for,
)
from repro.kernels.interval import (
    GenericIntervalKernel,
    HistogramIntersectionIntervalKernel,
    IntervalBlockKernel,
    IntervalWorkspace,
    SquaredEuclideanIntervalKernel,
    WeightedSquaredEuclideanIntervalKernel,
    contribution_interval,
    dequantize_bounds,
    interval_kernel_for,
)

__all__ = [
    "BlockKernel",
    "GenericBlockKernel",
    "GenericIntervalKernel",
    "HistogramIntersectionIntervalKernel",
    "HistogramIntersectionKernel",
    "IntervalBlockKernel",
    "IntervalWorkspace",
    "SquaredEuclideanIntervalKernel",
    "SquaredEuclideanKernel",
    "WeightedSquaredEuclideanIntervalKernel",
    "WeightedSquaredEuclideanKernel",
    "accumulate_columns",
    "contribution_interval",
    "dequantize_bounds",
    "interval_kernel_for",
    "kernel_for",
]
