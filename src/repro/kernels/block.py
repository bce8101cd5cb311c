"""Per-metric fused block kernels.

A *block* is the ``(n_candidates, m)`` value matrix of one pruning period: m
dimension fragments gathered for the surviving candidates in one call.  A
:class:`BlockKernel` turns that block into the ``(n_candidates, m)`` matrix of
per-dimension contributions with a single vectorised expression instead of m
Python-level round trips.

Bitwise equivalence contract
----------------------------
Every kernel must produce, in column ``j``, exactly the float64 values that
``metric.contributions(block[:, j], query_values[j], dimension=dimensions[j])``
would produce — same operations, same operand order — so that folding the
columns left to right (:func:`accumulate_columns`) yields partial scores that
are bit-for-bit identical to the seed per-dimension loop.  The property tests
in ``tests/test_kernels.py`` enforce this with ``np.array_equal``.

Narrow-fragment contract
------------------------
``accumulate_scan`` may receive fragment columns in a *narrow* store dtype
(float32/float16 — see :mod:`repro.storage.formats`).  Kernels must then
produce exactly what the same scan over the float64-**widened** columns
would produce: all arithmetic and accumulation stays float64, with the
narrow coefficients widened exactly on entry.  The fused kernels get this
for free — their query scalars are ``np.float64`` and their ``out=`` targets
are float64 workspaces, so numpy selects the float64 loop and widens each
narrow operand element exactly — but any expression that lets a narrow
column meet a *Python* scalar without a float64 ``out`` would stay narrow
under NEP 50 promotion and silently quantise every downstream partial
score; :class:`GenericBlockKernel` therefore widens explicitly before
calling the scalar metric.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import MetricError
from repro.metrics.base import Metric
from repro.metrics.euclidean import EuclideanSimilarity, SquaredEuclidean
from repro.metrics.histogram import HistogramIntersection
from repro.metrics.weighted import WeightedSquaredEuclidean


class BlockKernel(abc.ABC):
    """Computes one pruning period's contributions in a single fused call."""

    #: Name used in reports and benchmark output.
    name: str = "block-kernel"

    @abc.abstractmethod
    def contribution_block(
        self, values: np.ndarray, query_values: np.ndarray, dimensions: np.ndarray
    ) -> np.ndarray:
        """Per-dimension contributions for a whole block.

        Parameters
        ----------
        values:
            ``(n_candidates, m)`` block of coefficients, column ``j`` holding
            dimension ``dimensions[j]`` for every candidate.
        query_values:
            The query's coefficients of those m dimensions (length m).
        dimensions:
            The original dimension indices (length m); weighted kernels use
            them to select weights, unweighted kernels ignore them.

        Returns
        -------
        ``(n_candidates, m)`` matrix whose column ``j`` equals
        ``metric.contributions(values[:, j], query_values[j], dimension=dimensions[j])``.
        """

    def accumulate_scan(
        self,
        columns: "list[np.ndarray]",
        query_values: np.ndarray,
        dimensions: np.ndarray,
        scores: np.ndarray,
        workspace: np.ndarray,
    ) -> None:
        """Fold whole fragment columns into ``scores`` without allocating.

        The zero-copy fast path of the full-bitmap phase: ``columns[j]`` is
        the *entire* contiguous fragment of dimension ``dimensions[j]`` (no
        candidate gather needed while every vector is alive), and per-column
        temporaries land in the caller-provided ``workspace`` so the scan
        touches no fresh memory.  Contributions are computed and added
        per column, left to right — the same operations in the same order as
        the per-dimension loop, hence bitwise-identical partial scores.

        The default implementation materialises each contribution column via
        :meth:`contribution_block`-equivalent math without the workspace;
        concrete kernels override it with true in-place expressions.
        """
        for position in range(len(columns)):
            block = self.contribution_block(
                columns[position][:, None],
                query_values[position : position + 1],
                dimensions[position : position + 1],
            )
            scores += block[:, 0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class HistogramIntersectionKernel(BlockKernel):
    """Fused ``min(h_i, q_i)`` over a block (histogram intersection)."""

    name = "histogram-block"

    def contribution_block(
        self, values: np.ndarray, query_values: np.ndarray, dimensions: np.ndarray
    ) -> np.ndarray:
        return np.minimum(values, query_values[None, :])

    def accumulate_scan(self, columns, query_values, dimensions, scores, workspace):
        for position in range(len(columns)):
            np.minimum(columns[position], query_values[position], out=workspace)
            scores += workspace


class SquaredEuclideanKernel(BlockKernel):
    """Fused ``(v_i - q_i)^2`` over a block (squared Euclidean distance)."""

    name = "euclidean-block"

    def contribution_block(
        self, values: np.ndarray, query_values: np.ndarray, dimensions: np.ndarray
    ) -> np.ndarray:
        difference = values - query_values[None, :]
        return difference * difference

    def accumulate_scan(self, columns, query_values, dimensions, scores, workspace):
        for position in range(len(columns)):
            np.subtract(columns[position], query_values[position], out=workspace)
            np.multiply(workspace, workspace, out=workspace)
            scores += workspace


class WeightedSquaredEuclideanKernel(BlockKernel):
    """Fused ``w_i (v_i - q_i)^2`` over a block (weighted squared Euclidean).

    The multiplication order matches the scalar metric — ``(w * d) * d`` —
    so the products round identically to the per-dimension path.
    """

    name = "weighted-euclidean-block"

    def __init__(self, weights: np.ndarray) -> None:
        self._weights = np.asarray(weights, dtype=np.float64)
        self._scaled_scratch = np.empty(0, dtype=np.float64)

    def contribution_block(
        self, values: np.ndarray, query_values: np.ndarray, dimensions: np.ndarray
    ) -> np.ndarray:
        difference = values - query_values[None, :]
        return self._weights[dimensions][None, :] * difference * difference

    def accumulate_scan(self, columns, query_values, dimensions, scores, workspace):
        # (w * d) * d, matching the scalar metric's multiplication order
        # (w * d == d * w bitwise: IEEE multiplication commutes).  Needs a
        # second temporary for w*d, kept on the kernel and reused.
        if self._scaled_scratch.shape[0] < workspace.shape[0]:
            self._scaled_scratch = np.empty(workspace.shape[0], dtype=np.float64)
        scaled = self._scaled_scratch[: workspace.shape[0]]
        for position in range(len(columns)):
            np.subtract(columns[position], query_values[position], out=workspace)
            np.multiply(workspace, self._weights[int(dimensions[position])], out=scaled)
            np.multiply(scaled, workspace, out=scaled)
            scores += scaled


class GenericBlockKernel(BlockKernel):
    """Fallback for metrics without a fused kernel: loop over the columns.

    Still profits from the single multi-fragment gather; only the per-column
    contribution calls remain at Python level.
    """

    name = "generic-block"

    def __init__(self, metric: Metric) -> None:
        self._metric = metric

    def contribution_block(
        self, values: np.ndarray, query_values: np.ndarray, dimensions: np.ndarray
    ) -> np.ndarray:
        # Custom metrics receive Python floats and arbitrary expressions; a
        # narrow column must be widened *here* or NEP 50 would keep the whole
        # contribution in the store dtype (see the module docstring).
        values = np.asarray(values, dtype=np.float64)
        block = np.empty_like(values, dtype=np.float64)
        for position in range(values.shape[1]):
            block[:, position] = self._metric.contributions(
                values[:, position],
                float(query_values[position]),
                dimension=int(dimensions[position]),
            )
        return block


def kernel_for(metric: Metric) -> BlockKernel:
    """The fused kernel matching a metric (generic fallback for custom ones)."""
    if isinstance(metric, WeightedSquaredEuclidean):
        return WeightedSquaredEuclideanKernel(metric.weights)
    if isinstance(metric, HistogramIntersection):
        return HistogramIntersectionKernel()
    # EuclideanSimilarity delegates its contributions to the squared distance.
    if isinstance(metric, (SquaredEuclidean, EuclideanSimilarity)):
        return SquaredEuclideanKernel()
    return GenericBlockKernel(metric)


def accumulate_columns(target: np.ndarray, block: np.ndarray) -> None:
    """Fold a contribution block into ``target`` column by column, in order.

    Floating-point addition is not associative, so a blocked sum (`.sum(axis=1)`)
    would round differently from the per-dimension loop it replaces.  Adding
    the columns left to right reproduces the loop's addition sequence exactly,
    keeping fused partial scores bitwise identical to the seed path.

    The fold is one ``np.add.reduce`` down axis 0 of a C-ordered ``(m + 1, n)``
    stack whose row 0 is ``target``: reducing the non-contiguous axis adds the
    rows strictly in order.  With ``n < 2`` that axis *is* contiguous and
    numpy switches to pairwise summation, so a single row folds per column.
    """
    if block.ndim != 2 or block.shape[0] != target.shape[0]:
        raise MetricError(
            f"contribution block of shape {block.shape} is not aligned with "
            f"accumulator of length {target.shape[0]}"
        )
    if target.shape[0] < 2:
        for position in range(block.shape[1]):
            target += block[:, position]
        return
    stack = np.empty((block.shape[1] + 1, target.shape[0]), dtype=np.float64)
    stack[0] = target
    stack[1:] = block.T
    np.add.reduce(stack, axis=0, out=target)
