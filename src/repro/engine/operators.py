"""MIL-style algebra operators over BATs.

These are the operators used by the MIL program of Section 6.1:

* ``multijoin_map`` — the ``[op]`` construct: an implicit equi-join on the
  head columns of several BATs followed by an element-wise operator on the
  joined tails.  When the inputs are aligned (same dense head) the join is
  positional and essentially free.
* ``uselect`` — the unary range select: returns the head values of tuples
  whose tail falls in ``[low, high]``, renumbered with a fresh dense head.
* ``kfetch`` — the k-th largest (or smallest) tail value, computed with a
  bounded heap in ``O(n log k)``.
* ``positional_join`` / ``reverse_join`` — the join shapes
  BOND needs to restrict the remaining dimension fragments to the candidate
  set (step 3 of the MIL program).
* ``materialize`` — gather the tail values of a fragment at a set of OIDs.

Every operator optionally charges a :class:`~repro.engine.cost.CostModel`.
"""

from __future__ import annotations

import heapq
from typing import Callable, Sequence

import numpy as np

from repro.engine.bat import BAT, default_tuple_bytes
from repro.engine.cost import CostModel
from repro.engine.properties import (
    propagate_map,
    propagate_positional_join,
    propagate_select,
)
from repro.errors import EngineError


def multijoin_map(
    operator: Callable[..., np.ndarray],
    *operands: BAT | float | int,
    cost: CostModel | None = None,
    name: str = "",
) -> BAT:
    """Apply ``operator`` element-wise across the tails of aligned BATs.

    Scalar operands play the role of MIL's ``const`` arguments: they are
    broadcast against every tuple.  At least one operand must be a BAT, and
    all BAT operands must be mutually aligned (same dense head), so the
    implicit equi-join degenerates to a positional join.

    Parameters
    ----------
    operator:
        A numpy-compatible function of ``len(operands)`` array arguments,
        e.g. ``np.minimum`` or ``np.add``.
    operands:
        BATs and/or scalars.
    cost:
        Optional cost model; charged one scan per BAT operand and one
        arithmetic op per produced value per (non-first) operand.
    """
    bats = [operand for operand in operands if isinstance(operand, BAT)]
    if not bats:
        raise EngineError("multijoin_map needs at least one BAT operand")
    first = bats[0]
    for other in bats[1:]:
        first.require_alignment(other)

    arrays = [
        operand.tail if isinstance(operand, BAT) else operand for operand in operands
    ]
    result = operator(*arrays)
    result = np.asarray(result)

    if cost is not None:
        for bat in bats:
            cost.charge_scan(len(bat), default_tuple_bytes(bat))
        cost.charge_arithmetic(len(first) * max(1, len(operands) - 1))

    return BAT(
        result,
        head_base=first.head_base,
        properties=propagate_map(first.properties),
        name=name,
    )


def uselect(
    bat: BAT,
    low: float,
    high: float,
    *,
    cost: CostModel | None = None,
    name: str = "",
) -> BAT:
    """Unary range select: head values of tuples with ``low <= tail <= high``.

    The result has the qualifying head OIDs in its *tail* and a fresh densely
    ascending head, mirroring Monet's ``uselect`` which "sets the right-hand
    side of the result to a densely ascending range of (virtual) oids"
    (the head/tail flip relative to the paper's phrasing is immaterial: the
    information content is the qualifying OID list).
    """
    mask = (bat.tail >= low) & (bat.tail <= high)
    qualifying = bat.head[mask] if not bat.head_is_virtual else (
        np.nonzero(mask)[0].astype(np.int64) + bat.head_base
    )
    if cost is not None:
        cost.charge_scan(len(bat), default_tuple_bytes(bat))
        cost.charge_comparisons(2 * len(bat))
    return BAT(
        qualifying,
        head_base=0,
        properties=propagate_select(bat.properties),
        name=name or f"uselect({bat.name})",
    )


def kfetch(
    bat: BAT,
    k: int,
    *,
    largest: bool = True,
    cost: CostModel | None = None,
) -> float:
    """Return the k-th largest (or smallest) tail value of ``bat``.

    Implemented with a bounded heap of size ``k`` (worst case
    ``O(n log k)``), exactly as described for Monet's ``kfetch`` in the
    paper.  ``k`` larger than the BAT returns the extreme value on the
    "loose" side so the pruning bound degenerates gracefully.
    """
    if k <= 0:
        raise EngineError("kfetch requires k >= 1")
    values = bat.tail
    if len(values) == 0:
        raise EngineError("kfetch on an empty BAT")
    if cost is not None:
        cost.charge_scan(len(bat), default_tuple_bytes(bat))
        cost.charge_heap(len(bat))
    if k >= len(values):
        return float(values.min() if largest else values.max())

    if largest:
        # Maintain a min-heap of the k largest values seen so far.
        heap = list(values[:k].astype(float))
        heapq.heapify(heap)
        for value in values[k:]:
            if value > heap[0]:
                heapq.heapreplace(heap, float(value))
        return float(heap[0])
    # Maintain a max-heap (negated) of the k smallest values seen so far.
    heap = [-float(value) for value in values[:k]]
    heapq.heapify(heap)
    for value in values[k:]:
        if -float(value) > heap[0]:
            heapq.heapreplace(heap, -float(value))
    return float(-heap[0])


def positional_join(left: BAT, right: BAT, *, cost: CostModel | None = None, name: str = "") -> BAT:
    """Join two aligned BATs positionally: result tail = right tail, head = left head.

    This is the cheap join Monet picks when property propagation shows both
    operands share the same dense head.
    """
    left.require_alignment(right)
    if cost is not None:
        cost.charge_scan(len(right), default_tuple_bytes(right))
    return BAT(
        right.tail.copy(),
        head_base=left.head_base,
        properties=propagate_positional_join(left.properties, right.properties),
        name=name,
    )


def reverse_join(
    candidates: BAT,
    fragment: BAT,
    *,
    cost: CostModel | None = None,
    name: str = "",
) -> BAT:
    """The ``C.reverse.join(Hi)`` step of the MIL program.

    ``candidates`` holds surviving OIDs in its tail (the output shape of
    :func:`uselect`); the result holds, for each candidate in order, the
    value of ``fragment`` at that OID, with a fresh dense head aligned to the
    candidate list.  When the fragment has a dense head this is a positional
    gather; the cost model charges one random access per candidate.
    """
    oids = np.asarray(candidates.tail, dtype=np.int64)
    if fragment.head_is_virtual:
        positions = oids - fragment.head_base
        if len(positions) and (positions.min() < 0 or positions.max() >= len(fragment)):
            raise EngineError("candidate OID outside fragment head range")
        gathered = fragment.tail[positions]
    else:
        order = np.argsort(fragment.head)
        lookup = np.searchsorted(fragment.head, oids, sorter=order)
        positions = order[lookup]
        if not np.array_equal(fragment.head[positions], oids):
            raise EngineError("candidate OID missing from fragment")
        gathered = fragment.tail[positions]
    if cost is not None:
        cost.charge_random_access(len(oids), fragment.tail.itemsize)
    return BAT.dense(gathered, name=name or f"gather({fragment.name})")


def materialize(fragment: BAT, oids: Sequence[int] | np.ndarray, *, cost: CostModel | None = None) -> np.ndarray:
    """Gather the tail values of ``fragment`` at the given OIDs as an array."""
    oid_array = np.asarray(oids, dtype=np.int64)
    if fragment.head_is_virtual:
        positions = oid_array - fragment.head_base
        result = fragment.tail[positions]
    else:
        order = np.argsort(fragment.head)
        lookup = np.searchsorted(fragment.head, oid_array, sorter=order)
        result = fragment.tail[order[lookup]]
    if cost is not None:
        cost.charge_random_access(len(oid_array), fragment.tail.itemsize)
    return result
