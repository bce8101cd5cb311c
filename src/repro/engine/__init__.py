"""A small column-store execution engine, standing in for Monet/MIL.

The paper implements BOND on top of Monet [Boncz & Kersten, VLDB J. 1999], a
research column store whose algebra operates on *Binary Association Tables*
(BATs): two-column tables of (head, tail) pairs where the head is usually a
densely ascending object identifier (OID) that never needs to be materialised.

This package provides the pieces of that substrate that BOND relies on:

* :class:`~repro.engine.bat.BAT` — a binary association table with virtual
  dense heads, typed tails and propagated properties (dense, sorted, key);
* :mod:`~repro.engine.operators` — the MIL operators used in Section 6.1 of
  the paper: multijoin map (``[min]``, ``[+]``, ...), ``uselect``, ``kfetch``,
  positional joins and reverse joins;
* :class:`~repro.engine.cost.CostModel` — an I/O + CPU accounting model that
  counts bytes read, tuples scanned and arithmetic operations, so that the
  "avoided work" claims of the paper can be measured in a
  machine-independent way;
* :mod:`~repro.engine.properties` — property flags and their propagation
  rules through operators.

Section 6.2's differential file and delete bitmap live in
:mod:`repro.mutability.tail`.
"""

from repro.engine.bat import BAT
from repro.engine.cost import CostAccount, CostModel, CostReport
from repro.engine.properties import Properties
from repro.engine.operators import (
    kfetch,
    materialize,
    multijoin_map,
    positional_join,
    reverse_join,
    uselect,
)

__all__ = [
    "BAT",
    "CostAccount",
    "CostModel",
    "CostReport",
    "Properties",
    "kfetch",
    "materialize",
    "multijoin_map",
    "positional_join",
    "reverse_join",
    "uselect",
]
