"""The in-memory delta tail: live inserted rows plus the delete bitmap view.

Between reorganisations, acknowledged updates live here (Section 6.2's
differential file): inserted rows as a row-major tail in **logical**
(pre-quantisation) float64 form, deletes as a dead-flag per tail row plus a
sorted array of deleted base OIDs.  Tail states are immutable — each
mutation produces a new state object, and the index publishes it with one
atomic epoch swap, so a query thread holding a state sees a frozen view
with no locking.

Tail rows carry OIDs ``base_cardinality + position`` (position in insert
order, dead rows included): exactly the coordinate system of
:meth:`repro.engine.updates.DeltaLog.apply`, so overlay answers and the
reorganised store agree on which row an OID names.

The deleted base OIDs are the tombstones every base answer leaves out
(``Backend.answer(..., exclude=...)``; ``bond`` drops them inside its scan).
The live rows are scored from :meth:`TailState.live_rows`:
their values quantised to the index's fragment format and widened back —
bitwise what the rows will hold after the next reorganisation, by the
format's quantise-once idempotence contract — held once per state, in RAM.
"""

from __future__ import annotations

import numpy as np

from repro.errors import StorageError
from repro.storage.formats import FragmentFormat


class TailState:
    """One immutable snapshot of the delta tail."""

    __slots__ = (
        "base_cardinality",
        "dimensionality",
        "raw",
        "dead",
        "deleted_base",
        "last_lsn",
        "_format",
        "_live",
    )

    def __init__(
        self,
        *,
        base_cardinality: int,
        dimensionality: int,
        raw: np.ndarray,
        dead: np.ndarray,
        deleted_base: np.ndarray,
        last_lsn: int,
        format: FragmentFormat,
    ) -> None:
        self.base_cardinality = int(base_cardinality)
        self.dimensionality = int(dimensionality)
        self.raw = raw
        self.dead = dead
        self.deleted_base = deleted_base
        self.last_lsn = int(last_lsn)
        self._format = format
        # live_rows(), cached: the state is immutable, so a racing first
        # build computes the same arrays.
        self._live: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def empty(
        cls, *, base_cardinality: int, dimensionality: int, format: FragmentFormat
    ) -> "TailState":
        """The clean state: no tail rows, no deletes."""
        return cls(
            base_cardinality=base_cardinality,
            dimensionality=dimensionality,
            raw=np.empty((0, dimensionality), dtype=np.float64),
            dead=np.empty(0, dtype=bool),
            deleted_base=np.empty(0, dtype=np.int64),
            last_lsn=0,
            format=format,
        )

    # -- derived views -------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """True when the overlay would be the identity (no rows, no deletes)."""
        return self.raw.shape[0] == 0 and self.deleted_base.shape[0] == 0

    @property
    def tail_rows(self) -> int:
        """Tail rows ever inserted under this state (dead ones included)."""
        return int(self.raw.shape[0])

    @property
    def live_tail_count(self) -> int:
        """Tail rows still alive."""
        return int(self.raw.shape[0] - np.count_nonzero(self.dead))

    @property
    def deleted_base_count(self) -> int:
        """Base rows deleted under this state."""
        return int(self.deleted_base.shape[0])

    @property
    def total_cardinality(self) -> int:
        """Upper end of the OID coordinate system: base plus all tail rows."""
        return self.base_cardinality + self.tail_rows

    @property
    def live_count(self) -> int:
        """Logical collection size: live base rows plus live tail rows."""
        return self.base_cardinality - self.deleted_base_count + self.live_tail_count

    def live_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The live tail rows: their ascending global OIDs, and their
        quantised-then-widened values as ``(dimensionality, live_tail_count)``
        float64 columns.  Built on first use, once per state."""
        if self._live is None:
            alive = ~self.dead
            rows = self._format.widen(self._format.quantise(self.raw[alive]))
            oids = self.base_cardinality + np.flatnonzero(alive).astype(np.int64)
            self._live = (oids, np.ascontiguousarray(rows.T))
        return self._live

    # -- transitions (return a NEW state; never mutate in place) --------------------

    def with_insert(self, rows: np.ndarray, *, lsn: int) -> "TailState":
        """The state after appending ``rows`` (already validated float64 2-D)."""
        return TailState(
            base_cardinality=self.base_cardinality,
            dimensionality=self.dimensionality,
            raw=np.concatenate([self.raw, rows], axis=0),
            dead=np.concatenate([self.dead, np.zeros(rows.shape[0], dtype=bool)]),
            deleted_base=self.deleted_base,
            last_lsn=lsn,
            format=self._format,
        )

    def with_delete(self, oids: np.ndarray, *, lsn: int) -> "TailState":
        """The state after deleting ``oids`` (validated against this state).

        OIDs below ``base_cardinality`` mark base rows deleted; the rest mark
        tail rows dead.  Deleting an already-deleted OID is a no-op (the
        delete bitmap is idempotent), but an OID outside the coordinate
        system raises — that row never existed.
        """
        oid_array = np.asarray(oids, dtype=np.int64)
        if oid_array.size and (
            oid_array.min() < 0 or oid_array.max() >= self.total_cardinality
        ):
            raise StorageError(
                f"delete targets an OID outside the collection "
                f"(live coordinate system is [0, {self.total_cardinality}))"
            )
        in_base = oid_array[oid_array < self.base_cardinality]
        in_tail = oid_array[oid_array >= self.base_cardinality]
        deleted_base = self.deleted_base
        if in_base.size:
            deleted_base = np.unique(np.concatenate([deleted_base, in_base]))
        dead = self.dead
        if in_tail.size:
            dead = dead.copy()
            dead[in_tail - self.base_cardinality] = True
        return TailState(
            base_cardinality=self.base_cardinality,
            dimensionality=self.dimensionality,
            raw=self.raw,
            dead=dead,
            deleted_base=deleted_base,
            last_lsn=lsn,
            format=self._format,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TailState +{self.live_tail_count}/-{self.deleted_base_count}"
            f" over |{self.base_cardinality}| lsn={self.last_lsn}>"
        )
