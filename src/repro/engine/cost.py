"""Machine-independent cost accounting for engine operations.

The headline claim of the paper is that BOND *avoids work*: after a few
dimension fragments, most vectors are pruned, so later fragments are only
joined against a tiny candidate set and the trailing fragments may never be
read at all.  Wall-clock times on 2002 hardware cannot be reproduced, but the
amount of work — bytes moved from the (simulated) storage layer, tuples
scanned, arithmetic operations spent on distance computation — can be counted
exactly.  Every engine operator and every searcher in :mod:`repro.core`
charges its work to a :class:`CostModel`, and the experiment harness reports
both wall-clock times and these counters.

The byte accounting follows the paper's own bookkeeping: an OID is 4 bytes, a
double is 8 bytes, and a compressed (VA-file style) coefficient is 1 byte.
Exact-fragment coefficients are **not** hardwired to 8 bytes, though: every
``charge_*`` method takes ``bytes_per_tuple``, and stores pass their
fragment format's coefficient width
(:attr:`~repro.storage.formats.FragmentFormat.coefficient_bytes` — 8/4/2 for
float64/float32/float16), so ``bytes_read`` reflects the volume a narrow
store actually streams.  :func:`coefficient_bytes_for` maps a dtype to its
charge width for callers that only have a dtype name or numpy dtype in hand.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

#: Size in bytes of an object identifier, as assumed in footnote 4 of the paper.
OID_BYTES = 4
#: Size in bytes of a double-precision coefficient (the historical default
#: width of every ``charge_*`` call; narrow stores override it per call).
DOUBLE_BYTES = 8
#: Size in bytes of an 8-bit compressed coefficient.
COMPRESSED_BYTES = 1

#: Charge width per exact-fragment coefficient dtype.
COEFFICIENT_BYTES = {
    "float64": 8,
    "float32": 4,
    "float16": 2,
}


def coefficient_bytes_for(dtype) -> int:
    """Bytes one stored coefficient of ``dtype`` streams through the model.

    Accepts dtype names (``"float32"``), numpy dtypes and anything
    ``numpy.dtype`` understands; unknown dtypes fall back to their itemsize,
    so byte accounting stays honest even for formats this table predates.
    """
    name = str(dtype)
    if name in COEFFICIENT_BYTES:
        return COEFFICIENT_BYTES[name]
    return int(np.dtype(dtype).itemsize)


@dataclass
class CostAccount:
    """A single bucket of accumulated costs.

    Attributes
    ----------
    bytes_read:
        Bytes transferred from the storage layer into the execution engine.
    tuples_scanned:
        Number of (head, tail) pairs touched by scans, selects and joins.
    arithmetic_ops:
        Scalar arithmetic operations spent in similarity computations
        (one per min/subtract/multiply/add on a coefficient).
    comparisons:
        Scalar comparisons (pruning tests, heap operations, selections).
    heap_operations:
        Push/replace operations on the top-k heaps.
    random_accesses:
        Point lookups (positional fetches of single tuples), the expensive
        access pattern that stream-merging multi-feature algorithms need.
    sequential_accesses:
        Full-column sequential reads.
    """

    bytes_read: int = 0
    tuples_scanned: int = 0
    arithmetic_ops: int = 0
    comparisons: int = 0
    heap_operations: int = 0
    random_accesses: int = 0
    sequential_accesses: int = 0

    def add(self, other: "CostAccount") -> None:
        """Fold ``other``'s counters into this account, in place."""
        self.bytes_read += other.bytes_read
        self.tuples_scanned += other.tuples_scanned
        self.arithmetic_ops += other.arithmetic_ops
        self.comparisons += other.comparisons
        self.heap_operations += other.heap_operations
        self.random_accesses += other.random_accesses
        self.sequential_accesses += other.sequential_accesses

    def copy_from(self, other: "CostAccount") -> None:
        """Overwrite every counter with ``other``'s values, in place."""
        self.bytes_read = other.bytes_read
        self.tuples_scanned = other.tuples_scanned
        self.arithmetic_ops = other.arithmetic_ops
        self.comparisons = other.comparisons
        self.heap_operations = other.heap_operations
        self.random_accesses = other.random_accesses
        self.sequential_accesses = other.sequential_accesses

    def merged_with(self, other: "CostAccount") -> "CostAccount":
        """Return a new account holding the sum of ``self`` and ``other``."""
        return CostAccount(
            bytes_read=self.bytes_read + other.bytes_read,
            tuples_scanned=self.tuples_scanned + other.tuples_scanned,
            arithmetic_ops=self.arithmetic_ops + other.arithmetic_ops,
            comparisons=self.comparisons + other.comparisons,
            heap_operations=self.heap_operations + other.heap_operations,
            random_accesses=self.random_accesses + other.random_accesses,
            sequential_accesses=self.sequential_accesses + other.sequential_accesses,
        )

    def as_dict(self) -> dict[str, int]:
        """Return the counters as a plain dictionary (for reports)."""
        return {
            "bytes_read": self.bytes_read,
            "tuples_scanned": self.tuples_scanned,
            "arithmetic_ops": self.arithmetic_ops,
            "comparisons": self.comparisons,
            "heap_operations": self.heap_operations,
            "random_accesses": self.random_accesses,
            "sequential_accesses": self.sequential_accesses,
        }

    #: Field order of the :meth:`to_wire` tuple.  Appending a counter is a
    #: wire-compatible change (old tuples decode with the new field at 0);
    #: reordering is not.
    WIRE_FIELDS = (
        "bytes_read",
        "tuples_scanned",
        "arithmetic_ops",
        "comparisons",
        "heap_operations",
        "random_accesses",
        "sequential_accesses",
    )

    def to_wire(self) -> tuple[int, ...]:
        """The counters as a frozen tuple of plain ints, in WIRE_FIELDS order.

        The explicit serialisation for crossing process boundaries: a shard
        worker ships its per-call cost delta back as this tuple instead of
        pickling a live :class:`CostModel` (whose merge lock does not belong
        on the wire).  Round-trips exactly through :meth:`from_wire`.
        """
        return tuple(int(getattr(self, name)) for name in self.WIRE_FIELDS)

    @classmethod
    def from_wire(cls, wire) -> "CostAccount":
        """Rebuild an account from a :meth:`to_wire` tuple (missing fields: 0)."""
        values = tuple(wire)
        if len(values) > len(cls.WIRE_FIELDS):
            raise ValueError(
                f"cost wire tuple has {len(values)} fields, "
                f"this build understands {len(cls.WIRE_FIELDS)}"
            )
        return cls(**{name: int(value) for name, value in zip(cls.WIRE_FIELDS, values)})

    @property
    def total_work(self) -> int:
        """A single scalar summary: bytes plus all counted operations."""
        return (
            self.bytes_read
            + self.tuples_scanned
            + self.arithmetic_ops
            + self.comparisons
            + self.heap_operations
        )


@dataclass
class CostReport:
    """A labelled, immutable snapshot of a :class:`CostAccount`."""

    label: str
    account: CostAccount

    def ratio_to(self, other: "CostReport") -> float:
        """Return total work of ``other`` divided by total work of ``self``.

        Values above 1 mean ``self`` did less work than ``other`` — e.g.
        ``bond_report.ratio_to(scan_report) == 4.0`` reads as "BOND did a
        quarter of the work of the sequential scan".
        """
        own = self.account.total_work
        if own == 0:
            return float("inf") if other.account.total_work > 0 else 1.0
        return other.account.total_work / own


class CostModel:
    """Mutable collector of engine costs.

    A :class:`CostModel` can be shared by a store, its engine operators and a
    searcher; everything charges into the same account.  Use
    :meth:`checkpoint` / :meth:`since` to isolate the cost of one query, or
    :meth:`reset` between experiments.

    Threading contract
    ------------------
    The ``charge_*`` hot path is lock-free, so a model must have a single
    charging owner at any point in time (the sharded engines give every shard
    store its own model for exactly this reason).  The aggregation surface is
    safe across threads: :meth:`merge_account` folds a child model's delta
    into this one under a lock, and :meth:`restore` / :meth:`reset` mutate the
    live account in place — references handed out through :attr:`account`
    never go stale, so a rollback on one thread cannot orphan the account
    another holder is still charging into.
    """

    def __init__(self) -> None:
        self._account = CostAccount()
        self._merge_lock = threading.Lock()

    # -- charging -----------------------------------------------------------

    def charge_scan(self, tuples: int, bytes_per_tuple: int = DOUBLE_BYTES) -> None:
        """Charge a sequential scan over ``tuples`` values."""
        self._account.tuples_scanned += tuples
        self._account.bytes_read += tuples * bytes_per_tuple
        self._account.sequential_accesses += 1

    def charge_block_scan(
        self, tuples: int, fragments: int, bytes_per_tuple: int = DOUBLE_BYTES
    ) -> None:
        """Charge one fused multi-fragment gather: ``fragments`` sequential
        column reads of ``tuples`` values each.

        The totals are identical to ``fragments`` separate :meth:`charge_scan`
        calls — block execution changes *how* the work is issued (one gather
        per pruning period instead of one per dimension), not how much storage
        traffic it causes — so blocked and per-dimension runs stay comparable
        counter for counter.
        """
        self._account.tuples_scanned += tuples * fragments
        self._account.bytes_read += tuples * fragments * bytes_per_tuple
        self._account.sequential_accesses += fragments

    def charge_random_access(self, tuples: int = 1, bytes_per_tuple: int = DOUBLE_BYTES) -> None:
        """Charge ``tuples`` point lookups."""
        self._account.tuples_scanned += tuples
        self._account.bytes_read += tuples * bytes_per_tuple
        self._account.random_accesses += tuples

    def charge_arithmetic(self, operations: int) -> None:
        """Charge ``operations`` scalar arithmetic operations."""
        self._account.arithmetic_ops += operations

    def charge_comparisons(self, comparisons: int) -> None:
        """Charge ``comparisons`` scalar comparisons."""
        self._account.comparisons += comparisons

    def charge_heap(self, operations: int) -> None:
        """Charge ``operations`` heap push/replace operations."""
        self._account.heap_operations += operations

    # -- reading ------------------------------------------------------------

    @property
    def account(self) -> CostAccount:
        """The live (mutable) account being charged into."""
        return self._account

    def checkpoint(self) -> CostAccount:
        """Return an immutable copy of the current counters."""
        return CostAccount(**self._account.as_dict())

    def snapshot(self) -> CostAccount:
        """Return a copy of the current counters, taken under the merge lock.

        Same payload as :meth:`checkpoint`, but serialised against concurrent
        :meth:`merge_account` / :meth:`restore` calls, so cross-thread readers
        (the serving layer snapshots the live model around every micro-batch)
        never observe a half-merged account.  The lock-free ``charge_*`` hot
        path is unaffected — the single-charging-owner contract still holds.
        """
        with self._merge_lock:
            return self.checkpoint()

    def delta_since(self, snapshot: CostAccount) -> CostAccount:
        """Return the costs accumulated after ``snapshot``, under the lock.

        The locked counterpart of :meth:`since`: paired with
        :meth:`snapshot`, it attributes the cost of one micro-batch without
        mutating the live account — the serving layer folds the returned
        delta into its *own* statistics model via :meth:`merge_account`,
        leaving the index's account untouched.
        """
        with self._merge_lock:
            return self.since(snapshot)

    def merge_account(self, account: CostAccount) -> None:
        """Fold a child model's delta into this model, exactly once.

        This is how per-shard accounts reach the parent model without
        double-charging: shard stores charge their *private* models while the
        workers run, and the sharded engine merges each shard's
        :meth:`since`-delta here afterwards.  The merge is locked, so several
        workers may merge into a shared parent concurrently.
        """
        with self._merge_lock:
            self._account.add(account)

    def restore(self, checkpoint: CostAccount) -> None:
        """Roll every counter back to a previously taken :meth:`checkpoint`.

        Lets diagnostic probes (e.g. ``VAFile.filter_candidate_count``) run
        real engine code without polluting an experiment's accounting.  The
        rollback mutates the live account in place (it never rebinds it), so
        :attr:`account` references held elsewhere — including by worker
        threads — keep targeting the same object.
        """
        with self._merge_lock:
            self._account.copy_from(checkpoint)

    def since(self, checkpoint: CostAccount) -> CostAccount:
        """Return the costs accumulated after ``checkpoint`` was taken."""
        current = self._account
        return CostAccount(
            bytes_read=current.bytes_read - checkpoint.bytes_read,
            tuples_scanned=current.tuples_scanned - checkpoint.tuples_scanned,
            arithmetic_ops=current.arithmetic_ops - checkpoint.arithmetic_ops,
            comparisons=current.comparisons - checkpoint.comparisons,
            heap_operations=current.heap_operations - checkpoint.heap_operations,
            random_accesses=current.random_accesses - checkpoint.random_accesses,
            sequential_accesses=current.sequential_accesses - checkpoint.sequential_accesses,
        )

    def reset(self) -> None:
        """Zero every counter (in place — see the threading contract)."""
        with self._merge_lock:
            self._account.copy_from(CostAccount())

    def report(self, label: str) -> CostReport:
        """Return a labelled snapshot of the current counters."""
        return CostReport(label=label, account=self.checkpoint())
