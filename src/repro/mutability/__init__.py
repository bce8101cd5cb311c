"""Crash-safe live mutability: WAL, delta tail, overlay, epoch snapshots.

The paper's Section 6.2 update story — differential files merged by
periodic reorganisations — made durable and queryable:

* :class:`WriteAheadLog` / :func:`read_wal`: checksummed append-fsync-ack
  logging of every insert/delete, replayed by ``Index.open``;
* :class:`TailState`: the immutable in-memory delta tail (inserted rows +
  delete bitmap view) published by atomic swap;
* :func:`overlay_answer`: one deterministic score-then-OID merge of the live
  tail rows into a base answer whose search already dropped the deleted
  base rows;
* :class:`Epoch`: the all-or-nothing unit a reorganisation publishes.

``Index.insert`` / ``Index.delete`` / ``Index.reorganize`` on the facade
(:mod:`repro.api.index`) are the entry points; this package is the
machinery behind them.
"""

from repro.mutability.epoch import Epoch
from repro.mutability.overlay import overlay_answer
from repro.mutability.tail import TailState
from repro.mutability.wal import (
    OP_DELETE,
    OP_INSERT,
    WalRecord,
    WriteAheadLog,
    read_wal,
    wal_token,
)

__all__ = [
    "Epoch",
    "TailState",
    "WalRecord",
    "WriteAheadLog",
    "OP_DELETE",
    "OP_INSERT",
    "overlay_answer",
    "read_wal",
    "wal_token",
]
