"""Serving statistics: per-request, per-batch and service-level views.

The serving layer's value is only visible in its distributions — how long
requests queued, how large the micro-batches came out, what each batch cost —
so the service keeps a running collector and exposes immutable
:class:`ServingStats` snapshots.  Batch cost is attributed with the
:meth:`~repro.engine.cost.CostModel.snapshot` /
:meth:`~repro.engine.cost.CostModel.delta_since` pair around every batch and
folded into a collector-owned :class:`~repro.engine.cost.CostModel` via
``merge_account`` — the index's live account is never mutated for
bookkeeping.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.engine.cost import CostAccount, CostModel
from repro.reliability.retry import BreakerState

#: How many per-batch records a collector retains for inspection.
BATCH_LOG_LIMIT = 1024

#: How many recent samples the latency/batch-size distributions are computed
#: over.  A long-lived service must not grow without bound (nor pay an
#: ever-growing percentile pass per ``stats()`` call), so the distributions
#: are sliding windows; the scalar counters remain exact for the whole life.
SAMPLE_WINDOW = 65536


@dataclass(frozen=True)
class BatchStats:
    """One executed micro-batch.

    Attributes
    ----------
    batch_size:
        Number of queries the batch answered.
    sequence_numbers:
        Submission sequence number of every request in the batch, in batch
        row order — what the flush-ordering tests assert on.
    queue_waits:
        Seconds each request waited between submission and admission.
    batch_seconds:
        Wall-clock seconds of the ``Index.answer`` call for the whole batch.
    cost:
        The cost-model delta this batch charged to the index.
    backend:
        Name of the backend that answered the batch (the answer's
        ``backend``: a failover substitute when one answered).
    """

    batch_size: int
    sequence_numbers: tuple[int, ...]
    queue_waits: tuple[float, ...]
    batch_seconds: float
    cost: CostAccount
    backend: str | None = None


@dataclass(frozen=True)
class ServingStats:
    """An immutable service-level snapshot.

    The counters (submitted / completed / rejected / cancelled / failed /
    expired / retries / failovers / batches) are exact for the whole service
    life; the percentile and batch-size aggregates are computed over a
    sliding window of the most recent :data:`SAMPLE_WINDOW` samples, so a
    long-lived service stays bounded in memory.  ``request_seconds`` is
    end-to-end (submission to result, i.e. queue wait plus the batch
    execution the request rode in).

    ``expired`` counts requests failed with
    :class:`~repro.errors.DeadlineExceeded` before execution; ``retries``
    counts batch re-executions after a transient backend error; ``failovers``
    counts batches whose answer came from a failover substitute (the
    answer's ``failed_over``).
    """

    submitted: int
    completed: int
    rejected: int
    cancelled: int
    failed: int
    expired: int
    retries: int
    failovers: int
    batches: int
    pending: int
    mean_batch_size: float
    max_batch_size: int
    queue_wait_p50: float
    queue_wait_p99: float
    batch_seconds_p50: float
    batch_seconds_p99: float
    request_seconds_p50: float
    request_seconds_p99: float
    cost: CostAccount
    recent_batches: tuple[BatchStats, ...] = field(repr=False, default=())
    #: The index's circuit-breaker snapshots at stats() time (sorted by name).
    breakers: tuple[BreakerState, ...] = ()

    def as_dict(self) -> dict:
        """The scalar fields as a plain dictionary (for benchmark reports)."""
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "cancelled": self.cancelled,
            "failed": self.failed,
            "expired": self.expired,
            "retries": self.retries,
            "failovers": self.failovers,
            "batches": self.batches,
            "pending": self.pending,
            "mean_batch_size": self.mean_batch_size,
            "max_batch_size": self.max_batch_size,
            "queue_wait_p50": self.queue_wait_p50,
            "queue_wait_p99": self.queue_wait_p99,
            "batch_seconds_p50": self.batch_seconds_p50,
            "batch_seconds_p99": self.batch_seconds_p99,
            "request_seconds_p50": self.request_seconds_p50,
            "request_seconds_p99": self.request_seconds_p99,
            "cost": self.cost.as_dict(),
            "breakers": {b.backend: b.state for b in self.breakers},
        }


@dataclass(frozen=True)
class ServiceHealth:
    """A point-in-time operational snapshot of one :class:`SearchService`.

    Complements :class:`ServingStats` (lifetime aggregates) with the state an
    operator acts on *now*: whether the service still accepts work, what is
    queued, how much of the transient-retry budget is left, and every
    backend circuit breaker's state.
    """

    running: bool
    pending: int
    retry_budget_remaining: int | None
    breakers: tuple[BreakerState, ...]

    @property
    def open_breakers(self) -> tuple[str, ...]:
        """Names of the backends whose breaker is currently not closed."""
        return tuple(b.backend for b in self.breakers if b.state != "closed")

    def as_dict(self) -> dict:
        """The snapshot as a plain dictionary (for benchmark reports)."""
        return {
            "running": self.running,
            "pending": self.pending,
            "retry_budget_remaining": self.retry_budget_remaining,
            "breakers": {
                b.backend: {
                    "state": b.state,
                    "consecutive_failures": b.consecutive_failures,
                    "total_failures": b.total_failures,
                    "total_successes": b.total_successes,
                }
                for b in self.breakers
            },
        }


def _percentile(samples: deque, q: float) -> float:
    if not samples:
        return 0.0
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


class StatsCollector:
    """Mutable accumulator behind :meth:`SearchService.stats`.

    All record methods run on the event-loop thread (batch completion
    callbacks land there), so the collector needs no locking of its own;
    the cost fold-in goes through the locked ``merge_account``.  Sample
    distributions are bounded rings (see :data:`SAMPLE_WINDOW`); counters
    and the accumulated cost are exact for the whole service life.
    """

    def __init__(self) -> None:
        self.submitted = 0
        self.rejected = 0
        self.cancelled = 0
        self.failed = 0
        self.expired = 0
        self.retries = 0
        self.failovers = 0
        self.completed = 0
        self.batches = 0
        self._queue_waits: deque[float] = deque(maxlen=SAMPLE_WINDOW)
        self._batch_seconds: deque[float] = deque(maxlen=SAMPLE_WINDOW)
        self._request_seconds: deque[float] = deque(maxlen=SAMPLE_WINDOW)
        self._batch_sizes: deque[int] = deque(maxlen=SAMPLE_WINDOW)
        self._recent: deque[BatchStats] = deque(maxlen=BATCH_LOG_LIMIT)
        self._cost = CostModel()

    def record_submit(self) -> None:
        self.submitted += 1

    def record_rejection(self) -> None:
        self.rejected += 1

    def record_cancellations(self, count: int) -> None:
        self.cancelled += count

    def record_failure(self, batch_size: int) -> None:
        self.failed += batch_size

    def record_expirations(self, count: int) -> None:
        self.expired += count

    def record_retry(self) -> None:
        self.retries += 1

    def record_failover(self) -> None:
        self.failovers += 1

    def record_batch(
        self, batch: BatchStats, request_seconds: list[float], *, delivered: int | None = None
    ) -> None:
        """Fold one executed micro-batch into the running aggregates.

        ``delivered`` is the number of riders whose futures actually received
        the result (riders abandoned mid-execution are counted as cancelled
        by the service, not completed); the batch-shape aggregates still
        describe the batch as executed.
        """
        self.completed += batch.batch_size if delivered is None else delivered
        self.batches += 1
        self._batch_sizes.append(batch.batch_size)
        self._batch_seconds.append(batch.batch_seconds)
        self._queue_waits.extend(batch.queue_waits)
        self._request_seconds.extend(request_seconds)
        self._recent.append(batch)
        self._cost.merge_account(batch.cost)

    def snapshot(
        self, *, pending: int, breakers: tuple[BreakerState, ...] = ()
    ) -> ServingStats:
        """An immutable view of everything recorded so far."""
        sizes = self._batch_sizes
        return ServingStats(
            submitted=self.submitted,
            completed=self.completed,
            rejected=self.rejected,
            cancelled=self.cancelled,
            failed=self.failed,
            expired=self.expired,
            retries=self.retries,
            failovers=self.failovers,
            batches=self.batches,
            pending=pending,
            mean_batch_size=float(np.mean(sizes)) if sizes else 0.0,
            max_batch_size=max(sizes) if sizes else 0,
            queue_wait_p50=_percentile(self._queue_waits, 50),
            queue_wait_p99=_percentile(self._queue_waits, 99),
            batch_seconds_p50=_percentile(self._batch_seconds, 50),
            batch_seconds_p99=_percentile(self._batch_seconds, 99),
            request_seconds_p50=_percentile(self._request_seconds, 50),
            request_seconds_p99=_percentile(self._request_seconds, 99),
            cost=self._cost.checkpoint(),
            recent_batches=tuple(self._recent),
            breakers=breakers,
        )
