"""Exception hierarchy for the ``repro`` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch anything originating from this package with a single except clause,
while still being able to distinguish configuration problems from data
problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the ``repro`` package."""


class EngineError(ReproError):
    """Raised when a column-store engine operation is used incorrectly."""


class PropertyViolation(EngineError):
    """Raised when a BAT property (dense, sorted, key) is violated."""


class AlignmentError(EngineError):
    """Raised when a positional (aligned) operation receives misaligned BATs."""


class StorageError(ReproError):
    """Raised for invalid physical-design / store operations."""


class CorruptFragmentError(StorageError):
    """Raised when a persisted fragment fails integrity verification.

    ``Index.open(verify="checksum")`` compares every fragment file it reads
    against the checksum recorded in the manifest; a mismatch (a flipped
    byte, a truncated file) raises this error *naming the fragment* instead
    of silently loading garbage.
    """


class ManifestVersionError(StorageError):
    """Raised when a persisted manifest's schema version cannot be served.

    Either the layout version is unknown to this build, or the caller asked
    for an integrity feature (checksum verification) that the persisting
    build predates.
    """


class MetricError(ReproError):
    """Raised when a similarity metric receives invalid input."""


class BoundError(ReproError):
    """Raised when a pruning bound is asked for an inconsistent state."""


class QueryError(ReproError):
    """Raised for invalid query specifications (bad k, bad weights, ...)."""


class PlanError(QueryError):
    """Raised when the query planner cannot find a capable backend."""


class BackendError(ReproError):
    """Raised when a planned backend fails while *executing* a query.

    This is the execution-time counterpart of :class:`PlanError`: planning
    succeeded, but the chosen physical backend could not produce an answer
    (a shard worker died, a store read failed, an injected fault fired).
    ``Index.answer`` counts it against the backend's circuit breaker and,
    with ``failover=True`` (as the serving layer calls it), moves on to the
    next capable backend.
    """


class TransientBackendError(BackendError):
    """A backend failure that is expected to succeed on retry.

    The serving layer retries these with bounded exponential backoff under a
    per-service retry budget; deterministic fault injection raises this type
    by default, so chaos runs exercise exactly the retry path.
    """


class FailoverExhausted(BackendError):
    """Raised when every capable backend in the failover chain failed.

    Carries the per-backend causes in :attr:`attempts` (a tuple of
    ``(backend_name, error)`` pairs, the exception itself) so operators see
    the whole chain, not just the last failure.
    """

    def __init__(self, message: str, attempts: tuple = ()) -> None:
        super().__init__(message)
        self.attempts = tuple(attempts)


class FaultInjectionError(ReproError):
    """Raised on invalid use of the deterministic fault-injection registry."""


class ServingError(ReproError):
    """Raised by the asyncio serving layer on invalid use of a service."""


class DeadlineExceeded(ServingError):
    """Raised when a request's per-request deadline expires before service.

    A request submitted with ``submit(..., timeout=...)`` that is still
    queued (or waiting out a retry backoff) when its deadline passes is
    evicted *before* riding a batch and fails with this error — the caller
    already gave up, so executing the query would be wasted work.
    """


class QueueFull(ServingError):
    """Raised when a submission is rejected by admission control.

    The serving queue is bounded (see
    :class:`repro.serving.ServingConfig.max_queue`); rejecting the overflow
    explicitly — instead of queueing unboundedly — is what lets callers shed
    load at the edge.
    """


class ServiceClosed(ServingError):
    """Raised when submitting to a service that is not accepting requests."""


class DatasetError(ReproError):
    """Raised by the synthetic dataset generators on invalid parameters."""


class ExperimentError(ReproError):
    """Raised by the experiment harness on invalid configurations."""
