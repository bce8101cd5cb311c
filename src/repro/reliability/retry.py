"""Retry budgets, bounded exponential backoff, and per-backend circuit
breakers.

These are the fault-*handling* primitives composed around query execution —
``Index.answer`` keeps one breaker per backend, the serving layer retries
with the policy under the budget:

* :class:`RetryPolicy` — how long to back off before retry ``n``;
* :class:`RetryBudget` — a thread-safe per-service cap on total retries, so
  a persistent fault cannot turn into an unbounded retry storm that starves
  healthy traffic;
* :class:`CircuitBreaker` — per-backend failure tracking with the classic
  closed / open / half-open protocol, so a consistently failing backend is
  skipped by the failover chain until a cooldown probe succeeds.

Everything is synchronous and lock-guarded: these are called from both the
event loop and the serving layer's worker threads.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.errors import ServingError

#: Breaker states.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff.

    Retry ``n`` (0-based) sleeps ``min(max_delay, base_delay * multiplier**n)``
    seconds before re-executing.
    """

    base_delay: float = 0.01
    max_delay: float = 0.25
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ServingError("need 0 <= base_delay <= max_delay")
        if self.multiplier < 1.0:
            raise ServingError("multiplier must be at least 1")

    def delay(self, retry_index: int) -> float:
        """Backoff seconds before retry number ``retry_index`` (0-based)."""
        return min(self.max_delay, self.base_delay * self.multiplier ** max(0, retry_index))


class RetryBudget:
    """A thread-safe cap on the *total* retries a service may spend.

    Per-request retry limits bound each request's latency; this bounds the
    aggregate: under a correlated fault (every batch failing at once), the
    service degrades to fail-fast once the budget drains instead of
    multiplying the overload with retries.
    """

    def __init__(self, budget: int | None) -> None:
        if budget is not None and budget < 0:
            raise ServingError(f"retry budget must be non-negative, got {budget}")
        self._remaining = budget
        self._lock = threading.Lock()

    @property
    def remaining(self) -> int | None:
        """Retries left (``None``: unlimited)."""
        with self._lock:
            return self._remaining

    def try_acquire(self) -> bool:
        """Spend one retry if the budget allows; ``False`` when drained."""
        with self._lock:
            if self._remaining is None:
                return True
            if self._remaining <= 0:
                return False
            self._remaining -= 1
            return True


@dataclass(frozen=True)
class BreakerState:
    """An immutable snapshot of one circuit breaker."""

    backend: str
    state: str
    consecutive_failures: int
    total_failures: int
    total_successes: int
    seconds_until_probe: float


class CircuitBreaker:
    """Closed / open / half-open failure tracking for one backend.

    ``threshold`` consecutive failures open the breaker; while open,
    :meth:`allow` refuses execution until ``cooldown`` seconds have passed,
    then admits exactly one half-open probe.  A successful probe closes the
    breaker, a failed one re-opens it for another cooldown.
    """

    def __init__(
        self,
        backend: str,
        *,
        threshold: int = 5,
        cooldown: float = 30.0,
        clock=time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ServingError(f"breaker threshold must be positive, got {threshold}")
        if cooldown < 0:
            raise ServingError(f"breaker cooldown must be non-negative, got {cooldown}")
        self.backend = backend
        self._threshold = threshold
        self._cooldown = cooldown
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._total_failures = 0
        self._total_successes = 0
        self._opened_at = 0.0
        self._probe_inflight = False

    @property
    def state(self) -> str:
        """Current breaker state (cooldown expiry observed lazily)."""
        with self._lock:
            return self._observe_cooldown()

    def _observe_cooldown(self) -> str:
        if (
            self._state == BREAKER_OPEN
            and self._clock() - self._opened_at >= self._cooldown
        ):
            self._state = BREAKER_HALF_OPEN
        return self._state

    def allow(self) -> bool:
        """Whether the chain may try this backend right now.

        An open breaker past its cooldown transitions to half-open and
        admits this one call as the probe; further calls are refused until
        the probe reports back.
        """
        with self._lock:
            state = self._observe_cooldown()
            if state == BREAKER_CLOSED:
                return True
            if state == BREAKER_HALF_OPEN and not self._probe_inflight:
                self._probe_inflight = True
                return True
            return False

    def record_success(self) -> None:
        """A call through this backend answered."""
        with self._lock:
            self._total_successes += 1
            self._consecutive_failures = 0
            self._state = BREAKER_CLOSED
            self._probe_inflight = False

    def record_failure(self) -> None:
        """A call through this backend raised."""
        with self._lock:
            self._total_failures += 1
            self._consecutive_failures += 1
            if self._state == BREAKER_HALF_OPEN or (
                self._consecutive_failures >= self._threshold
            ):
                self._state = BREAKER_OPEN
                self._opened_at = self._clock()
            self._probe_inflight = False

    def release(self) -> None:
        """An admitted call raised something that is no verdict on the
        backend (not a :class:`~repro.errors.BackendError`): the counts stay
        and a half-open breaker admits its next probe."""
        with self._lock:
            self._probe_inflight = False

    def snapshot(self) -> BreakerState:
        """An immutable view for :meth:`Index.breaker_states`."""
        with self._lock:
            state = self._observe_cooldown()
            until_probe = 0.0
            if state == BREAKER_OPEN:
                until_probe = max(
                    0.0, self._cooldown - (self._clock() - self._opened_at)
                )
            return BreakerState(
                backend=self.backend,
                state=state,
                consecutive_failures=self._consecutive_failures,
                total_failures=self._total_failures,
                total_successes=self._total_successes,
                seconds_until_probe=until_probe,
            )
