"""``repro.reliability``: deterministic fault injection and fault handling.

Two halves:

* :mod:`repro.reliability.faults` — the seeded :class:`FaultPlan` /
  :func:`fault_point` registry that arms named fault points
  (``shard.map``, ``store.read_fragment``, ``backend.answer``,
  ``executor.dispatch``) with replayable error / delay / hang schedules;
* :mod:`repro.reliability.retry` — :class:`RetryPolicy`,
  :class:`RetryBudget` and per-backend :class:`CircuitBreaker` primitives
  the index and the serving layer compose around execution.

The contract the whole layer upholds (pinned by
``tests/test_reliability.py::TestChaosProperty``): under any seeded fault
schedule, every query resolves to either the right answer — bitwise after a
retry, OIDs equal and scores within 1e-9 after a failover to another
backend — or a **typed** :class:`~repro.errors.ReproError`, never a silently
wrong answer.
"""

from repro.reliability.faults import (
    DEFAULT_HANG_TIMEOUT,
    FAULT_KINDS,
    FAULT_POINTS,
    FaultEvent,
    FaultPlan,
    FaultSpec,
    active_plan,
    fault_point,
)
from repro.reliability.retry import (
    BreakerState,
    CircuitBreaker,
    RetryBudget,
    RetryPolicy,
)

__all__ = [
    "active_plan",
    "BreakerState",
    "CircuitBreaker",
    "DEFAULT_HANG_TIMEOUT",
    "FAULT_KINDS",
    "FAULT_POINTS",
    "fault_point",
    "FaultEvent",
    "FaultPlan",
    "FaultSpec",
    "RetryBudget",
    "RetryPolicy",
]
