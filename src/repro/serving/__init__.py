"""``repro.serving``: the asyncio query-serving subsystem.

Turns a stream of independently arriving single queries into the micro-batches
the batch engines are fast at — work-conserving, with the latency budget as a
ceiling on the wait — with bounded
admission control, per-batch cost attribution, and explicit failure handling
(per-request deadlines, transient-error retry under a budget, and the
index's own failover chain behind its circuit breakers — see
:mod:`repro.reliability`).  See
:mod:`repro.serving.service` for the front end,
:mod:`repro.serving.admission` for the fifo/overlap batch-formation policies
and :mod:`repro.serving.stats` for the statistics surface; the serving and
reliability sections of ``docs/API.md`` walk through the lifecycle and knobs.
"""

from repro.serving.admission import (
    ADMISSION_POLICIES,
    AdmissionPolicy,
    FifoAdmission,
    OverlapAdmission,
    resolve_admission,
)
from repro.serving.service import SearchService, ServingConfig, replay_open_loop
from repro.serving.stats import BatchStats, ServiceHealth, ServingStats

__all__ = [
    "ADMISSION_POLICIES",
    "AdmissionPolicy",
    "BatchStats",
    "FifoAdmission",
    "OverlapAdmission",
    "replay_open_loop",
    "resolve_admission",
    "SearchService",
    "ServiceHealth",
    "ServingConfig",
    "ServingStats",
]
