"""Capability-driven query planning.

The :class:`QueryPlanner` turns a declarative :class:`~repro.api.query.Query`
into a physical :class:`Plan`: it walks the backend registry, rejects the
backends whose :class:`~repro.api.capabilities.Capabilities` cannot serve the
query (wrong mode, unsupported metric, no weighted support, ...), asks every
eligible backend's cost-model hook for an estimate, and picks the cheapest.
``explain()`` renders the whole decision — every candidate with its estimate
or rejection reason — as a transcript, so "why did my query run on that
backend?" is always one call away.

When the index carries live updates (see :meth:`repro.api.Index.insert`),
every eligible estimate gains the same additive surcharge for the tail
overlay — the live tail is scanned and scored on top of whichever backend
answers, so the extra work is backend-independent and the ranking between
backends is unchanged; the surcharge keeps the absolute estimates honest
and is called out in the ``explain()`` transcript.

Plans are a function of the workload *shape*, not of the query vector, so
:meth:`QueryPlanner.plan` decides once per shape (metric specification, mode,
k, batch size, hints) and index state (generation, cardinality, live tail)
and serves every later query of that shape from a small cache — a serving
index answering thousands of look-alike requests pays for one walk of the
registry, not one per request.  ``explain()`` always re-plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.api.capabilities import BackendRegistry, CostEstimate, DEFAULT_REGISTRY
from repro.api.query import Query
from repro.errors import PlanError, QueryError
from repro.metrics.base import Metric

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.backends import Backend
    from repro.api.index import Index


@dataclass(frozen=True)
class PlanCandidate:
    """One backend's fate during planning: an estimate or a rejection."""

    backend: str
    estimate: CostEstimate | None
    rejection: str | None
    #: Whether the backend guarantees exact answers (from its capabilities);
    #: failover only substitutes exact backends, never one approximation for
    #: another.
    exact: bool = True

    @property
    def eligible(self) -> bool:
        """Whether the backend could have served the query."""
        return self.rejection is None


@dataclass(frozen=True)
class Plan:
    """The physical answer strategy chosen for one query."""

    query: Query
    metric: Metric
    backend: "Backend"
    estimate: CostEstimate
    candidates: tuple[PlanCandidate, ...]

    @property
    def backend_name(self) -> str:
        """Registry name of the chosen backend."""
        return self.backend.name

    @property
    def engine(self) -> str:
        """Execution-engine label of the chosen backend."""
        return self.backend.engine

    def failover_chain(self) -> tuple[str, ...]:
        """Backend names to try in order when execution (not planning) fails.

        The chosen backend first, then every other *eligible and exact*
        candidate in ascending estimated-cost order (the sort is stable, so
        equal estimates keep their registration-order tie-break).  Only
        exact backends are substituted: an exact answer satisfies any mode
        (including ``approx`` — it is simply recall 1.0), but swapping one
        approximate backend for another would silently change the
        recall/knob semantics the caller asked for.  A query that pins
        ``query.backend`` gets a single-entry chain — an explicit pin means
        "this backend or nothing", never a silent substitution.
        """
        if self.query.backend is not None:
            return (self.backend_name,)
        eligible = sorted(
            (
                candidate
                for candidate in self.candidates
                if candidate.eligible and candidate.exact
            ),
            key=lambda candidate: candidate.estimate.score,
        )
        rest = [c.backend for c in eligible if c.backend != self.backend_name]
        return (self.backend_name, *rest)

    def describe(self) -> str:
        """The ``explain()`` transcript: query, candidates, decision."""
        lines = [self.query.describe(), "candidates:"]
        for candidate in self.candidates:
            if candidate.eligible:
                assert candidate.estimate is not None
                status = candidate.estimate.summary()
                marker = "->" if candidate.backend == self.backend_name else "  "
            else:
                status = f"rejected: {candidate.rejection}"
                marker = "  "
            lines.append(f"  {marker} {candidate.backend:<16} {status}")
        lines.append(
            f"chosen: {self.backend_name} (engine={self.engine}), "
            f"{self.estimate.summary()}"
        )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.describe()


class QueryPlanner:
    """Chooses the cheapest capable backend for each query.

    Parameters
    ----------
    index:
        The index whose shape (cardinality, dimensionality) the cost
        estimates are computed over.
    registry:
        Backend registry to plan against; defaults to the process-wide
        registry holding the built-in backends.
    """

    #: Cached plans kept before the cache starts over.  Per-request metric
    #: specifications (relevance-feedback weights) would otherwise grow it
    #: without bound.
    PLAN_CACHE_SIZE = 64

    def __init__(self, index: "Index", *, registry: BackendRegistry | None = None) -> None:
        self._index = index
        self._registry = registry if registry is not None else DEFAULT_REGISTRY
        self._plans: dict[tuple, Plan] = {}

    @property
    def registry(self) -> BackendRegistry:
        """The backend registry consulted during planning."""
        return self._registry

    def plan(self, query: Query) -> Plan:
        """Resolve the metric, score every capable backend, pick the cheapest.

        The decision is cached per workload shape and index state (see the
        module docstring); a cached plan is returned re-bound to ``query``
        and is field-for-field what planning from scratch would produce.
        Failed plans are never cached.

        Raises
        ------
        QueryError
            If the query's dimensionality does not match the index.
        PlanError
            If no registered backend can serve the query (the message lists
            every backend's rejection reason), or if a ``query.backend`` hint
            names a backend that cannot serve it.
        """
        key = self._plan_key(query)
        cached = self._plans.get(key)
        if cached is not None:
            return Plan(
                query=query,
                metric=cached.metric,
                backend=cached.backend,
                estimate=cached.estimate,
                candidates=cached.candidates,
            )
        plan = self._plan_uncached(query)
        if len(self._plans) >= self.PLAN_CACHE_SIZE:
            self._plans.clear()
        self._plans[key] = plan
        return plan

    def _plan_key(self, query: Query) -> tuple:
        """Everything a planning decision reads, as one hashable key.

        The index state is part of the key rather than an invalidation hook:
        an entry can only be hit by a query that would plan identically, so
        ``insert`` / ``delete`` / ``reorganize`` (and a reader still pinned
        to the previous epoch) need no coordination with the cache.
        """
        return (
            query.metric_spec_key(),
            query.mode,
            query.k,
            query.vectors.shape,
            query.backend,
            query.approx_params,
            self._index.planning_state(),
            len(self._registry),
        )

    def _plan_uncached(self, query: Query) -> Plan:
        """Walk the registry and decide (the body of :meth:`plan`)."""
        if query.dimensionality != self._index.dimensionality:
            raise QueryError(
                f"query has {query.dimensionality} dimensions, "
                f"the index has {self._index.dimensionality}"
            )
        metric = self._index.resolved_metric(query)
        surcharge = self._tail_surcharge(query)

        candidates: list[PlanCandidate] = []
        best: tuple[float, "Backend", CostEstimate] | None = None
        for backend in self._registry:
            exact = backend.capabilities.exact
            rejection = backend.rejection_reason(query, metric)
            if rejection is not None:
                candidates.append(PlanCandidate(backend.name, None, rejection, exact))
                continue
            estimate = backend.estimate(self._index, query, metric)
            if surcharge is not None:
                estimate = self._apply_surcharge(estimate, surcharge)
            candidates.append(PlanCandidate(backend.name, estimate, None, exact))
            if query.backend is not None and backend.name != query.backend:
                continue
            if best is None or estimate.score < best[0]:
                best = (estimate.score, backend, estimate)

        if query.backend is not None:
            if query.backend not in self._registry:
                raise PlanError(
                    f"query pins unknown backend {query.backend!r}; "
                    f"registered: {self._registry.names()}"
                )
            pinned = next(c for c in candidates if c.backend == query.backend)
            if not pinned.eligible:
                raise PlanError(
                    f"query pins backend {query.backend!r}, which cannot serve it: "
                    f"{pinned.rejection}"
                )

        if best is None:
            reasons = "; ".join(
                f"{candidate.backend}: {candidate.rejection}" for candidate in candidates
            )
            raise PlanError(f"no registered backend can serve {query.describe()} ({reasons})")
        _, backend, estimate = best
        return Plan(
            query=query,
            metric=metric,
            backend=backend,
            estimate=estimate,
            candidates=tuple(candidates),
        )

    def _tail_surcharge(self, query: Query) -> CostEstimate | None:
        """Backend-independent extra cost of the live-update overlay, or None.

        An update-free index (and any index-like object without mutability
        counters) plans exactly as before.  With live updates, every answer
        additionally scans and scores the tail rows and merges them into the
        base top-k — the same work whatever backend produced the base answer,
        hence one uniform additive term.
        """
        tail_rows = int(getattr(self._index, "tail_rows", 0) or 0)
        deleted = int(getattr(self._index, "deleted_count", 0) or 0)
        if not tail_rows and not deleted:
            return None
        queries = max(1, int(query.query_matrix.shape[0]))
        dims = self._index.dimensionality
        return CostEstimate(
            bytes_read=float(tail_rows * dims * 8),
            arithmetic_ops=float(queries * tail_rows * dims),
            detail=f"+ live tail overlay ({tail_rows} rows, {deleted} deletes)",
        )

    @staticmethod
    def _apply_surcharge(estimate: CostEstimate, surcharge: CostEstimate) -> CostEstimate:
        detail = f"{estimate.detail} {surcharge.detail}".strip() if estimate.detail else surcharge.detail
        return CostEstimate(
            bytes_read=estimate.bytes_read + surcharge.bytes_read,
            arithmetic_ops=estimate.arithmetic_ops + surcharge.arithmetic_ops,
            detail=detail,
        )

    def explain(self, query: Query) -> str:
        """The planning transcript for ``query`` (see :meth:`Plan.describe`)."""
        return self._plan_uncached(query).describe()
