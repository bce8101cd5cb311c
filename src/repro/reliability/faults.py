"""Seeded, deterministic fault injection.

A :class:`FaultPlan` arms named **fault points** — fixed places in the stack
where failures plausibly originate — with error / delay / hang schedules.
The schedule is a pure function of the plan's seed and the per-spec hit
counter, so two runs of the same workload under the same plan observe the
*same* fault sequence: chaos tests replay bit for bit, and a failure found
by ``tests/test_reliability.py::TestChaosProperty`` reproduces from its seed
alone.

The registered fault points:

===================  ==========================================================
``shard.map``        per-shard task dispatch in the sharded parallel engines
                     (:mod:`repro.core.parallel`); context: ``shard``
``store.read_fragment``  per-fragment file read in
                     :func:`repro.storage.persistence.load_decomposed`;
                     context: ``dimension``, ``file``
``backend.answer``   backend execution behind ``Index.answer``
                     (:meth:`repro.api.backends.Backend.answer`);
                     context: ``backend``
``executor.dispatch``  worker-thread batch body of the serving layer
                     (:class:`repro.serving.SearchService`); no context
``wal.append``       write-ahead-log record construction, before any byte is
                     written (:class:`repro.mutability.WriteAheadLog`);
                     context: ``lsn``, ``op``
``wal.fsync``        after the WAL record bytes are written but before the
                     ``fsync`` that makes the update acknowledgeable;
                     context: ``lsn``
``manifest.commit``  immediately before the atomic manifest rename that
                     commits a new store generation
                     (:func:`repro.storage.persistence.save_decomposed`);
                     context: ``generation``
``file.rename``      every atomic ``os.replace`` of the storage layer (the
                     manifest commit point and any future rename site);
                     context: ``source``, ``target``
===================  ==========================================================

Production code calls :func:`fault_point` at these sites; with no plan
active the call is a single ``is None`` check, so the hot paths pay nothing.
Arming is a context manager::

    plan = FaultPlan(seed=7).arm("backend.answer", rate=0.3, times=5)
    with plan:
        ...  # ~30% of backend executions raise TransientBackendError
    plan.events  # exactly which hits fired, replayable from the seed

Hangs park the calling thread on an event the plan releases when its context
exits (or on an explicit :meth:`FaultPlan.release_hangs`), so a test that
wedges an executor on purpose can always un-wedge it afterwards.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import FaultInjectionError, TransientBackendError

#: The fault points production code declares via :func:`fault_point`.
FAULT_POINTS = frozenset(
    {
        "shard.map",
        "store.read_fragment",
        "backend.answer",
        "executor.dispatch",
        "wal.append",
        "wal.fsync",
        "manifest.commit",
        "file.rename",
    }
)

#: Supported fault actions.
FAULT_KINDS = frozenset({"error", "delay", "hang"})

#: Upper bound a hang fault waits for release before giving up and raising.
#: Keeps a forgotten plan from wedging a process forever; real tests release
#: hangs explicitly (leaving the plan's context does it).
DEFAULT_HANG_TIMEOUT = 60.0


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: where it fires, how often, and what it does.

    Attributes
    ----------
    point:
        Fault-point name (one of :data:`FAULT_POINTS`).
    kind:
        ``"error"`` raises :attr:`error`, ``"delay"`` sleeps :attr:`delay`
        seconds, ``"hang"`` parks the thread until the plan releases it.
    rate:
        Per-hit firing probability.  The decision stream is drawn from a
        seeded per-spec RNG indexed by hit count, so it is deterministic.
    after:
        Number of matching hits to let pass before the spec may fire.
    times:
        Maximum number of fires (``None``: unlimited).
    delay:
        Sleep seconds of a ``"delay"`` fault.
    error:
        Exception type an ``"error"`` fault raises (default
        :class:`~repro.errors.TransientBackendError`, the retryable kind).
    message:
        Error message override (default names the point and hit index).
    where:
        Context filter: the spec only matches hits whose keyword context
        contains every ``key: value`` pair (e.g. ``{"shard": 1}`` or
        ``{"backend": "bond"}``).
    hang_timeout:
        Seconds a ``"hang"`` waits for release before raising
        :class:`~repro.errors.FaultInjectionError`.
    """

    point: str
    kind: str = "error"
    rate: float = 1.0
    after: int = 0
    times: int | None = None
    delay: float = 0.01
    error: type[BaseException] = TransientBackendError
    message: str = ""
    where: Mapping | None = None
    hang_timeout: float = DEFAULT_HANG_TIMEOUT

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            raise FaultInjectionError(
                f"unknown fault point {self.point!r}; registered: {sorted(FAULT_POINTS)}"
            )
        if self.kind not in FAULT_KINDS:
            raise FaultInjectionError(
                f"unknown fault kind {self.kind!r}; supported: {sorted(FAULT_KINDS)}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise FaultInjectionError(f"rate must be within [0, 1], got {self.rate}")
        if self.after < 0:
            raise FaultInjectionError(f"after must be non-negative, got {self.after}")
        if self.times is not None and self.times < 1:
            raise FaultInjectionError(f"times must be positive, got {self.times}")
        if self.delay < 0 or self.hang_timeout <= 0:
            raise FaultInjectionError("delay must be >= 0 and hang_timeout > 0")
        if not (isinstance(self.error, type) and issubclass(self.error, BaseException)):
            raise FaultInjectionError(f"error must be an exception type, got {self.error!r}")

    def matches(self, point: str, context: Mapping) -> bool:
        """Whether a hit at ``point`` with ``context`` counts for this spec."""
        if point != self.point:
            return False
        if self.where:
            return all(context.get(key) == value for key, value in self.where.items())
        return True


@dataclass(frozen=True)
class FaultEvent:
    """One fired fault, recorded for replay verification."""

    point: str
    spec_index: int
    hit: int
    kind: str
    context: tuple = ()


@dataclass
class _SpecState:
    """Mutable firing state of one armed spec (guarded by the plan lock)."""

    spec: FaultSpec
    rng: random.Random
    hits: int = 0
    fired: int = 0
    decisions: list[bool] = field(default_factory=list)

    def decide(self) -> bool:
        """Deterministically decide whether hit number ``hits`` fires.

        The Bernoulli stream is drawn *unconditionally* per matching hit, so
        ``after`` / ``times`` windows shift which decisions take effect but
        never desynchronise the stream — the replay property tests rely on
        exactly this.
        """
        hit = self.hits
        self.hits += 1
        outcome = self.rng.random() < self.spec.rate
        self.decisions.append(outcome)
        if not outcome:
            return False
        if hit < self.spec.after:
            return False
        if self.spec.times is not None and self.fired >= self.spec.times:
            return False
        self.fired += 1
        return True


class FaultPlan:
    """A deterministic schedule of faults over the registered fault points.

    Parameters
    ----------
    seed:
        Root seed of the per-spec decision streams.
    specs:
        Pre-built :class:`FaultSpec` entries; :meth:`arm` appends more.

    The plan is a context manager: entering installs it as the process-wide
    active plan (only one may be active at a time), exiting uninstalls it and
    releases any threads parked on hang faults.
    """

    def __init__(self, seed: int = 0, specs: tuple[FaultSpec, ...] = ()) -> None:
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._states: list[_SpecState] = []
        self._events: list[FaultEvent] = []
        self._hang_release = threading.Event()
        self._active = False
        for spec in specs:
            self._add(spec)

    def _add(self, spec: FaultSpec) -> None:
        index = len(self._states)
        self._states.append(
            _SpecState(spec=spec, rng=random.Random(f"{self.seed}:{index}:{spec.point}"))
        )

    def arm(self, point: str, **spec_kwargs) -> "FaultPlan":
        """Arm one more fault (see :class:`FaultSpec`); returns ``self``."""
        if self._active:
            raise FaultInjectionError("cannot arm new faults on an active plan")
        self._add(FaultSpec(point=point, **spec_kwargs))
        return self

    @property
    def specs(self) -> tuple[FaultSpec, ...]:
        """The armed specs, in arm order."""
        return tuple(state.spec for state in self._states)

    @property
    def events(self) -> tuple[FaultEvent, ...]:
        """Every fault fired so far (the replayable record)."""
        with self._lock:
            return tuple(self._events)

    def fired(self, point: str | None = None) -> int:
        """Number of faults fired, optionally restricted to one point."""
        with self._lock:
            if point is None:
                return len(self._events)
            return sum(1 for event in self._events if event.point == point)

    def hits(self, point: str) -> int:
        """Matching hits observed at ``point`` across all specs."""
        with self._lock:
            return sum(
                state.hits for state in self._states if state.spec.point == point
            )

    def release_hangs(self) -> None:
        """Wake every thread parked on a hang fault (idempotent)."""
        self._hang_release.set()

    # -- context-manager installation ---------------------------------------------

    def __enter__(self) -> "FaultPlan":
        global _ACTIVE_PLAN
        with _REGISTRY_LOCK:
            if _ACTIVE_PLAN is not None:
                raise FaultInjectionError("another FaultPlan is already active")
            if self._active:
                raise FaultInjectionError("this FaultPlan is already active")
            self._active = True
            self._hang_release.clear()
            _ACTIVE_PLAN = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _ACTIVE_PLAN
        with _REGISTRY_LOCK:
            if _ACTIVE_PLAN is self:
                _ACTIVE_PLAN = None
            self._active = False
        self.release_hangs()

    # -- the hit path --------------------------------------------------------------

    def _hit(self, point: str, context: Mapping) -> None:
        """Process one fault-point hit: decide, record, act."""
        actions: list[tuple[FaultSpec, FaultEvent]] = []
        with self._lock:
            for index, state in enumerate(self._states):
                if not state.spec.matches(point, context):
                    continue
                if state.decide():
                    event = FaultEvent(
                        point=point,
                        spec_index=index,
                        hit=state.hits - 1,
                        kind=state.spec.kind,
                        context=tuple(sorted((str(k), repr(v)) for k, v in context.items())),
                    )
                    self._events.append(event)
                    actions.append((state.spec, event))
        # Act outside the lock: delays and hangs must not serialise unrelated
        # fault points, and a raised error must not poison the registry.
        for spec, event in actions:
            if spec.kind == "delay":
                time.sleep(spec.delay)
            elif spec.kind == "hang":
                released = self._hang_release.wait(spec.hang_timeout)
                if not released:
                    raise FaultInjectionError(
                        f"hang fault at {point!r} was never released "
                        f"(waited {spec.hang_timeout}s)"
                    )
            else:  # "error"
                message = spec.message or (
                    f"injected fault at {point!r} (spec {event.spec_index}, "
                    f"hit {event.hit}, seed {self.seed})"
                )
                raise spec.error(message)


_REGISTRY_LOCK = threading.Lock()
_ACTIVE_PLAN: FaultPlan | None = None


def active_plan() -> FaultPlan | None:
    """The currently installed plan, if any."""
    return _ACTIVE_PLAN


def fault_point(name: str, **context) -> None:
    """Declare a fault point: a no-op unless a plan armed faults here.

    Call sites pass identifying context as keyword arguments (shard index,
    backend name, fragment file); specs filter on it via ``where=``.
    """
    plan = _ACTIVE_PLAN
    if plan is None:
        return
    plan._hit(name, context)
