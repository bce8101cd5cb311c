"""Build-time configuration of the approximate tier.

One frozen :class:`ApproxConfig` describes everything the IVF backend needs
to *build* its structure — the cluster count, the k-means iteration budget
and the seed — plus its default probe count.  The config round-trips through
the persisted manifest, so an index reopened from disk plans and answers
with exactly the knobs it was built with.

The determinism contract of :mod:`repro.approx` starts here: the same config
over the same collection produces a bitwise-identical structure on every run
(k-means uses a seeded generator with a fixed iteration count), which is
what makes the byte-identical-manifest property in ``tests/test_approx.py``
possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from repro.errors import QueryError

#: Default seed of the k-means initialisation; persisted in the manifest.
DEFAULT_APPROX_SEED = 7

#: Keys older manifests record for the retired HNSW graph (degree bound,
#: construction beam, default search beam); ignored on open.
LEGACY_MANIFEST_KEYS = frozenset({"m", "ef_construction", "default_ef_search"})


@dataclass(frozen=True)
class ApproxConfig:
    """Knobs of the approximate tier, fixed at build time.

    Attributes
    ----------
    n_clusters:
        Partition count of the IVF backend; ``None`` (default) resolves to
        ``round(sqrt(cardinality))`` clamped to ``[1, 1024]`` — the classic
        inverted-file sizing that balances the centroid scan against the
        partition scans.
    kmeans_iterations:
        Fixed Lloyd iteration count (no convergence test — a data-dependent
        stopping rule would make the structure depend on floating-point
        noise instead of only on seed + knobs).
    seed:
        Seed of the k-means initialisation.
    default_nprobe:
        Partitions the IVF backend scans when the query sets no knob.
    """

    n_clusters: int | None = None
    kmeans_iterations: int = 10
    seed: int = DEFAULT_APPROX_SEED
    default_nprobe: int = 4

    def __post_init__(self) -> None:
        if self.n_clusters is not None and self.n_clusters < 1:
            raise QueryError(f"n_clusters must be at least 1, got {self.n_clusters}")
        if self.kmeans_iterations < 1:
            raise QueryError(f"kmeans_iterations must be at least 1, got {self.kmeans_iterations}")
        if self.default_nprobe < 1:
            raise QueryError(f"default_nprobe must be at least 1, got {self.default_nprobe}")

    @classmethod
    def coerce(cls, value: "ApproxConfig | dict | None") -> "ApproxConfig":
        """An :class:`ApproxConfig` from an instance, a mapping or ``None``."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, dict):
            known = {field.name for field in fields(cls)}
            unknown = sorted(set(value) - known)
            if unknown:
                raise QueryError(f"unknown approx config key(s) {unknown}; known: {sorted(known)}")
            return cls(**value)
        raise QueryError(
            f"approx must be an ApproxConfig or a mapping of its fields, got {type(value).__name__}"
        )

    def resolve_n_clusters(self, cardinality: int) -> int:
        """The effective IVF partition count for a collection of this size."""
        if self.n_clusters is not None:
            return min(self.n_clusters, cardinality)
        return max(1, min(1024, int(round(math.sqrt(cardinality))), cardinality))

    def to_manifest(self) -> dict:
        """JSON-ready record persisted under the manifest's ``index`` options."""
        return {field.name: getattr(self, field.name) for field in fields(self)}

    @classmethod
    def from_manifest(cls, record: dict) -> "ApproxConfig":
        """Rebuild the config from its manifest record.

        Manifests written while the tier also held an HNSW graph record its
        build knobs too; those keys are dropped here (and only here — a
        caller passing them is still rejected by :meth:`coerce`).
        """
        return cls.coerce(
            {key: value for key, value in record.items() if key not in LEGACY_MANIFEST_KEYS}
        )
