"""The approximate tier: recall traded for speed, deterministically.

One structure answers ``Query(mode="approx")`` through the planner: **IVF
clustered pruning** (:mod:`repro.approx.ivf`).  Seeded k-means partitions
the rows (:mod:`repro.approx.cluster`), and search scans only the ``nprobe``
partitions whose centroids are nearest to the query.  It is the paper's
filter-and-refine idea generalised from dimensions to rows, built entirely
from the existing store machinery (zero-copy row slices, fused BOND per
partition, shared cost model).

It obeys the repo-wide determinism contract: same build seed + same knobs
⇒ bitwise-identical structures and answers, and the exhaustive setting
(``nprobe >= n_clusters``) returns the exact tier's top-k OID for OID.
Results carry ``exact=False`` whenever the answer is not guaranteed exact.
"""

from repro.approx.cluster import ClusterPlan, build_cluster_plan
from repro.approx.config import ApproxConfig, DEFAULT_APPROX_SEED
from repro.approx.ivf import IVFPartitions, IVFSearcher, effective_nprobe

__all__ = [
    "ApproxConfig",
    "ClusterPlan",
    "DEFAULT_APPROX_SEED",
    "IVFPartitions",
    "IVFSearcher",
    "build_cluster_plan",
    "effective_nprobe",
]
