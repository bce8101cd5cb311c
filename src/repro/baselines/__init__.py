"""Comparator methods BOND is evaluated against.

* :class:`~repro.baselines.vafile.VAFile` — the Vector-Approximation file of
  Weber et al.: a full sequential scan over 8-bit approximations of every
  vector followed by exact refinement of the candidates (Section 7.4 /
  Table 4 compare BOND-on-approximations against it);
* :class:`~repro.baselines.rtree.RTreeIndex` — a bulk-loaded R-tree with
  best-first k-NN search, the representative space-partitioning method whose
  breakdown with growing dimensionality motivates the paper (Section 2).
"""

from repro.baselines.vafile import VAFile
from repro.baselines.rtree import RTreeIndex

__all__ = ["RTreeIndex", "VAFile"]
