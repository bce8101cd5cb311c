"""Motivation ablation — the R-tree breakdown with growing dimensionality.

Section 2 recalls why space-partitioning indexes are not the answer in high
dimensions: their bounding boxes overlap so much that a k-NN search touches a
large fraction of the data, at which point a sequential scan (and BOND) win.
This ablation sweeps the dimensionality of a clustered collection and
measures what fraction of the collection the R-tree's best-first search has
to fetch, next to BOND's work ratio against a scan.
"""

from __future__ import annotations

from repro.baselines.rtree import RTreeIndex
from repro.bounds.euclidean import EvBound
from repro.core.bond import BondSearcher
from repro.core.planner import FixedPeriodSchedule
from repro.core.sequential import SequentialScan
from repro.datasets.clustered import ClusteredConfig, make_clustered
from repro.experiments.base import ExperimentReport, ExperimentScale, geometric_mean, resolve_scale
from repro.metrics.euclidean import SquaredEuclidean
from repro.storage.decomposed import DecomposedStore
from repro.storage.rowstore import RowStore
from repro.workload.queries import sample_queries


def run(
    scale: str | ExperimentScale = "small",
    *,
    dimensionalities: tuple[int, ...] = (4, 8, 16, 32, 64),
    k: int = 10,
) -> ExperimentReport:
    """Regenerate the SAM-breakdown ablation."""
    scale = resolve_scale(scale)
    metric = SquaredEuclidean()
    report = ExperimentReport(
        experiment_id="abl-sam",
        title="R-tree breakdown with dimensionality vs scan and BOND",
    )
    cardinality = min(scale.clustered_cardinality, 8_000)

    for dimensionality in dimensionalities:
        collection = make_clustered(
            ClusteredConfig(cardinality=cardinality, dimensionality=dimensionality, skew=1.0, seed=3)
        )
        workload = sample_queries(collection, max(4, scale.num_queries // 3), seed=9)
        rtree = RTreeIndex(collection)
        store = DecomposedStore(collection)
        row_store = RowStore(collection)
        # The paper's fixed m = 8, not the engine's adaptive default.
        bond = BondSearcher(
            store, metric=metric, bound=EvBound(), schedule=FixedPeriodSchedule(8)
        )
        scan = SequentialScan(row_store, metric=metric)

        rtree_bytes, scan_bytes, bond_bytes = [], [], []
        for query in workload:
            rtree_bytes.append(float(rtree.search(query, k).cost.bytes_read))
            scan_bytes.append(float(scan.search(query, k).cost.bytes_read))
            bond_bytes.append(float(bond.search(query, k).cost.bytes_read))
        report.add_row(
            dimensionality=dimensionality,
            rtree_bytes_fraction_of_scan=geometric_mean(
                [rtree / scan for rtree, scan in zip(rtree_bytes, scan_bytes)]
            ),
            bond_bytes_fraction_of_scan=geometric_mean(
                [bond / scan for bond, scan in zip(bond_bytes, scan_bytes)]
            ),
        )

    report.add_note(
        "the R-tree's advantage erodes as dimensionality grows (fraction -> 1 and beyond), "
        "while BOND's fraction stays below 1 — the motivation of Section 2"
    )
    report.add_note(f"scale={scale.name}, |X|={cardinality}, k={k}")
    return report


if __name__ == "__main__":  # pragma: no cover - manual invocation
    print(run().format_table())
