"""Figure 9 — Hq pruning on exact versus 8-bit compressed fragments.

The approximation technique of the VA-file is orthogonal to BOND: running the
Hq filter on 8-bit-per-coefficient fragments follows almost the same pruning
curve as on the exact fragments (the quantisation error only slightly delays
pruning), while every fragment read is eight times smaller.  The filter
leaves a candidate set that still has to be refined on the exact vectors.
"""

from __future__ import annotations

from repro.bounds.histogram import HqBound
from repro.core.bond import BondSearcher
from repro.core.compressed import CompressedBondSearcher
from repro.core.planner import FixedPeriodSchedule
from repro.experiments.base import ExperimentReport, ExperimentScale, resolve_scale
from repro.experiments.pruning_runner import report_grid_points
from repro.experiments.workloads import corel_setup
from repro.instrumentation.pruning import PruningCurveCollector
from repro.metrics.histogram import HistogramIntersection
from repro.storage.compressed import CompressedStore


def run(
    scale: str | ExperimentScale = "small",
    *,
    k: int = 10,
    period: int = 8,
    bits: int = 8,
) -> ExperimentReport:
    """Regenerate the Figure 9 comparison of exact vs compressed pruning."""
    scale = resolve_scale(scale)
    _, store, _, workload = corel_setup(scale)
    compressed = CompressedStore(store, bits=bits)
    metric = HistogramIntersection()
    schedule = FixedPeriodSchedule(period)

    exact_searcher = BondSearcher(store, metric=metric, bound=HqBound(), schedule=schedule)
    approx_searcher = CompressedBondSearcher(
        compressed, metric=metric, schedule=FixedPeriodSchedule(period)
    )

    collectors = {
        "exact": PruningCurveCollector(store.dimensionality, store.cardinality, grid_step=period),
        "compressed": PruningCurveCollector(store.dimensionality, store.cardinality, grid_step=period),
    }
    for query in workload:
        collectors["exact"].add(exact_searcher.search(query, k).candidate_trace)
        collectors["compressed"].add(approx_searcher.search(query, k).candidate_trace)

    report = ExperimentReport(
        experiment_id="fig9", title="Hq pruning on exact vs 8-bit compressed fragments"
    )
    grid = collectors["exact"].grid()
    for index in report_grid_points(collectors["exact"]):
        report.add_row(
            dimensions=int(grid[index]),
            exact_candidates_avg=float(collectors["exact"].remaining_candidates()["average"][index]),
            compressed_candidates_avg=float(
                collectors["compressed"].remaining_candidates()["average"][index]
            ),
        )
    report.add_note(
        "paper: pruning on compressed fragments follows a similar trend to the exact fragments"
    )
    report.add_note(
        f"scale={scale.name}, |X|={store.cardinality}, k={k}, m={period}, bits={bits}"
    )
    return report


if __name__ == "__main__":  # pragma: no cover - manual invocation
    print(run().format_table())
