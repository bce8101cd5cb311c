"""Section 5.2 ablation — choosing the pruning period m.

Attempting to prune after every dimension maximises how early vectors are
discarded but pays the bound-evaluation and kfetch overhead most often;
pruning rarely wastes fragment reads on vectors that could already have been
dropped.  This ablation sweeps m and reports the average work and time per
query, which is the trade-off Section 5.2 describes qualitatively — next to
the two answers this repo gives to the question the section leaves open
("adapt m to the expected pruning effect"): the geometric schedule, which
reacts to the observed effect, and the mass-aware schedule (the exact
engine's default), which sizes the first block from ``T(q⁻)`` and doubles the
blocks over the survivors.
"""

from __future__ import annotations

from repro.bounds.histogram import HqBound
from repro.core.bond import BondSearcher
from repro.core.planner import FixedPeriodSchedule, GeometricSchedule, MassAwareSchedule
from repro.experiments.base import ExperimentReport, ExperimentScale, resolve_scale
from repro.experiments.workloads import corel_setup
from repro.metrics.histogram import HistogramIntersection


def run(
    scale: str | ExperimentScale = "small",
    *,
    periods: tuple[int, ...] = (2, 4, 8, 16, 32, 64),
    k: int = 10,
) -> ExperimentReport:
    """Regenerate the pruning-period ablation."""
    scale = resolve_scale(scale)
    _, store, _, workload = corel_setup(scale)
    metric = HistogramIntersection()

    schedules = {f"m={period}": FixedPeriodSchedule(period) for period in periods}
    schedules["adaptive (geometric)"] = GeometricSchedule(initial_period=8)
    schedules["adaptive (mass-aware)"] = MassAwareSchedule()

    report = ExperimentReport(experiment_id="abl-m", title="Choice of the pruning period m (Hq)")
    for label, schedule in schedules.items():
        searcher = BondSearcher(store, metric=metric, bound=HqBound(), schedule=schedule)
        work, elapsed, comparisons = [], [], []
        for query in workload:
            result = searcher.search(query, k)
            work.append(float(result.cost.total_work))
            elapsed.append(result.elapsed_seconds)
            comparisons.append(float(result.cost.comparisons + result.cost.heap_operations))
        report.add_row(
            schedule=label,
            avg_work=sum(work) / len(work),
            avg_prune_overhead_ops=sum(comparisons) / len(comparisons),
            avg_time_ms=1000.0 * sum(elapsed) / len(elapsed),
        )

    report.add_note(
        "small m prunes sooner but pays kfetch/selection overhead more often; "
        "large m wastes fragment reads — the sweet spot is in between (Section 5.2)"
    )
    report.add_note(f"scale={scale.name}, |X|={store.cardinality}, k={k}")
    return report


if __name__ == "__main__":  # pragma: no cover - manual invocation
    print(run().format_table())
