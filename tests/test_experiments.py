"""Integration tests for the experiment harness.

Every experiment module is run at a deliberately tiny scale; the tests check
that the reports have the expected series and — where it is cheap to do so —
that the qualitative findings of the paper hold (pruning increases with skew,
decreasing order beats increasing order, BOND beats the scan on work, ...).
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    ExperimentReport,
    ExperimentScale,
    resolve_scale,
)
from repro.experiments import (
    abl_pruning_period,
    abl_sam_dimensionality,
    fig2_dataset_stats,
    fig4_pruning_hist,
    fig5_pruning_eucl,
    fig6_effect_of_k,
    fig7_orderings,
    fig8_dimensionality,
    fig9_compression,
    fig10_data_skew,
    fig11_weight_skew,
    sec82_multifeature,
    tab3_response_time,
    tab4_vafile,
)
from repro.errors import ExperimentError

TINY = ExperimentScale(name="tiny", corel_cardinality=900, clustered_cardinality=900, num_queries=3)


class TestReportInfrastructure:
    def test_resolve_scale_by_name(self):
        assert resolve_scale("small").name == "small"
        assert resolve_scale("paper").is_paper_scale

    def test_resolve_scale_passthrough(self):
        assert resolve_scale(TINY) is TINY

    def test_resolve_unknown_scale(self):
        with pytest.raises(ExperimentError):
            resolve_scale("galactic")

    def test_report_columns_and_formatting(self):
        report = ExperimentReport(experiment_id="x", title="demo")
        report.add_row(alpha=1, beta=0.5)
        report.add_row(alpha=2, gamma="g")
        report.add_note("a note")
        assert report.columns() == ["alpha", "beta", "gamma"]
        assert report.column("beta") == [0.5, None]
        text = report.format_table()
        assert "demo" in text and "a note" in text

    def test_empty_report_formatting(self):
        assert "empty" in ExperimentReport(experiment_id="y", title="t").format_table()


class TestFigureExperiments:
    def test_fig2_reports_zipf_shape(self):
        report = fig2_dataset_stats.run(TINY, dimensionality=64)
        values = dict(zip(report.column("statistic"), report.column("value")))
        assert values["average value at rank 1"] > values["average value at rank 8"]
        assert values["gini coefficient (sorted profile)"] > 0.5

    def test_fig4_hq_close_to_hh_and_both_prune(self):
        report = fig4_pruning_hist.run(TINY)
        final = report.rows[-1]
        assert final["Hq_pruned_avg"] > 0.9 * TINY.corel_cardinality
        assert final["Hh_pruned_avg"] >= final["Hq_pruned_avg"] - 1e-9

    def test_fig5_ev_prunes_more_than_eq(self):
        report = fig5_pruning_eucl.run(TINY)
        final = report.rows[-1]
        assert final["Ev_pruned_avg"] >= final["Eq_pruned_avg"]

    def test_fig6_all_k_values_reported(self):
        report = fig6_effect_of_k.run(TINY, k_values=(1, 10, 100))
        columns = report.columns()
        assert "pruned_avg_k=1" in columns and "pruned_avg_k=100" in columns
        final = report.rows[-1]
        assert final["pruned_avg_k=1"] >= final["pruned_avg_k=100"]

    def test_fig7_decreasing_beats_increasing(self):
        report = fig7_orderings.run(TINY)
        midpoint = report.rows[len(report.rows) // 2]
        assert midpoint["pruned_avg_decreasing"] >= midpoint["pruned_avg_increasing"]

    def test_fig8_reports_all_dimensionalities(self):
        report = fig8_dimensionality.run(TINY, dimensionalities=(26, 52))
        assert "pruned_fraction_d=26" in report.columns()
        assert report.rows[-1]["pruned_fraction_d=26"] > 0.5

    def test_fig9_compressed_follows_exact(self):
        report = fig9_compression.run(TINY)
        final = report.rows[-1]
        # The compressed filter may keep slightly more candidates but must follow the trend.
        assert final["compressed_candidates_avg"] <= 0.2 * TINY.corel_cardinality

    def test_fig10_skew_helps_pruning(self):
        report = fig10_data_skew.run(TINY, skews=(0.0, 2.0))
        final = report.rows[-1]
        assert final["pruned_avg_theta=2.0"] >= final["pruned_avg_theta=0.0"]

    def test_fig11_weight_skew_helps_pruning(self):
        report = fig11_weight_skew.run(TINY)
        final = report.rows[-1]
        assert final["pruned_avg[90%-of-weight-on-10%]"] >= final["pruned_avg[uniform]"]


class TestTableExperiments:
    def test_tab3_bond_does_less_work_than_scan(self):
        report = tab3_response_time.run(TINY)
        rows = {row["method"]: row for row in report.rows}
        assert rows["BOND-Hq"]["work_ratio_vs_scan"] > 2.0
        assert rows["BOND-Ev"]["work_ratio_vs_scan"] > 1.0
        assert any("identical to the scans: True" in note for note in report.notes)

    def test_tab4_bond_beats_vafile_on_work(self):
        report = tab4_vafile.run(TINY)
        ratio_row = next(row for row in report.rows if "work ratio" in row["method"])
        assert ratio_row["work_ratio"] > 1.0
        assert any("exact after refinement: True" in note for note in report.notes)

    def test_sec82_synchronized_not_slower_for_min(self):
        report = sec82_multifeature.run(TINY)
        rows = {row["aggregate"]: row for row in report.rows}
        assert rows["fuzzy-min"]["work_ratio_merging_over_sync"] > 1.0
        assert rows["average"]["top1_matches"] and rows["fuzzy-min"]["top1_matches"]


class TestAblations:
    def test_abl_sam_rtree_degrades_with_dimensionality(self):
        report = abl_sam_dimensionality.run(TINY, dimensionalities=(4, 32))
        first, last = report.rows[0], report.rows[-1]
        assert last["rtree_bytes_fraction_of_scan"] > first["rtree_bytes_fraction_of_scan"]

    def test_abl_m_reports_all_schedules(self):
        report = abl_pruning_period.run(TINY, periods=(4, 32))
        labels = report.column("schedule")
        assert "m=4" in labels and "m=32" in labels and "adaptive (geometric)" in labels
        rows = {row["schedule"]: row for row in report.rows}
        # More frequent pruning attempts cost more pruning overhead.
        assert rows["m=4"]["avg_prune_overhead_ops"] >= rows["m=32"]["avg_prune_overhead_ops"]
