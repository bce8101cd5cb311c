"""Shared configuration of the benchmark suite.

Every benchmark regenerates one table or figure of the paper through the
experiment harness in :mod:`repro.experiments`.  The default scale is the
"bench" scale below (small enough for the whole suite to run in minutes);
pass ``--repro-scale=paper`` to run at the published collection sizes and
``--repro-scale=small``/``medium`` for the intermediate presets.

The resulting tables are printed to the terminal (run pytest with ``-s`` to
see them) and written twice: the deterministic columns (counts, work and
byte ratios — identical on every run and every machine) go to the tracked
``benchmarks/results/<experiment id>.txt``, so a test run leaves the work
tree clean; the full table including the wall-clock ``*_ms`` columns goes to
``benchmarks/results/timings/``, which git ignores.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments.base import ExperimentReport, ExperimentScale, resolve_scale

#: Default benchmark scale: small enough for CI, large enough to show the shapes.
BENCH_SCALE = ExperimentScale(
    name="bench", corel_cardinality=4_000, clustered_cardinality=4_000, num_queries=8
)

RESULTS_DIRECTORY = pathlib.Path(__file__).parent / "results"
#: Full tables, wall-clock columns included; differs run to run, never committed.
TIMINGS_DIRECTORY = RESULTS_DIRECTORY / "timings"


def without_wall_clock(report: ExperimentReport) -> ExperimentReport:
    """The report minus its wall-clock columns (the experiments name every
    one of them ``*_ms``); what is left repeats exactly for a scale."""
    rows = [
        {column: value for column, value in row.items() if not column.endswith("_ms")}
        for row in report.rows
    ]
    return ExperimentReport(report.experiment_id, report.title, rows, list(report.notes))


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--repro-scale",
        action="store",
        default="bench",
        help="experiment scale: bench (default), small, medium or paper",
    )


@pytest.fixture(scope="session")
def experiment_scale(request: pytest.FixtureRequest) -> ExperimentScale:
    """The scale every benchmark runs its experiment at."""
    name = request.config.getoption("--repro-scale")
    if name == "bench":
        return BENCH_SCALE
    return resolve_scale(name)


@pytest.fixture(scope="session")
def record_report():
    """Persist a report (see the module docstring) and echo it to the terminal."""
    TIMINGS_DIRECTORY.mkdir(parents=True, exist_ok=True)

    def _record(report) -> None:
        text = report.format_table()
        print("\n" + text)
        name = f"{report.experiment_id}.txt"
        (TIMINGS_DIRECTORY / name).write_text(text + "\n")
        (RESULTS_DIRECTORY / name).write_text(without_wall_clock(report).format_table() + "\n")

    return _record
