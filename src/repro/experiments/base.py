"""Shared infrastructure of the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.errors import ExperimentError


@dataclass(frozen=True)
class ExperimentScale:
    """Collection sizes and query counts of an experiment run.

    The paper's experiments use 59,619 real histograms or 100,000 synthetic
    vectors and 100 queries per configuration; ``small`` scales this down so
    the full suite regenerates in minutes, without changing dimensionality or
    any algorithmic parameter.
    """

    name: str
    corel_cardinality: int
    clustered_cardinality: int
    num_queries: int

    @property
    def is_paper_scale(self) -> bool:
        """Whether this is the published experiment size."""
        return self.name == "paper"


SMALL_SCALE = ExperimentScale(
    name="small", corel_cardinality=6_000, clustered_cardinality=6_000, num_queries=12
)
MEDIUM_SCALE = ExperimentScale(
    name="medium", corel_cardinality=20_000, clustered_cardinality=20_000, num_queries=40
)
PAPER_SCALE = ExperimentScale(
    name="paper", corel_cardinality=59_619, clustered_cardinality=100_000, num_queries=100
)

_SCALES = {scale.name: scale for scale in (SMALL_SCALE, MEDIUM_SCALE, PAPER_SCALE)}


def resolve_scale(scale: str | ExperimentScale) -> ExperimentScale:
    """Look up a scale by name, or pass an explicit scale object through."""
    if isinstance(scale, ExperimentScale):
        return scale
    try:
        return _SCALES[scale]
    except KeyError as error:
        raise ExperimentError(
            f"unknown scale {scale!r}; choose from {sorted(_SCALES)} or pass an ExperimentScale"
        ) from error


@dataclass
class ExperimentReport:
    """Rows of one regenerated table or figure.

    Attributes
    ----------
    experiment_id:
        Identifier from the experiment index in :mod:`repro.experiments`
        ("fig4", ...).
    title:
        Human-readable description of the regenerated artefact.
    rows:
        One mapping per series point or table row.
    notes:
        Free-form remarks (scale used, substitutions, caveats).
    """

    experiment_id: str
    title: str
    rows: list[Mapping[str, object]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, **values: object) -> None:
        """Append one row to the report."""
        self.rows.append(values)

    def add_note(self, note: str) -> None:
        """Append one note to the report."""
        self.notes.append(note)

    def columns(self) -> list[str]:
        """Column names, in first-appearance order across the rows."""
        names: list[str] = []
        for row in self.rows:
            for key in row:
                if key not in names:
                    names.append(key)
        return names

    def column(self, name: str) -> list[object]:
        """All values of one column (missing cells become ``None``)."""
        return [row.get(name) for row in self.rows]

    def format_table(self) -> str:
        """Render the report as a fixed-width text table."""
        columns = self.columns()
        if not columns:
            return f"{self.experiment_id}: (empty report)"
        rendered_rows = [
            [_format_cell(row.get(column)) for column in columns] for row in self.rows
        ]
        widths = [
            max(len(column), *(len(rendered[index]) for rendered in rendered_rows))
            if rendered_rows
            else len(column)
            for index, column in enumerate(columns)
        ]
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append("  ".join(column.ljust(width) for column, width in zip(columns, widths)))
        lines.append("  ".join("-" * width for width in widths))
        for rendered in rendered_rows:
            lines.append("  ".join(cell.ljust(width) for cell, width in zip(rendered, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def _format_cell(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value != 0 and (abs(value) >= 10_000 or abs(value) < 0.01):
            return f"{value:.3e}"
        return f"{value:.3f}"
    return str(value)


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values (used for speed-up summaries)."""
    cleaned = [value for value in values if value > 0]
    if not cleaned:
        raise ExperimentError("geometric mean needs at least one positive value")
    product = 1.0
    for value in cleaned:
        product *= value
    return product ** (1.0 / len(cleaned))
