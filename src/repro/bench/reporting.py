"""Tabular reporting for experiment results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence


@dataclass
class ExperimentResult:
    """The output of one experiment: a titled table plus raw rows."""

    experiment: str
    title: str
    headers: Sequence[str]
    rows: List[Sequence[Any]] = field(default_factory=list)
    notes: str = ""

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.headers):
            raise ValueError(
                f"row has {len(values)} values for {len(self.headers)} headers"
            )
        self.rows.append(values)

    def column(self, header: str) -> List[Any]:
        index = list(self.headers).index(header)
        return [row[index] for row in self.rows]

    def as_dicts(self) -> List[Dict[str, Any]]:
        return [dict(zip(self.headers, row)) for row in self.rows]

    def __str__(self) -> str:
        return format_table(self)


def _format_cell(value: Any) -> str:
    if value is None:
        return "-"  # missing, e.g. a latency where nothing committed
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def format_table(result: ExperimentResult) -> str:
    """Render an :class:`ExperimentResult` as an aligned ASCII table."""
    headers = [str(h) for h in result.headers]
    cells = [[_format_cell(v) for v in row] for row in result.rows]
    widths = [
        max(len(headers[i]), max((len(row[i]) for row in cells), default=0))
        for i in range(len(headers))
    ]
    lines = [f"== {result.experiment}: {result.title} =="]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in cells:
        lines.append("  ".join(row[i].rjust(widths[i]) for i in range(len(row))))
    if result.notes:
        lines.append(f"note: {result.notes}")
    return "\n".join(lines)
