"""Plain-text table/series formatting for experiment output.

Every experiment prints the same rows/series the paper's table or figure
reports, via these helpers, so the benchmark harness output can be compared
against the paper side by side.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Union

Cell = Union[str, int, float, None]


def _format_cell(value: Cell) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}" if abs(value) < 100 else f"{value:.1f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Cell]],
                 title: Optional[str] = None) -> str:
    """Render an aligned monospace table."""
    str_rows: List[List[str]] = [[_format_cell(c) for c in row]
                                 for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    header = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def percent(value: float) -> str:
    return f"{100.0 * value:.1f}%"

