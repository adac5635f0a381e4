"""Plain-text table formatting for experiment reports.

The experiment reports print the same rows and series that the paper's
tables and figures report.  This module renders them as aligned ASCII
tables so results are readable in a terminal and in the report files
under ``benchmarks/results/``.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def _stringify(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Render ``rows`` under ``headers`` as an aligned ASCII table."""
    str_rows: List[List[str]] = [[_stringify(cell) for cell in row] for row in rows]
    header_row = [str(h) for h in headers]
    widths = [len(h) for h in header_row]
    for row in str_rows:
        if len(row) != len(header_row):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(header_row)} columns"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(render_row(header_row))
    lines.append("-+-".join("-" * width for width in widths))
    lines.extend(render_row(row) for row in str_rows)
    return "\n".join(lines)
