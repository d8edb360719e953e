"""Distribution summaries and table rendering for text reports.

The paper presents Fig. 6 as violins (median + quartiles over 20 runs);
:func:`summarize` produces the same summary numbers from repeated runs, and
:func:`format_table` renders aligned text tables.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.sim.monitor import SummaryStats


def summarize(values: Iterable[float]) -> SummaryStats:
    """Median and quartiles — the data behind one violin."""
    return SummaryStats.from_values(values)


def relative_error(measured: float, expected: float) -> float:
    """|measured - expected| / expected (0 when both are 0)."""
    if expected == 0:
        return 0.0 if measured == 0 else float("inf")
    return abs(measured - expected) / abs(expected)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned text table.

    Every row must have exactly ``len(headers)`` cells; ragged input
    raises :class:`ValueError` instead of silently truncating columns.
    """
    for index, row in enumerate(rows):
        if len(row) != len(headers):
            raise ValueError(
                f"row {index} has {len(row)} cells, expected {len(headers)}"
            )
    columns = [
        [str(h)] + [str(row[i]) for row in rows] for i, h in enumerate(headers)
    ]
    widths = [max(len(cell) for cell in col) for col in columns]
    lines = []
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(str(cell).ljust(w) for cell, w in zip(row, widths))
        )
    return "\n".join(lines)
