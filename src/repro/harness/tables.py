"""ASCII table rendering for experiment outputs.

Every benchmark prints its table/figure data through these helpers so the
console output of ``pytest benchmarks/`` *is* the reproduction artefact:
the same rows/series the paper's tables and figures report.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence


def _format_cell(value: Any) -> str:
    if value is None:
        return "—"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return "—"
        if abs(value) >= 1000 or (abs(value) < 0.01 and value != 0):
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: Optional[str] = None,
) -> str:
    """Monospace table with column alignment."""
    cells = [[_format_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError(f"row has {len(row)} cells, expected {len(headers)}")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = " | ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in cells:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_series(
    x_label: str,
    x_values: Sequence[Any],
    series: dict,
    title: Optional[str] = None,
) -> str:
    """Tabular rendering of figure series: one x column, one per line."""
    headers = [x_label] + list(series.keys())
    length = len(x_values)
    for name, values in series.items():
        if len(values) != length:
            raise ValueError(f"series {name!r} has {len(values)} points, x has {length}")
    rows = [
        [x] + [series[name][i] for name in series]
        for i, x in enumerate(x_values)
    ]
    return render_table(headers, rows, title=title)
