"""ASCII table / series formatting for experiment reports.

The benchmark harness prints, for every table and figure in the paper, the
same rows or series the paper reports.  These helpers render them in a
plain-text form that is stable for capture in ``bench_output.txt``.
"""

from __future__ import annotations

from typing import Mapping, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render ``rows`` under ``headers`` as a fixed-width ASCII table.

    Args:
        headers: Column names.
        rows: Row tuples; floats are rendered with 4 significant digits.
        title: Optional caption printed above the table.

    Returns:
        A multi-line string (no trailing newline).
    """
    rendered_rows = [
        [f"{v:.4g}" if isinstance(v, float) else str(v) for v in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    series: Mapping[str, Sequence[float]],
    x_label: str,
    x_values: Sequence[object],
    title: str | None = None,
) -> str:
    """Render several named y-series against shared x values.

    This is the textual analogue of one of the paper's line plots: one row
    per x value, one column per series.

    Args:
        series: Mapping from series name (e.g. ``"SRW"``, ``"MTO"``) to the
            y values, all the same length as ``x_values``.
        x_label: Header for the x column.
        x_values: Shared x axis values.
        title: Optional caption.

    Returns:
        A multi-line string (no trailing newline).

    Raises:
        ValueError: If any series length disagrees with ``x_values``.
    """
    for name, ys in series.items():
        if len(ys) != len(x_values):
            raise ValueError(
                f"series {name!r} has {len(ys)} points, expected {len(x_values)}"
            )
    headers = [x_label, *series.keys()]
    rows = []
    for i, x in enumerate(x_values):
        rows.append([x, *(series[name][i] for name in series)])
    return format_table(headers, rows, title=title)
