"""Plain-text rendering of benchmark tables, series and experiment outputs."""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any


def format_table(title: str, rows: Sequence[Mapping[str, Any]]) -> str:
    """Render a list of row dictionaries as an aligned text table."""
    if not rows:
        return f"{title}\n(no data)\n"
    columns = list(rows[0].keys())
    widths = {column: len(str(column)) for column in columns}
    rendered_rows = []
    for row in rows:
        rendered = {column: _render(row.get(column, "")) for column in columns}
        rendered_rows.append(rendered)
        for column in columns:
            widths[column] = max(widths[column], len(rendered[column]))
    lines = [title]
    header = " | ".join(str(column).ljust(widths[column]) for column in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[column] for column in columns))
    for rendered in rendered_rows:
        lines.append(" | ".join(rendered[column].ljust(widths[column]) for column in columns))
    return "\n".join(lines) + "\n"


def format_series(title: str, series: Mapping[str, Sequence[Any]]) -> str:
    """Render named series (e.g. per-query values) as labelled lists."""
    lines = [title]
    for name, values in series.items():
        rendered = ", ".join(_render(value) for value in values)
        lines.append(f"  {name}: [{rendered}]")
    return "\n".join(lines) + "\n"


def render(output: Mapping[str, Any]) -> str:
    """Render an experiment output dictionary as text."""
    parts: list[str] = []
    title = output.get("title", "experiment")
    if "rows" in output:
        parts.append(format_table(title, output["rows"]))
    if "series" in output:
        parts.append(format_series(title, output["series"]))
    for key in ("chain", "star", "m1", "m_half"):
        nested = output.get(key)
        if isinstance(nested, dict) and "series" in nested:
            parts.append(format_series(nested["title"], nested["series"]))
    for key in ("standard", "udf"):
        if isinstance(output.get(key), list):
            parts.append(format_table(f"{title} ({key})", output[key]))
    if "batch_reuse" in output:
        parts.append(format_table(f"{title} (batch reuse)", output["batch_reuse"]))
    if "scatter" in output:
        parts.append(format_table(f"{title} (per-query speedups)", output["scatter"]))
    return "\n".join(parts) if parts else title


def _render(value: Any) -> str:
    if isinstance(value, float):
        if value >= 100:
            return f"{value:,.0f}"
        return f"{value:.2f}"
    if isinstance(value, int):
        return f"{value:,}"
    if isinstance(value, tuple):
        return " ".join(str(v) for v in value)
    return str(value)
