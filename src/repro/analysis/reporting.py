"""Plain-text rendering of the paper's tables and figure series.

The benches print their reproduced rows through these helpers so the
paper-vs-measured comparison is legible in CI logs without plotting.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ConfigurationError


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an aligned ASCII table."""
    if not headers:
        raise ConfigurationError("a table needs headers")
    str_rows = [[_cell(v) for v in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ConfigurationError(
                f"row width {len(row)} does not match {len(headers)} headers"
            )
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    name: str, values: Sequence[float], fmt: str = "{:.3f}", per_line: int = 12
) -> str:
    """Render a numeric series compactly, wrapped at ``per_line`` values."""
    chunks = []
    rendered = [fmt.format(v) for v in values]
    for i in range(0, len(rendered), per_line):
        chunks.append("  " + " ".join(rendered[i : i + per_line]))
    return f"{name} (n={len(values)}):\n" + "\n".join(chunks)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
