"""Terminal plotting: sparklines, bars, and timelines.

The evaluation figures are time series and bar groups; these helpers
render them in plain text so examples and benches can show *shape*
without a plotting stack (the reproduction environment is offline).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.errors import ConfigurationError

#: Eight-level block characters for sparklines.
_SPARK_LEVELS = " ▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], lo: float | None = None, hi: float | None = None) -> str:
    """Render ``values`` as a unicode sparkline.

    Parameters
    ----------
    values:
        The series; empty input is rejected.
    lo / hi:
        Fixed scale bounds; default to the series min/max.  A flat
        series renders at mid-level.
    """
    if len(values) == 0:
        raise ConfigurationError("cannot sparkline an empty series")
    lo = min(values) if lo is None else lo
    hi = max(values) if hi is None else hi
    if hi < lo:
        raise ConfigurationError("hi must be >= lo")
    span = hi - lo
    out = []
    for v in values:
        if span == 0:
            out.append(_SPARK_LEVELS[4])
            continue
        norm = (min(max(v, lo), hi) - lo) / span
        out.append(_SPARK_LEVELS[1 + int(round(norm * (len(_SPARK_LEVELS) - 2)))])
    return "".join(out)


def timeline(
    series: Mapping[str, Sequence[float]],
    step_label: str = "h",
    stride: int = 1,
) -> str:
    """Stacked sparkline timelines with shared indexing (Fig. 8-style).

    Parameters
    ----------
    series:
        Ordered mapping of name -> values; all must share a length.
    step_label:
        Unit label for the x-axis note.
    stride:
        Downsampling stride applied to every series.
    """
    if not series:
        raise ConfigurationError("cannot render an empty timeline")
    lengths = {len(v) for v in series.values()}
    if len(lengths) != 1:
        raise ConfigurationError("all timeline series must share a length")
    if stride < 1:
        raise ConfigurationError("stride must be >= 1")
    label_w = max(len(k) for k in series)
    lines = []
    n = 0
    for name, values in series.items():
        sampled = list(values)[::stride]
        n = len(sampled)
        lines.append(f"{name.ljust(label_w)} | {sparkline(sampled)}")
    lines.append(f"{''.ljust(label_w)} | 0 .. {n - 1} ({step_label} per cell x{stride})")
    return "\n".join(lines)
