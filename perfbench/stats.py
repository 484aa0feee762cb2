"""Sample statistics with the benchmark's percentile rule.

A percentile is reported only when at least :data:`MIN_BEYOND` samples
lie beyond it; otherwise it would rest on a handful of outliers.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Samples that must lie strictly above a reported percentile.
MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` sorted samples lie above the nearest-rank ``q``-th percentile."""
    if n <= 0:
        return 0
    rank = max(1, math.ceil(q / 100.0 * n))
    return n - rank


def percentile(samples: Sequence[float], q: float, min_beyond: int = MIN_BEYOND) -> float | None:
    """Nearest-rank ``q``-th percentile, or ``None`` when too few samples lie beyond it."""
    n = len(samples)
    if n == 0 or samples_beyond(n, q) < min_beyond:
        return None
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q / 100.0 * n)) - 1]
