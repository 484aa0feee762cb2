"""Sample statistics shared by the metric histograms."""

from __future__ import annotations

from typing import Sequence


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted sample.

    The single definition behind :class:`repro.obs.Histogram`'s exact
    small-sample percentiles.  Empty input yields ``0.0``; the
    rank is clamped into the sample, so ``fraction`` outside [0, 1] is
    tolerated rather than raising.
    """
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, max(0, round(fraction * (len(sorted_values) - 1))))
    return sorted_values[rank]
