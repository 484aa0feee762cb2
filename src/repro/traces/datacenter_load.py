"""The "typical datacenter server rack power pattern" (paper Fig. 6, [13]).

Interactive datacenter demand follows a well-documented diurnal shape: a
morning ramp, a broad daytime plateau, an evening peak, and a deep
overnight trough.  The SIGMETRICS 2012 energy-storage study the paper
cites ([13]) reports rack utilisation swinging between roughly 55% and
100% of peak over a day.  :class:`DiurnalLoadPattern` reproduces that
shape as a smooth, deterministic function of time-of-day built from two
Gaussian bumps over a base level, normalised so the daily maximum is
exactly 1.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from repro.errors import TraceError
from repro.units import SECONDS_PER_DAY, SECONDS_PER_HOUR


@dataclass(frozen=True)
class DiurnalLoadPattern:
    """Normalised diurnal load: ``at(t)`` in ``[trough, 1]``.

    Attributes
    ----------
    trough:
        Overnight minimum as a fraction of peak (default 0.55, per [13]).
    morning_peak_hour / evening_peak_hour:
        Centres of the two activity bumps.
    morning_width_h / evening_width_h:
        Gaussian widths of the bumps, in hours.
    evening_weight:
        Relative height of the evening bump vs the morning one (> 1 makes
        the evening the daily maximum, as in the paper's figure).
    weekend_scale:
        Multiplier applied on days 5 and 6 of each simulated week
        (Saturday/Sunday with day 0 = Monday); production interactive
        traffic drops at weekends.  1.0 (default) disables the weekly
        structure, matching the paper's single-day pattern.
    """

    trough: float = 0.55
    morning_peak_hour: float = 10.0
    evening_peak_hour: float = 20.0
    morning_width_h: float = 3.0
    evening_width_h: float = 2.5
    evening_weight: float = 1.15
    weekend_scale: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.trough < 1.0:
            raise TraceError(f"trough must be in [0, 1), got {self.trough}")
        if self.morning_width_h <= 0 or self.evening_width_h <= 0:
            raise TraceError("bump widths must be positive")
        if self.evening_weight <= 0:
            raise TraceError("evening weight must be positive")
        if not 0.0 < self.weekend_scale <= 1.0:
            raise TraceError("weekend scale must be in (0, 1]")

    def _raw(self, hour: float) -> float:
        """Un-normalised bump mixture at ``hour`` (cyclic distance)."""

        def bump(center: float, width: float) -> float:
            # Cyclic hour distance so the curve is continuous at midnight.
            d = min(abs(hour - center), 24.0 - abs(hour - center))
            return math.exp(-0.5 * (d / width) ** 2)

        return bump(self.morning_peak_hour, self.morning_width_h) + (
            self.evening_weight * bump(self.evening_peak_hour, self.evening_width_h)
        )

    @cached_property
    def _peak_raw(self) -> float:
        # The maximum of the mixture occurs at (or extremely near) the
        # taller bump's centre; sample finely once to be exact.  Cached on
        # first use: the fields are frozen, so the peak is a constant.
        return max(self._raw(h / 10.0) for h in range(0, 240))

    def at(self, time_s: float) -> float:
        """Load fraction at simulation time ``time_s`` (wraps weekly)."""
        hour = (time_s % SECONDS_PER_DAY) / SECONDS_PER_HOUR
        raw = self._raw(hour)
        value = self.trough + (1.0 - self.trough) * raw / self._peak_raw
        day_of_week = int(time_s // SECONDS_PER_DAY) % 7
        if day_of_week >= 5:
            value *= self.weekend_scale
        return value
