"""On-site wind generation (the paper's other renewable, Section II-A).

The paper's prototype replays solar traces, but its architecture (Fig. 2)
explicitly provisions "photovoltaic (PV) and wind" at the PDU.  This
module supplies the wind half so hybrid green racks can be simulated:

* **Wind speed** — a mean-reverting AR(1) process in log space with a
  mild diurnal modulation (winds pick up in the afternoon), giving the
  right Weibull-ish marginal distribution and realistic gust
  autocorrelation; deterministic per seed.
* **Turbine power curve** — the standard piecewise curve: zero below the
  cut-in speed, cubic between cut-in and rated, flat at rated power, and
  zero again above the cut-out speed (storm protection).

A :class:`WindFarm` exposes the same ``power_at(time_s)`` interface as
:class:`~repro.power.solar.SolarFarm`, so the PDU accepts either — or
both combined through :class:`HybridRenewable`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError, TraceError
from repro.units import SECONDS_PER_DAY, SECONDS_PER_HOUR

#: Standard small-turbine power-curve speeds (m/s).
CUT_IN_MS = 3.0
RATED_MS = 11.0
CUT_OUT_MS = 25.0


def turbine_power_fraction(wind_speed_ms: float) -> float:
    """Fraction of rated power produced at ``wind_speed_ms``.

    Zero below cut-in and above cut-out; cubic ramp from cut-in to
    rated; flat at 1.0 between rated and cut-out.
    """
    if wind_speed_ms < 0:
        raise TraceError(f"wind speed must be non-negative, got {wind_speed_ms}")
    if wind_speed_ms < CUT_IN_MS or wind_speed_ms >= CUT_OUT_MS:
        return 0.0
    if wind_speed_ms >= RATED_MS:
        return 1.0
    x = (wind_speed_ms - CUT_IN_MS) / (RATED_MS - CUT_IN_MS)
    return x**3


class WindSpeedTrace:
    """Synthetic wind-speed series (15-minute sampling, seeded).

    Parameters
    ----------
    days:
        Trace length.
    mean_speed_ms:
        Long-run mean wind speed.
    gustiness:
        Innovation scale of the log-AR(1) process; higher = choppier.
    seed:
        RNG seed.
    """

    def __init__(
        self,
        days: float = 7.0,
        mean_speed_ms: float = 7.0,
        gustiness: float = 0.15,
        seed: int = 2021,
        interval_s: float = 900.0,
    ) -> None:
        if days <= 0:
            raise TraceError("days must be positive")
        if mean_speed_ms <= 0:
            raise TraceError("mean wind speed must be positive")
        if gustiness < 0:
            raise TraceError("gustiness must be non-negative")
        rng = np.random.default_rng(seed)
        n = int(days * SECONDS_PER_DAY // interval_s)
        self.interval_s = interval_s
        self.times_s = np.arange(n) * interval_s
        log_mean = math.log(mean_speed_ms)
        x = log_mean
        speeds = np.empty(n)
        for i in range(n):
            hour = (self.times_s[i] % SECONDS_PER_DAY) / SECONDS_PER_HOUR
            # Afternoon breeze: +-10% diurnal modulation peaking at 15:00.
            diurnal = 1.0 + 0.10 * math.cos((hour - 15.0) / 24.0 * 2.0 * math.pi)
            x += 0.12 * (log_mean - x) + gustiness * rng.standard_normal()
            speeds[i] = math.exp(x) * diurnal
        self.speeds_ms = speeds

    @property
    def duration_s(self) -> float:
        return float(len(self.speeds_ms) * self.interval_s)

    def at(self, time_s: float) -> float:
        """Wind speed at ``time_s`` (zero-order hold, wraps)."""
        wrapped = time_s % self.duration_s
        idx = min(int(wrapped // self.interval_s), len(self.speeds_ms) - 1)
        return float(self.speeds_ms[idx])


class WindFarm:
    """One or more turbines behind the rack PDU.

    Parameters
    ----------
    trace:
        Wind-speed series to replay.
    rated_power_w:
        Combined rated output of the turbines.
    """

    def __init__(self, trace: WindSpeedTrace, rated_power_w: float) -> None:
        if rated_power_w <= 0:
            raise ConfigurationError("rated power must be positive")
        self.trace = trace
        self.rated_power_w = rated_power_w

    def power_at(self, time_s: float) -> float:
        """AC power available from the turbines at ``time_s`` (W)."""
        return self.rated_power_w * turbine_power_fraction(self.trace.at(time_s))


class HybridRenewable:
    """Sum of several renewable feeds sharing one PDU input.

    Accepts anything exposing ``power_at(time_s)`` — solar farms, wind
    farms, or nested hybrids.
    """

    def __init__(self, *sources) -> None:
        if not sources:
            raise ConfigurationError("a hybrid needs at least one source")
        for source in sources:
            if not hasattr(source, "power_at"):
                raise ConfigurationError(f"{source!r} lacks power_at()")
        self.sources = tuple(sources)

    def power_at(self, time_s: float) -> float:
        return sum(source.power_at(time_s) for source in self.sources)
