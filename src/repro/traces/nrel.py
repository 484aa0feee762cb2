"""Synthetic NREL-MIDC-style solar irradiance traces.

The paper replays two one-week NREL irradiance traces sampled every
15 minutes: a *High* trace (mostly clear skies, high generation) and a
*Low* trace (cloudy, strongly fluctuating generation) — Section V-A.2.
Without network access to the MIDC archive we synthesise equivalent
traces from first principles:

* **Clear-sky envelope** — global horizontal irradiance follows
  ``GHI_clear(t) = GHI_peak * max(0, sin(pi * (t - sunrise)/daylight))^1.3``
  which closely matches the mid-latitude summer clear-sky shape (the 1.3
  exponent accounts for air-mass losses near the horizon).
* **Cloud attenuation** — a mean-reverting AR(1) process on the
  clearness index, plus Poisson-arriving deep cloud events whose depth
  and duration depend on the weather regime.  *High* weather keeps the
  clearness index near 0.95 with rare shallow events; *Low* weather
  centres it near 0.55 with frequent deep events, reproducing the "more
  fluctuated" supply the paper observes in Fig. 11.

Everything is deterministic for a given seed.  Real MIDC CSV exports can
be loaded with :func:`load_irradiance_csv` and used interchangeably.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import TraceError
from repro.units import SECONDS_PER_DAY, SECONDS_PER_HOUR, minutes

#: Peak clear-sky global horizontal irradiance (W/m^2).
GHI_PEAK = 1000.0

#: Local solar day: sunrise and sunset hours.
SUNRISE_HOUR = 6.0
SUNSET_HOUR = 18.0

#: Native sampling interval of MIDC exports the paper uses.
SAMPLE_INTERVAL_S = int(minutes(15))


class Weather(enum.Enum):
    """Weather regime selecting the cloud-attenuation statistics."""

    HIGH = "high"  # the paper's High solar trace: clear, strong generation
    LOW = "low"    # the paper's Low solar trace: cloudy, fluctuating


@dataclass(frozen=True)
class _CloudParams:
    mean_clearness: float      # long-run mean of the clearness index
    reversion: float           # AR(1) mean-reversion rate per sample
    sigma: float               # innovation std-dev per sample
    event_rate_per_day: float  # Poisson rate of deep cloud events
    event_depth: tuple[float, float]     # uniform range of attenuation depth
    event_duration_s: tuple[float, float]  # uniform range of durations


_CLOUDS: dict[Weather, _CloudParams] = {
    Weather.HIGH: _CloudParams(
        mean_clearness=0.95,
        reversion=0.30,
        sigma=0.02,
        event_rate_per_day=2.0,
        event_depth=(0.15, 0.40),
        event_duration_s=(minutes(15), minutes(60)),
    ),
    Weather.LOW: _CloudParams(
        mean_clearness=0.55,
        reversion=0.15,
        sigma=0.08,
        event_rate_per_day=10.0,
        event_depth=(0.40, 0.90),
        event_duration_s=(minutes(30), minutes(150)),
    ),
}


class IrradianceTrace:
    """A regularly sampled irradiance time series.

    Parameters
    ----------
    times_s:
        Sample timestamps in seconds from trace start, strictly
        increasing and regularly spaced.
    values_w_m2:
        Irradiance at each timestamp (W/m^2), non-negative.
    name:
        Label used in reports (e.g. ``"high"``).
    """

    def __init__(self, times_s: np.ndarray, values_w_m2: np.ndarray, name: str = "trace") -> None:
        times = np.array(times_s, dtype=float)
        values = np.array(values_w_m2, dtype=float)
        if times.ndim != 1 or times.shape != values.shape:
            raise TraceError("times and values must be 1-D arrays of equal length")
        if len(times) < 2:
            raise TraceError("a trace needs at least two samples")
        steps = np.diff(times)
        if not np.all(steps > 0):
            raise TraceError("trace timestamps must be strictly increasing")
        if not np.allclose(steps, steps[0]):
            raise TraceError("trace must be regularly sampled")
        if np.any(values < 0):
            raise TraceError("irradiance must be non-negative")
        # Read-only, so the Python copies :meth:`at` reads cannot go stale.
        times.setflags(write=False)
        values.setflags(write=False)
        self.times_s = times
        self.values_w_m2 = values
        self.name = name
        self._start_s = float(times[0])
        self._interval_s = self.interval_s
        self._duration_s = self.duration_s
        self._values = values.tolist()

    @property
    def interval_s(self) -> float:
        """Sampling interval (s)."""
        return float(self.times_s[1] - self.times_s[0])

    @property
    def duration_s(self) -> float:
        """Total covered duration (s)."""
        return float(self.times_s[-1] - self.times_s[0] + self.interval_s)

    @property
    def peak_w_m2(self) -> float:
        return float(self.values_w_m2.max())

    def at(self, time_s: float) -> float:
        """Irradiance at ``time_s`` (zero-order hold; wraps past the end).

        Wrapping lets a one-week trace drive an arbitrarily long run, the
        same way the paper replays its traces.
        """
        start = self._start_s
        wrapped = (time_s - start) % self._duration_s + start
        idx = int((wrapped - start) // self._interval_s)
        values = self._values
        return values[min(idx, len(values) - 1)]

    def mean_w_m2(self) -> float:
        return float(self.values_w_m2.mean())

    def window(self, start_s: float, end_s: float) -> "IrradianceTrace":
        """Sub-trace covering ``[start_s, end_s)``."""
        mask = (self.times_s >= start_s) & (self.times_s < end_s)
        if mask.sum() < 2:
            raise TraceError("window selects fewer than two samples")
        return IrradianceTrace(self.times_s[mask], self.values_w_m2[mask], self.name)

    def save_csv(self, path: str | Path) -> None:
        """Write the trace as a two-column ``time_s,ghi_w_m2`` CSV."""
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["time_s", "ghi_w_m2"])
            for t, v in zip(self.times_s, self.values_w_m2):
                writer.writerow([f"{t:.0f}", f"{v:.3f}"])


def clear_sky_irradiance(time_s: float) -> float:
    """Clear-sky GHI at local time ``time_s`` (W/m^2)."""
    hour = (time_s % SECONDS_PER_DAY) / SECONDS_PER_HOUR
    if hour <= SUNRISE_HOUR or hour >= SUNSET_HOUR:
        return 0.0
    daylight = SUNSET_HOUR - SUNRISE_HOUR
    elevation = math.sin(math.pi * (hour - SUNRISE_HOUR) / daylight)
    return GHI_PEAK * elevation**1.3


def synthesize_irradiance(
    days: float = 7.0,
    weather: Weather = Weather.HIGH,
    seed: int = 2021,
    interval_s: int = SAMPLE_INTERVAL_S,
) -> IrradianceTrace:
    """Generate a synthetic NREL-style irradiance trace.

    Parameters
    ----------
    days:
        Trace length in days (the paper uses one week).
    weather:
        :class:`Weather.HIGH` or :class:`Weather.LOW` regime.
    seed:
        RNG seed; identical inputs give identical traces.
    interval_s:
        Sampling interval (default 15 minutes, like MIDC).

    Returns
    -------
    IrradianceTrace
    """
    if days <= 0:
        raise TraceError("days must be positive")
    params = _CLOUDS[weather]
    rng = np.random.default_rng(seed)
    n = int(days * SECONDS_PER_DAY // interval_s)
    times = np.arange(n, dtype=float) * interval_s

    # AR(1) clearness index, clamped to [0.05, 1].  One draw yields the
    # stream of n scalar draws.
    clearness = np.empty(n)
    x = params.mean_clearness
    for i, noise in enumerate(rng.standard_normal(n).tolist()):
        x += params.reversion * (params.mean_clearness - x)
        x += params.sigma * noise
        x = min(max(x, 0.05), 1.0)
        clearness[i] = x

    # Poisson deep-cloud events multiply clearness down for their duration.
    expected_events = params.event_rate_per_day * days
    n_events = rng.poisson(expected_events)
    for _ in range(n_events):
        start = rng.uniform(0.0, days * SECONDS_PER_DAY)
        duration = rng.uniform(*params.event_duration_s)
        depth = rng.uniform(*params.event_depth)
        lo = int(start // interval_s)
        hi = int((start + duration) // interval_s) + 1
        clearness[lo:hi] *= 1.0 - depth

    values = np.array([clear_sky_irradiance(t) for t in times.tolist()]) * clearness
    return IrradianceTrace(times, values, name=weather.value)


def load_midc_csv(
    path: str | Path,
    ghi_column: str = "Global Horizontal [W/m^2]",
    name: str | None = None,
) -> IrradianceTrace:
    """Load a real NREL MIDC export (the paper's actual data source).

    MIDC's daily CSV exports carry ``DATE (MM/DD/YYYY)`` and
    ``MST``/``HH:MM`` time columns plus one column per instrument; this
    reads the global-horizontal-irradiance column and converts the
    timestamps to seconds from the first sample.  Negative night-time
    sensor readings (a known MIDC artefact) are clamped to zero.

    Parameters
    ----------
    path:
        The CSV export.
    ghi_column:
        Column holding GHI; instruments differ per station, so pass the
        exact header from your export.
    name:
        Trace label; defaults to the file stem.

    Raises
    ------
    TraceError
        On missing columns, unparseable rows, or irregular sampling.
    """
    times: list[float] = []
    values: list[float] = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames is None:
            raise TraceError(f"{path}: empty file")
        date_col = next(
            (c for c in reader.fieldnames if c.upper().startswith("DATE")), None
        )
        time_col = next(
            (c for c in reader.fieldnames if c in ("MST", "LST", "HH:MM", "Time")),
            None,
        )
        if date_col is None or time_col is None or ghi_column not in reader.fieldnames:
            raise TraceError(
                f"{path}: expected a DATE column, a time column (MST/LST/HH:MM) "
                f"and {ghi_column!r}; found {reader.fieldnames}"
            )
        import datetime as _dt

        first: _dt.datetime | None = None
        for row in reader:
            try:
                month, day, year = (int(x) for x in row[date_col].split("/"))
                hour, minute = (int(x) for x in row[time_col].split(":"))
                stamp = _dt.datetime(year, month, day, hour, minute)
                ghi = max(0.0, float(row[ghi_column]))
            except (TypeError, ValueError, KeyError) as exc:
                raise TraceError(f"{path}: bad row {row!r}") from exc
            if first is None:
                first = stamp
            times.append((stamp - first).total_seconds())
            values.append(ghi)
    return IrradianceTrace(
        np.array(times), np.array(values), name=name or Path(path).stem
    )


def load_irradiance_csv(path: str | Path, name: str | None = None) -> IrradianceTrace:
    """Load a two-column ``time_s,ghi_w_m2`` CSV (as written by ``save_csv``).

    Raises
    ------
    TraceError
        On missing columns or unparseable rows.
    """
    times: list[float] = []
    values: list[float] = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames is None or not {"time_s", "ghi_w_m2"} <= set(reader.fieldnames):
            raise TraceError(f"{path}: expected columns time_s, ghi_w_m2")
        for row in reader:
            try:
                times.append(float(row["time_s"]))
                values.append(float(row["ghi_w_m2"]))
            except (TypeError, ValueError) as exc:
                raise TraceError(f"{path}: bad row {row!r}") from exc
    return IrradianceTrace(
        np.array(times), np.array(values), name=name or Path(path).stem
    )
