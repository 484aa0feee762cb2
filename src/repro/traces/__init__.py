"""Input traces: synthetic NREL-style irradiance and diurnal rack load.

The paper drives its prototype with one-week solar irradiance traces from
NREL's Measurement and Instrumentation Data Center (15-minute sampling)
and a "typical datacenter server rack power pattern" from the SIGMETRICS
2012 energy-storage study [13].  Neither dataset ships with this
reproduction, so this subpackage synthesises statistically equivalent
traces: a clear-sky solar model with seeded stochastic cloud attenuation
(High and Low weather regimes), and a two-peak diurnal load curve.
"""

from repro.traces.datacenter_load import DiurnalLoadPattern
from repro.traces.nrel import (
    IrradianceTrace,
    Weather,
    synthesize_irradiance,
)

__all__ = [
    "DiurnalLoadPattern",
    "IrradianceTrace",
    "Weather",
    "synthesize_irradiance",
]
