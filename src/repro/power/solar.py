"""Photovoltaic array: irradiance trace -> electrical power.

The paper "simulates a data center with renewable energy provision" by
replaying NREL irradiance traces against its prototype (Section V-A.2).
:class:`SolarFarm` performs the same conversion here: a panel area and a
system efficiency turn W/m^2 into watts at the PDU.  The
:meth:`SolarFarm.sized_for` constructor picks the panel area so the
array's clear-sky peak matches a target rack power, which is how we scale
the High/Low traces to each experiment's rack.
"""

from __future__ import annotations

from repro.errors import ConfigurationError, TraceError
from repro.traces.nrel import GHI_PEAK, IrradianceTrace

#: Combined panel + inverter + wiring efficiency of a small PV system.
DEFAULT_SYSTEM_EFFICIENCY = 0.18


class SolarFarm:
    """An on-site PV array replaying an irradiance trace.

    Parameters
    ----------
    trace:
        Irradiance time series (W/m^2).
    panel_area_m2:
        Total collector area.
    efficiency:
        Irradiance-to-AC conversion efficiency in (0, 1].
    """

    def __init__(
        self,
        trace: IrradianceTrace,
        panel_area_m2: float,
        efficiency: float = DEFAULT_SYSTEM_EFFICIENCY,
    ) -> None:
        if panel_area_m2 <= 0:
            raise ConfigurationError("panel area must be positive")
        if not 0.0 < efficiency <= 1.0:
            raise ConfigurationError("efficiency must be in (0, 1]")
        self.trace = trace
        self.panel_area_m2 = panel_area_m2
        self.efficiency = efficiency

    @classmethod
    def sized_for(
        cls,
        trace: IrradianceTrace,
        peak_power_w: float,
        efficiency: float = DEFAULT_SYSTEM_EFFICIENCY,
    ) -> "SolarFarm":
        """Array whose clear-sky-peak output is ``peak_power_w`` watts.

        Sizing uses the nominal clear-sky peak irradiance rather than the
        trace's own maximum so that High and Low traces sized for the
        same rack differ only in weather, not in installed capacity.
        """
        if peak_power_w <= 0:
            raise ConfigurationError("peak power must be positive")
        area = peak_power_w / (GHI_PEAK * efficiency)
        return cls(trace, panel_area_m2=area, efficiency=efficiency)

    def power_at(self, time_s: float) -> float:
        """AC power available from the array at ``time_s`` (W)."""
        power = self.trace.at(time_s) * self.panel_area_m2 * self.efficiency
        if power < 0:  # defensive: traces validate, but belt and braces
            raise TraceError(f"negative solar power at t={time_s}")
        return power
