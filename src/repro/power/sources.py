"""Shared power-source vocabulary.

:class:`SupplyBreakdown` is the per-interval accounting record every part
of the stack speaks: how many watts reached the rack from each source,
and how many were routed into the battery.  :class:`ChargeSource` names
who is charging the battery — the paper stipulates "there is only one
power source that can charge the battery at any given time"
(Section IV-B.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import PowerError


class ChargeSource(enum.Enum):
    """Which source, if any, is charging the battery this interval."""

    NONE = "none"
    RENEWABLE = "renewable"
    GRID = "grid"


@dataclass(frozen=True)
class SupplyBreakdown:
    """Average power flows over one interval (all watts, non-negative).

    Attributes
    ----------
    renewable_to_load_w:
        Solar power delivered directly to the rack.
    battery_to_load_w:
        Battery discharge delivered to the rack.
    grid_to_load_w:
        Grid power delivered to the rack.
    charge_w:
        Power routed *into* the battery (before charging losses).
    charge_source:
        Who provided ``charge_w``.
    """

    renewable_to_load_w: float = 0.0
    battery_to_load_w: float = 0.0
    grid_to_load_w: float = 0.0
    charge_w: float = 0.0
    charge_source: ChargeSource = ChargeSource.NONE

    def __post_init__(self) -> None:
        check_flows(
            self.renewable_to_load_w,
            self.battery_to_load_w,
            self.grid_to_load_w,
            self.charge_w,
            self.charge_source,
        )

    @property
    def total_to_load_w(self) -> float:
        """Total power delivered to the rack (W)."""
        return self.renewable_to_load_w + self.battery_to_load_w + self.grid_to_load_w

    @property
    def green_to_load_w(self) -> float:
        """Green (renewable + battery) share of the rack supply (W)."""
        return self.renewable_to_load_w + self.battery_to_load_w

    @property
    def grid_total_w(self) -> float:
        """All grid draw: load plus any grid-sourced charging (W)."""
        charging = self.charge_w if self.charge_source is ChargeSource.GRID else 0.0
        return self.grid_to_load_w + charging


def check_flows(
    renewable_to_load_w: float,
    battery_to_load_w: float,
    grid_to_load_w: float,
    charge_w: float,
    charge_source: ChargeSource,
) -> None:
    """Reject a negative flow, or a charge with no source (1e-9 W slack).

    The checks of :class:`SupplyBreakdown`, callable on bare floats.
    """
    for name, value in (
        ("renewable_to_load_w", renewable_to_load_w),
        ("battery_to_load_w", battery_to_load_w),
        ("grid_to_load_w", grid_to_load_w),
        ("charge_w", charge_w),
    ):
        if value < -1e-9:
            raise PowerError(f"{name} must be non-negative, got {value}")
    if charge_w > 1e-9 and charge_source is ChargeSource.NONE:
        raise PowerError("charge_w > 0 requires a charge source")
