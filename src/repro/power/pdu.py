"""The rack power distribution unit (PDU) and transfer-switch logic.

In the paper's architecture (Fig. 2) each rack has its own PDU fed by the
on-site PV array, a distributed battery bank, and the utility grid behind
an automatic transfer switch.  The PDU here *mechanically executes* power
flows for each interval under the priority order the paper fixes:

1. renewable power serves the load first;
2. the battery supplements any shortfall (down to its DoD floor);
3. the grid is the last resort, capped at its budget;
4. surplus renewable charges the battery; when there is no surplus and
   the controller asks for it, leftover grid budget charges the battery —
   never both at once (single-charging-source rule, Section IV-B.1).

*Deciding* how much load to place (the rack power budget, Cases A/B/C)
is the scheduler's job (:mod:`repro.core.sources`); the PDU only enforces
physics and reports what actually flowed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PowerError
from repro.power.battery import BatteryBank
from repro.power.grid import GridSource
from repro.power.sources import ChargeSource, SupplyBreakdown, check_flows


@dataclass(frozen=True)
class EpochFlows:
    """What actually flowed through the PDU during one or more intervals.

    Attributes
    ----------
    breakdown:
        Per-source watts to the load plus battery-charging flows, each
        summed over the intervals and divided by their count (the mean
        over equal intervals).
    renewable_available_w:
        Mean renewable power available over the intervals.
    curtailed_w:
        Mean renewable power neither delivered to the load nor stored
        (battery full or charge-rate limited).
    delivered_w:
        Convenience copy of ``breakdown.total_to_load_w``.
    battery_soc_wh:
        Battery state of charge after the last interval.
    interval_delivered_w:
        Power delivered to the load in each interval.
    interval_renewable_w:
        Renewable power available in each interval.
    """

    breakdown: SupplyBreakdown
    renewable_available_w: float
    curtailed_w: float
    delivered_w: float
    battery_soc_wh: float
    interval_delivered_w: tuple[float, ...]
    interval_renewable_w: tuple[float, ...]


class PDU:
    """One rack's power tree: renewable + battery + grid behind the ATS.

    Parameters
    ----------
    renewable:
        The on-site renewable feed — a
        :class:`~repro.power.solar.SolarFarm`, a
        :class:`~repro.power.wind.WindFarm`, or a
        :class:`~repro.power.wind.HybridRenewable` — anything exposing
        ``power_at(time_s)``.
    battery:
        The rack's distributed battery bank.
    grid:
        Budget-capped utility feed.
    """

    def __init__(self, renewable, battery: BatteryBank, grid: GridSource) -> None:
        if not hasattr(renewable, "power_at"):
            raise PowerError(f"renewable source {renewable!r} lacks power_at()")
        self.renewable = renewable
        self.battery = battery
        self.grid = grid

    def supply(
        self,
        load_w: float,
        time_s: float,
        duration_s: float,
        use_battery: bool = True,
        grid_charges_battery: bool = False,
        battery_cap_w: float | None = None,
        grid_budget_w: float | None = None,
        intervals: int = 1,
        renewable_now_w: float | None = None,
    ) -> EpochFlows:
        """Serve ``load_w`` watts for ``intervals`` intervals of ``duration_s``.

        Each interval is the physics of one call with ``intervals=1`` at
        its own start time; only the battery's state of charge carries
        from one interval to the next.

        Parameters
        ----------
        load_w:
            Rack power demand in every interval.
        time_s:
            Start of the first interval (drives the renewable trace).
        duration_s:
            Length of each interval.
        use_battery:
            Whether the controller permits battery discharge.
        grid_charges_battery:
            Whether leftover grid budget should recharge a non-full
            battery when there is no renewable surplus.
        battery_cap_w:
            Optional limit on battery discharge per interval (the
            rationing extension); the grid covers the remainder.
        grid_budget_w:
            The intervals' grid budget, if not the provisioned one.
        intervals:
            How many successive intervals to serve.
        renewable_now_w:
            The renewable output at ``time_s``, when the caller has
            already read it; the first interval then does not read it
            again.

        Returns
        -------
        EpochFlows
            Actual flows; ``delivered_w`` may be below ``load_w`` when
            every source is exhausted (the scheduler's budget should
            normally prevent that).
        """
        if load_w < 0:
            raise PowerError(f"load must be non-negative, got {load_w}")
        if duration_s <= 0:
            raise PowerError("duration must be positive")
        if intervals < 1:
            raise PowerError(f"intervals must be at least 1, got {intervals}")

        r2l = b2l = g2l = charged = curtailed = available = 0.0
        source = ChargeSource.NONE
        delivered: list[float] = []
        renewables: list[float] = []
        for i in range(intervals):
            if i == 0 and renewable_now_w is not None:
                renewable = renewable_now_w
            else:
                renewable = self.renewable.power_at(time_s + i * duration_s)
            r_to_load, b_to_load, g_to_load, charge_w, charge_source, spilled = (
                self._interval(
                    renewable, load_w, duration_s, use_battery,
                    grid_charges_battery, battery_cap_w, grid_budget_w,
                )
            )
            r2l += r_to_load
            b2l += b_to_load
            g2l += g_to_load
            charged += charge_w
            curtailed += spilled
            available += renewable
            if charge_source is not ChargeSource.NONE:
                source = charge_source
            delivered.append(r_to_load + b_to_load + g_to_load)
            renewables.append(renewable)

        breakdown = SupplyBreakdown(
            renewable_to_load_w=r2l / intervals,
            battery_to_load_w=b2l / intervals,
            grid_to_load_w=g2l / intervals,
            charge_w=charged / intervals,
            charge_source=source,
        )
        return EpochFlows(
            breakdown=breakdown,
            renewable_available_w=available / intervals,
            curtailed_w=curtailed / intervals,
            delivered_w=breakdown.total_to_load_w,
            battery_soc_wh=self.battery.soc_wh,
            interval_delivered_w=tuple(delivered),
            interval_renewable_w=tuple(renewables),
        )

    def _interval(
        self,
        renewable: float,
        load_w: float,
        duration_s: float,
        use_battery: bool,
        grid_charges_battery: bool,
        battery_cap_w: float | None,
        grid_budget_w: float | None,
    ) -> tuple[float, float, float, float, ChargeSource, float]:
        """One interval's flows: (renewable, battery, grid) to the load,
        the charge with its source, and the curtailed renewable power."""
        r_to_load = min(renewable, load_w)
        shortfall = load_w - r_to_load

        b_to_load = 0.0
        if use_battery and shortfall > 0:
            ask = shortfall if battery_cap_w is None else min(shortfall, battery_cap_w)
            if ask > 0:
                b_to_load = self.battery.discharge(ask, duration_s)
                shortfall -= b_to_load

        # Grid: one metered draw covering load and (optionally) charging,
        # with load taking priority within the budget.
        desired_grid_load = shortfall
        surplus = renewable - r_to_load

        charge_w = 0.0
        charge_source = ChargeSource.NONE
        desired_grid_charge = 0.0
        if surplus > 0:
            charge_w = self.battery.charge(surplus, duration_s)
            if charge_w > 0:
                charge_source = ChargeSource.RENEWABLE
        elif grid_charges_battery and not self.battery.is_full:
            grid_w = self.grid.epoch_budget_w(grid_budget_w)
            head = max(0.0, grid_w - min(desired_grid_load, grid_w))
            desired_grid_charge = min(head, self.battery.max_charge_power_w(duration_s))

        g_total = 0.0
        if desired_grid_load > 0 or desired_grid_charge > 0:
            g_total = self.grid.draw(
                desired_grid_load + desired_grid_charge, duration_s, grid_budget_w
            )
        g_to_load = min(desired_grid_load, g_total)
        g_to_charge = g_total - g_to_load
        if g_to_charge > 0:
            accepted = self.battery.charge(g_to_charge, duration_s)
            charge_w = accepted
            charge_source = ChargeSource.GRID

        curtailed = max(0.0, surplus - charge_w) if charge_source is not ChargeSource.GRID else max(0.0, surplus)

        check_flows(r_to_load, b_to_load, g_to_load, charge_w, charge_source)
        return r_to_load, b_to_load, g_to_load, charge_w, charge_source, curtailed
