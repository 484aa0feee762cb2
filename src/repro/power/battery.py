"""Rack-level lead-acid battery bank.

The paper provisions "10 12V 100Ah lead-acid batteries for the server
racks" with a depth-of-discharge (DoD) cap of 40% — giving about 1300
recharge cycles of lifetime — and an 80% energy efficiency
(Section V-A.2).  :class:`BatteryBank` models exactly that:

* state of charge (SoC) tracked in watt-hours,
* a hard SoC floor at ``(1 - DoD) * capacity`` the controller may not
  discharge below,
* charging losses (the 80% round-trip efficiency applied on the way in),
* C-rate limits on charge and discharge power, and
* equivalent-full-cycle counting for lifetime analysis (Fig. 8b/11b
  discussions).
"""

from __future__ import annotations

from repro.core.persistence import Field, check, field_error
from repro.errors import BatteryError

#: Lead-acid discharge C-rate: capacity / 5 hours.
DEFAULT_DISCHARGE_HOURS = 5.0

#: Lead-acid charge C-rate: capacity / 10 hours.
DEFAULT_CHARGE_HOURS = 10.0

#: Cycle life at 40% DoD for the paper's batteries [31].
RATED_CYCLES_AT_DOD = 1300.0

#: The power an :class:`UnlimitedSupply` delivers at most (W): far above
#: any rack's draw, so only the per-epoch budget limits it.
UNLIMITED_POWER_W = 1e9


#: The checkpointed fields of a :class:`BatteryBank`.
_STATE_FIELDS = dict.fromkeys(
    ("soc_wh", "discharged_wh_total", "charged_wh_total"), Field(lo=0.0)
)


class BatteryBank:
    """A bank of identical lead-acid batteries with DoD and rate limits.

    ``is_unlimited`` is False for every real bank; the
    :class:`UnlimitedSupply` sentinel overrides it so telemetry and
    lifetime analysis can recognise a pseudo-battery and skip it.

    Parameters
    ----------
    count:
        Number of batteries (paper: 10).
    voltage_v / amp_hours:
        Per-battery rating (paper: 12 V, 100 Ah).
    depth_of_discharge:
        Usable fraction of capacity (paper: 0.4).
    efficiency:
        Round-trip energy efficiency, applied to charging (paper: 0.8).
    max_discharge_w / max_charge_w:
        Power limits; default to the C/5 and C/10 rates.
    initial_soc_fraction:
        Starting SoC as a fraction of full capacity (paper initialises
        the battery "to its maximal state").  Starting below the DoD
        floor is rejected: the controller may never discharge below the
        floor, so such a bank could not have reached that state.
    peukert_exponent:
        Rate dependence of lead-acid capacity: discharging faster than
        the reference C/20 rate debits the stored energy by
        ``(P / P_C20) ** (k - 1)``.  The default 1.0 is the ideal
        (rate-independent) battery the paper's energy arithmetic
        assumes; real lead-acid banks measure k ~ 1.1-1.3.
    """

    #: Real banks store finite energy; see :class:`UnlimitedSupply`.
    is_unlimited = False

    def __init__(
        self,
        count: int = 10,
        voltage_v: float = 12.0,
        amp_hours: float = 100.0,
        depth_of_discharge: float = 0.4,
        efficiency: float = 0.8,
        max_discharge_w: float | None = None,
        max_charge_w: float | None = None,
        initial_soc_fraction: float = 1.0,
        peukert_exponent: float = 1.0,
    ) -> None:
        if count < 1:
            raise BatteryError("battery count must be >= 1")
        if voltage_v <= 0 or amp_hours <= 0:
            raise BatteryError("voltage and amp-hours must be positive")
        if not 0.0 < depth_of_discharge <= 1.0:
            raise BatteryError("depth of discharge must be in (0, 1]")
        if not 0.0 < efficiency <= 1.0:
            raise BatteryError("efficiency must be in (0, 1]")

        self.capacity_wh = count * voltage_v * amp_hours
        self.depth_of_discharge = depth_of_discharge
        self.efficiency = efficiency
        self.max_discharge_w = (
            self.capacity_wh / DEFAULT_DISCHARGE_HOURS
            if max_discharge_w is None
            else max_discharge_w
        )
        self.max_charge_w = (
            self.capacity_wh / DEFAULT_CHARGE_HOURS if max_charge_w is None else max_charge_w
        )
        if self.max_discharge_w <= 0 or self.max_charge_w <= 0:
            raise BatteryError("power limits must be positive")
        if not 0.0 <= initial_soc_fraction <= 1.0:
            raise BatteryError("initial SoC fraction must be in [0, 1]")
        if peukert_exponent < 1.0:
            raise BatteryError("Peukert exponent must be >= 1.0")
        self.peukert_exponent = peukert_exponent

        floor = (1.0 - depth_of_discharge) * self.capacity_wh
        initial_wh = initial_soc_fraction * self.capacity_wh
        if initial_wh < floor - 1e-9 * self.capacity_wh:
            raise BatteryError(
                f"initial SoC {initial_soc_fraction:.0%} is below the DoD "
                f"floor ({1.0 - depth_of_discharge:.0%} of capacity); the "
                "controller may never discharge below the floor, so a bank "
                "cannot start there either"
            )
        self.soc_wh = max(initial_wh, floor)
        self._discharged_wh_total = 0.0
        self._charged_wh_total = 0.0

    # ------------------------------------------------------------------
    # State queries
    # ------------------------------------------------------------------
    @property
    def floor_wh(self) -> float:
        """SoC below which discharging is forbidden (the DoD floor)."""
        return (1.0 - self.depth_of_discharge) * self.capacity_wh

    @property
    def usable_wh(self) -> float:
        """Energy available above the DoD floor right now."""
        return max(0.0, self.soc_wh - self.floor_wh)

    @property
    def headroom_wh(self) -> float:
        """Stored energy the bank can still accept."""
        return max(0.0, self.capacity_wh - self.soc_wh)

    @property
    def soc_fraction(self) -> float:
        """SoC as a fraction of full capacity."""
        return self.soc_wh / self.capacity_wh

    @property
    def at_dod_floor(self) -> bool:
        """True when the bank is drained to its DoD limit."""
        return self.usable_wh <= 1e-9

    @property
    def is_full(self) -> bool:
        return self.headroom_wh <= 1e-9

    @property
    def equivalent_cycles(self) -> float:
        """Total discharge expressed in full DoD-depth cycles."""
        per_cycle = self.depth_of_discharge * self.capacity_wh
        return self._discharged_wh_total / per_cycle

    @property
    def lifetime_consumed_fraction(self) -> float:
        """Fraction of the rated 1300-cycle lifetime consumed so far."""
        return self.equivalent_cycles / RATED_CYCLES_AT_DOD

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, float]:
        """SoC and the lifetime throughput counters (the ratings are config)."""
        return {
            "soc_wh": self.soc_wh,
            "discharged_wh_total": self._discharged_wh_total,
            "charged_wh_total": self._charged_wh_total,
        }

    def load_state_dict(self, state: dict[str, float]) -> None:
        """Install a :meth:`state_dict` capture.

        Raises
        ------
        ConfigurationError
            On a field that breaks :data:`_STATE_FIELDS`, or a SoC above
            ``capacity_wh``.
        """
        v = check(state, _STATE_FIELDS)
        if v["soc_wh"] > self.capacity_wh:
            raise field_error(
                "soc_wh", f"must be at most capacity_wh ({self.capacity_wh}), got {v['soc_wh']}"
            )
        self.soc_wh = v["soc_wh"]
        self._discharged_wh_total = v["discharged_wh_total"]
        self._charged_wh_total = v["charged_wh_total"]

    # ------------------------------------------------------------------
    # Flow limits (planning queries used by the scheduler)
    # ------------------------------------------------------------------
    def _peukert_factor(self, power_w: float) -> float:
        """SoC debit multiplier for discharging at ``power_w``.

        Relative to the C/20 reference rate; 1.0 at or below it, and for
        the ideal battery (exponent 1.0) everywhere.
        """
        if self.peukert_exponent == 1.0 or power_w <= 0.0:
            return 1.0
        reference_w = self.capacity_wh / 20.0
        ratio = power_w / reference_w
        if ratio <= 1.0:
            return 1.0
        return ratio ** (self.peukert_exponent - 1.0)

    def max_discharge_power_w(self, duration_s: float) -> float:
        """Largest constant power deliverable for ``duration_s`` seconds."""
        if duration_s <= 0:
            raise BatteryError("duration must be positive")
        energy_limited = self.usable_wh * 3600.0 / duration_s
        # Under Peukert the debit exceeds the delivered energy, shrinking
        # the deliverable power proportionally (first-order correction).
        rate_limited = self.max_discharge_w
        candidate = min(rate_limited, energy_limited)
        factor = self._peukert_factor(candidate)
        return min(rate_limited, energy_limited / factor)

    def max_charge_power_w(self, duration_s: float) -> float:
        """Largest constant charging power acceptable for ``duration_s``."""
        if duration_s <= 0:
            raise BatteryError("duration must be positive")
        # Headroom is filled at `efficiency`, so input power can exceed
        # headroom/duration by 1/efficiency.
        energy_limited = self.headroom_wh / self.efficiency * 3600.0 / duration_s
        return min(self.max_charge_w, energy_limited)

    # ------------------------------------------------------------------
    # Flows
    # ------------------------------------------------------------------
    def discharge(self, power_w: float, duration_s: float) -> float:
        """Discharge at up to ``power_w`` for ``duration_s``.

        Returns the power actually delivered (W), limited by the C-rate
        and the DoD floor.  Never raises for over-asking — the caller
        (the PDU) uses the returned value for accounting.
        """
        if power_w < 0:
            raise BatteryError(f"discharge power must be non-negative, got {power_w}")
        delivered = min(power_w, self.max_discharge_power_w(duration_s))
        energy = delivered * duration_s / 3600.0
        debit = energy * self._peukert_factor(delivered)
        # Never let the Peukert debit cross the DoD floor.
        debit = min(debit, self.usable_wh)
        self.soc_wh -= debit
        self._discharged_wh_total += debit
        return delivered

    def charge(self, power_w: float, duration_s: float) -> float:
        """Charge at up to ``power_w`` for ``duration_s``.

        Returns the input power actually accepted (W); the stored energy
        is ``accepted * duration * efficiency``.
        """
        if power_w < 0:
            raise BatteryError(f"charge power must be non-negative, got {power_w}")
        accepted = min(power_w, self.max_charge_power_w(duration_s))
        energy_in = accepted * duration_s / 3600.0
        self.soc_wh = min(self.capacity_wh, self.soc_wh + energy_in * self.efficiency)
        self._charged_wh_total += energy_in
        return accepted

    def __repr__(self) -> str:
        return (
            f"BatteryBank(soc={self.soc_fraction:.1%} of {self.capacity_wh:.0f} Wh, "
            f"floor={self.floor_wh:.0f} Wh, cycles={self.equivalent_cycles:.2f})"
        )


class UnlimitedSupply(BatteryBank):
    """An inexhaustible pseudo-battery for the constrained-supply sweeps.

    The Fig. 9/10/13/14 methodology needs scarcity to come *only* from
    the per-epoch budget override: the grid is disabled and the battery
    must never run dry.  Oversizing a real :class:`BatteryBank` (the old
    ``count=1000`` trick) merely postpones the DoD floor — a long enough
    horizon still hits it — and its discharge total pollutes the
    equivalent-cycle and lifetime telemetry with nonsense wear numbers.

    This sentinel delivers any requested power up to :data:`UNLIMITED_POWER_W`
    without ever changing state: SoC stays pinned at full, the cycle
    counters stay at zero, and ``is_unlimited`` is True so consumers
    (the invariant auditor, :func:`repro.analysis.lifetime.project_lifetime`)
    can recognise and exclude it.  It reports itself full, so the PDU
    curtails renewable surplus instead of "charging" it away.
    """

    is_unlimited = True

    def __init__(self) -> None:
        # Paper-default geometry keeps every planning query (usable_wh,
        # resume thresholds) finite; the flow methods below pin the state.
        super().__init__()
        self.max_discharge_w = UNLIMITED_POWER_W
        self.max_charge_w = UNLIMITED_POWER_W

    def max_discharge_power_w(self, duration_s: float) -> float:
        if duration_s <= 0:
            raise BatteryError("duration must be positive")
        return self.max_discharge_w

    def max_charge_power_w(self, duration_s: float) -> float:
        if duration_s <= 0:
            raise BatteryError("duration must be positive")
        return 0.0

    def discharge(self, power_w: float, duration_s: float) -> float:
        if power_w < 0:
            raise BatteryError(f"discharge power must be non-negative, got {power_w}")
        if duration_s <= 0:
            raise BatteryError("duration must be positive")
        return min(power_w, self.max_discharge_w)

    def charge(self, power_w: float, duration_s: float) -> float:
        if power_w < 0:
            raise BatteryError(f"charge power must be non-negative, got {power_w}")
        if duration_s <= 0:
            raise BatteryError("duration must be positive")
        return 0.0  # always "full": surplus is curtailed, not stored

    def __repr__(self) -> str:
        return f"UnlimitedSupply(limit={self.max_discharge_w:.0f} W)"
