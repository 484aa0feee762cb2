"""DVFS power-state ladders and the power-to-state mapping (Section IV-B.4).

The paper's Server Power Controller (SPC) enforces a per-server power
budget by picking a server power state: the state set :math:`S_N` for a
server of type *N* "consists of all server frequency levels and low power
states and is ordered from low power state to high power state", and "any
value between the power limits is linearly scaled to a position in the
state set".

We reproduce that exactly.  A :class:`PowerStateSet` is built from a
:class:`~repro.servers.platform.ServerSpec`: one OFF state (0 W, no
throughput), one SLEEP state (a few watts, no throughput), then the DVFS
frequency ladder from ``min_frequency_hz`` up to ``base_frequency_hz``.
Each DVFS state carries a *power cap*: the wall power the server may draw
when running at that frequency with the current workload at full load.
Power scales with frequency using the classical cubic-ish CMOS relation
(:math:`P \\propto f \\cdot V^2` with voltage roughly linear in frequency),
anchored so the lowest frequency maps to idle-plus-a-sliver and the
highest maps to peak power.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.errors import PowerError
from repro.servers.platform import ServerSpec

#: Wall power of the SLEEP (suspend-to-RAM) state, watts.
SLEEP_POWER_W = 3.0

#: Exponent of the frequency -> dynamic-power relation.  3.0 is the ideal
#: CMOS cube law; real servers measure slightly below it because static
#: power does not scale, so we use 2.4 (within the range reported for
#: Xeon-class parts).
POWER_FREQ_EXPONENT = 2.4

#: Dynamic power burned by the lowest active DVFS state as a fraction of
#: the full dynamic envelope.  Commodity servers cannot run arbitrarily
#: close to idle: voltage floors, uncore clocks and fan steps mean the
#: lowest P-state still costs a sizeable step above idle.  This step is
#: what creates the paper's power-on cliff — allocating a server less
#: than its lowest active draw wastes the entire allocation.
MIN_STATE_DYNAMIC_FRACTION = 0.25


@dataclass(frozen=True)
class PowerState:
    """One entry of a server's ordered power-state set.

    Attributes
    ----------
    index:
        Position in the ordered set (0 = lowest power).
    label:
        Human-readable name (``"off"``, ``"sleep"``, or ``"p<k>"``).
    frequency_hz:
        Operating frequency; 0 for OFF/SLEEP.
    power_cap_w:
        Maximum wall power the server draws in this state at full load.
    active:
        True when the state can execute work (i.e. a DVFS state).
    """

    index: int
    label: str
    frequency_hz: float
    power_cap_w: float
    active: bool

    @property
    def is_off(self) -> bool:
        return self.label == "off"


class PowerStateSet:
    """The ordered power-state set :math:`S_N` for one server platform.

    Parameters
    ----------
    spec:
        Platform whose envelope and ``dvfs_levels`` anchor the ladder.

    Notes
    -----
    The mapping from a power budget to a state follows the paper: the
    budget is clamped to ``[0, peak]`` and the chosen state is the highest
    state whose power cap does not exceed the budget, which is exactly the
    "linear scaling to a position in the state set" with a floor to
    guarantee the cap is honoured.
    """

    def __init__(self, spec: ServerSpec) -> None:
        self.spec = spec
        n_levels = spec.dvfs_levels
        states = [
            PowerState(0, "off", 0.0, 0.0, active=False),
            PowerState(1, "sleep", 0.0, SLEEP_POWER_W, active=False),
        ]
        f_lo, f_hi = spec.min_frequency_hz, spec.base_frequency_hz
        for k in range(n_levels):
            frac = k / (n_levels - 1)
            freq = f_lo + frac * (f_hi - f_lo)
            power = self._power_at_frequency(freq)
            states.append(
                PowerState(
                    index=2 + k,
                    label=f"p{k}",
                    frequency_hz=freq,
                    power_cap_w=power,
                    active=True,
                )
            )
        # The ladder never changes after construction: build both views once.
        self._states: tuple[PowerState, ...] = tuple(states)
        self._active = tuple(s for s in states if s.active)
        self._caps = [s.power_cap_w for s in states]

    def _power_at_frequency(self, freq_hz: float) -> float:
        """Full-load wall power at ``freq_hz``, anchored to the spec envelope.

        ``P(f) = idle + dynamic_range * ((f - f_min)/(f_max - f_min) * span
        + floor)`` shaped by the CMOS exponent, so the lowest active state
        draws slightly above idle and the highest draws exactly peak.
        """
        spec = self.spec
        f_lo, f_hi = spec.min_frequency_hz, spec.base_frequency_hz
        x = (freq_hz - f_lo) / (f_hi - f_lo)
        x = min(max(x, 0.0), 1.0)
        dyn = MIN_STATE_DYNAMIC_FRACTION + (
            1.0 - MIN_STATE_DYNAMIC_FRACTION
        ) * x**POWER_FREQ_EXPONENT
        return spec.idle_power_w + dyn * spec.dynamic_range_w

    def __len__(self) -> int:
        return len(self._states)

    def __iter__(self):
        return iter(self._states)

    def __getitem__(self, index: int) -> PowerState:
        return self._states[index]

    @property
    def states(self) -> tuple[PowerState, ...]:
        """All states, ordered from lowest to highest power."""
        return self._states

    @property
    def active_states(self) -> tuple[PowerState, ...]:
        """Only the DVFS (work-executing) states, low to high."""
        return self._active

    @property
    def min_active_power_w(self) -> float:
        """Power cap of the lowest DVFS state."""
        return self.active_states[0].power_cap_w

    def state_for_budget(self, budget_w: float) -> PowerState:
        """Map a per-server power budget to the state the SPC enforces.

        The highest state whose full-load power cap fits within
        ``budget_w``.  A budget below the lowest active state's cap (i.e.
        the server cannot run even at minimum frequency) falls back to
        SLEEP if the sleep power fits, else OFF.

        Raises
        ------
        PowerError
            If ``budget_w`` is negative.
        """
        if budget_w < 0:
            raise PowerError(f"power budget must be non-negative, got {budget_w}")
        # caps are sorted ascending; find the rightmost cap <= budget.
        pos = bisect.bisect_right(self._caps, budget_w) - 1
        if pos < 0:
            return self._states[0]
        return self._states[pos]

    def frequency_for_budget(self, budget_w: float) -> float:
        """Convenience: operating frequency chosen for ``budget_w`` (Hz)."""
        return self.state_for_budget(budget_w).frequency_hz
