"""Failure injection for robustness testing.

A green datacenter's control loop must degrade gracefully when the
physical world misbehaves: inverters trip, batteries are taken offline
for maintenance, utility feeds brown out.  :class:`FaultInjector`
schedules such events against a running controller; the engine applies
it at every epoch boundary, and the restore logic guarantees components
return to their healthy configuration when a window closes.

Three fault families cover the rack's three sources:

* **renewable dropout** — the PV/wind feed produces a fraction of its
  true output (0.0 = total inverter trip) during a window;
* **battery outage** — the bank cannot discharge (maintenance / BMS
  lockout); charging still works, as in a real lockout;
* **grid outage** — the epoch's grid budget collapses to a fraction of
  what it would otherwise be (brownout) or zero (blackout).

The injector never touches controller internals.  Renewable and battery
faults perturb the same physical interfaces the real world would; a
grid fault is a factor :meth:`FaultInjector.apply` returns, which
:meth:`~repro.sim.engine.Simulation.step` folds into the epoch's
``grid_budget_w`` directive, so it also scales a coordinated rack's
cluster share.

Schedules can be declared as compact text specs —
``kind:factor:start_s:end_s`` with ``kind`` one of ``renewable``,
``battery``, ``grid`` (e.g. ``renewable:0.0:10800:21600`` for a total
PV trip between hours 3 and 6) — so experiment configs and the CLI's
``--fault`` flag can drive robustness runs without hand-written scripts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.controller import GreenHeteroController
from repro.errors import ConfigurationError

#: Fault families accepted by :func:`parse_fault_spec`.
FAULT_KINDS = ("renewable", "battery", "grid")


def parse_fault_spec(spec: str) -> tuple[str, FaultWindow]:
    """Parse one ``kind:factor:start_s:end_s`` fault spec.

    Raises
    ------
    ConfigurationError
        On malformed specs (wrong field count, unknown kind, non-numeric
        values, or window/factor constraints violated).
    """
    parts = spec.split(":")
    if len(parts) != 4:
        raise ConfigurationError(
            f"fault spec {spec!r} must be kind:factor:start_s:end_s"
        )
    kind, factor_s, start_s, end_s = parts
    if kind not in FAULT_KINDS:
        raise ConfigurationError(
            f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
        )
    try:
        factor = float(factor_s)
        start = float(start_s)
        end = float(end_s)
    except ValueError as exc:
        raise ConfigurationError(f"non-numeric field in fault spec {spec!r}") from exc
    return kind, FaultWindow(start, end, factor)


@dataclass(frozen=True)
class FaultWindow:
    """A half-open time interval ``[start_s, end_s)`` with a severity."""

    start_s: float
    end_s: float
    factor: float  # remaining capability fraction during the window

    def __post_init__(self) -> None:
        if self.end_s <= self.start_s:
            raise ConfigurationError("fault window must have positive length")
        if not 0.0 <= self.factor <= 1.0:
            raise ConfigurationError("fault factor must be in [0, 1]")

    def active_at(self, time_s: float) -> bool:
        return self.start_s <= time_s < self.end_s


class _FaultableRenewable:
    """Wraps a renewable source, scaling output during fault windows."""

    def __init__(self, inner, windows: list[FaultWindow]) -> None:
        self._inner = inner
        self._windows = windows

    def power_at(self, time_s: float) -> float:
        power = self._inner.power_at(time_s)
        for window in self._windows:
            if window.active_at(time_s):
                power *= window.factor
        return power


@dataclass
class FaultInjector:
    """Schedules component faults against one rack controller."""

    renewable_windows: list[FaultWindow] = field(default_factory=list)
    battery_windows: list[FaultWindow] = field(default_factory=list)
    grid_windows: list[FaultWindow] = field(default_factory=list)
    _attached: bool = False
    _healthy_discharge_w: float | None = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    @classmethod
    def from_specs(cls, specs: Iterable[str]) -> "FaultInjector":
        """Build an injector from ``kind:factor:start_s:end_s`` specs."""
        injector = cls()
        for spec in specs:
            kind, window = parse_fault_spec(spec)
            if kind == "renewable":
                injector.renewable_windows.append(window)
            elif kind == "battery":
                injector.battery_windows.append(window)
            else:
                injector.grid_windows.append(window)
        return injector

    def add_renewable_dropout(self, start_s: float, end_s: float, factor: float = 0.0) -> "FaultInjector":
        """PV/wind output scaled to ``factor`` during the window."""
        self.renewable_windows.append(FaultWindow(start_s, end_s, factor))
        return self

    def add_battery_outage(self, start_s: float, end_s: float) -> "FaultInjector":
        """Battery cannot discharge during the window (BMS lockout)."""
        self.battery_windows.append(FaultWindow(start_s, end_s, 0.0))
        return self

    def add_grid_outage(self, start_s: float, end_s: float, factor: float = 0.0) -> "FaultInjector":
        """Grid budget scaled to ``factor`` (0 = blackout) during the window."""
        self.grid_windows.append(FaultWindow(start_s, end_s, factor))
        return self

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def attach(self, controller: GreenHeteroController) -> None:
        """Wrap the controller's components once (idempotent)."""
        if self._attached:
            return
        controller.pdu.renewable = _FaultableRenewable(
            controller.pdu.renewable, self.renewable_windows
        )
        self._healthy_discharge_w = controller.pdu.battery.max_discharge_w
        self._attached = True

    def apply(self, controller: GreenHeteroController, time_s: float) -> float:
        """Set battery health for the epoch starting at ``time_s``.

        Returns the fraction of its grid budget the epoch keeps.
        """
        self.attach(controller)
        assert self._healthy_discharge_w is not None

        battery_factor = 1.0
        for window in self.battery_windows:
            if window.active_at(time_s):
                battery_factor = min(battery_factor, window.factor)
        # A zero discharge limit would be rejected by the battery's own
        # validation; an epsilon models a locked-out bank faithfully.
        controller.pdu.battery.max_discharge_w = max(
            battery_factor * self._healthy_discharge_w, 1e-9
        )

        grid_factor = 1.0
        for window in self.grid_windows:
            if window.active_at(time_s):
                grid_factor = min(grid_factor, window.factor)
        return grid_factor
