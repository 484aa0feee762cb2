"""The Enforcer's two controllers (Fig. 4).

Once the scheduler has decided the power sources and the PAR, two
controllers implement the decisions:

* :class:`PowerSourceController` (PSC) drives the PDU/ATS: which sources
  feed the rack, whether the battery may discharge, and who charges it.
* :class:`ServerPowerController` (SPC) converts each group's power share
  into a per-server budget and maps that budget onto the platform's
  ordered power-state set (DVFS level, sleep, or off) — the paper's
  linear power-to-state mapping (Section IV-B.4).  Same-type servers get
  the same share, so the SPC picks one state per group and hands it to
  the epoch physics as an argument.

The rack controller holds one PSC (it owns the PDU) and calls the SPC's
static :meth:`ServerPowerController.apply` directly.
"""

from __future__ import annotations

from repro.core.sources import SourceDecision
from repro.errors import PowerError
from repro.obs.metrics import REGISTRY as _REGISTRY
from repro.power.pdu import PDU, EpochFlows
from repro.servers.dvfs import PowerState
from repro.servers.rack import Rack

_PSC_CALLS_TOTAL = _REGISTRY.counter(
    "repro_psc_calls_total", "PowerSourceController.apply invocations"
).labels()


class ServerPowerController:
    """Maps group power shares onto one DVFS state per group."""

    @staticmethod
    def apply(
        rack: Rack,
        group_budgets_w: tuple[float, ...] | list[float],
        powered_counts: tuple[int, ...] | None = None,
    ) -> tuple[PowerState, ...]:
        """Enforce ``group_budgets_w`` (total watts per group); returns the
        power state of each group's powered servers (the rest are off).

        By default the budget is split evenly inside each group — the
        paper distributes the same power to same-type servers — and the
        group runs the highest power state whose full-load draw fits the
        per-server share.  With ``powered_counts`` (the partial-group
        extension) only ``k`` servers of each group share the budget; the
        rest are switched off, and a group with ``k = 0`` is off.

        Raises
        ------
        PowerError
            On a negative budget, a group-count mismatch, or a powered
            count outside ``[0, count]``.
        """
        groups = rack.groups
        if len(groups) != len(group_budgets_w):
            raise PowerError(
                f"{len(group_budgets_w)} budgets for {len(groups)} groups"
            )
        if powered_counts is not None and len(powered_counts) != len(groups):
            raise PowerError("powered_counts must match the group count")
        states: list[PowerState] = []
        for g, (group, budget) in enumerate(zip(groups, group_budgets_w)):
            if budget < 0:
                raise PowerError(f"group budget must be non-negative, got {budget}")
            k = group.count if powered_counts is None else powered_counts[g]
            if not 0 <= k <= group.count:
                raise PowerError(f"powered count {k} outside [0, {group.count}]")
            states.append(rack.curve(g).state_for_budget(budget / k if k else 0.0))
        return tuple(states)


class PowerSourceController:
    """Executes a :class:`SourceDecision` against the rack's PDU."""

    def __init__(self, pdu: PDU) -> None:
        self.pdu = pdu

    def apply(
        self,
        decision: SourceDecision,
        actual_load_w: float,
        time_s: float,
        duration_s: float,
        grid_budget_w: float | None = None,
        intervals: int = 1,
        renewable_now_w: float | None = None,
    ) -> EpochFlows:
        """Supply ``actual_load_w`` under the decided source plan for
        ``intervals`` successive intervals of ``duration_s`` (see
        :meth:`PDU.supply <repro.power.pdu.PDU.supply>`)."""
        _PSC_CALLS_TOTAL.inc()
        return self.pdu.supply(
            load_w=actual_load_w,
            time_s=time_s,
            duration_s=duration_s,
            use_battery=decision.use_battery,
            grid_charges_battery=decision.grid_charges_battery,
            battery_cap_w=decision.battery_cap_w,
            grid_budget_w=grid_budget_w,
            intervals=intervals,
            renewable_now_w=renewable_now_w,
        )
