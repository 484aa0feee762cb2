"""Per-epoch invariant auditing of the simulation's power accounting.

Every subsystem above the PDU trusts that the power arithmetic is right;
an accounting bug surfaces only as a silently-wrong EPU number.  The
:class:`InvariantAuditor` closes that gap: after each epoch it re-derives
the physics from the :class:`~repro.core.controller.EpochRecord` and the
live component state, and asserts — with explicit tolerances — that:

* **energy-conservation** — renewable power is fully accounted for
  (``to-load + curtailed <= available <= to-load + curtailed + charge``,
  exact when nothing charged), and useful power never exceeds what the
  sources delivered;
* **battery-soc** — the SoC delta matches the epoch's discharge and
  charge flows under the bank's round-trip efficiency (exact for the
  ideal Peukert-1.0 battery, one-sided for rate-dependent banks);
* **soc-floor** — the SoC never leaves ``[DoD floor, capacity]``;
* **grid-budget** — grid draw to the load never exceeds the epoch's
  grid budget (its directed share, else the feed's provisioned budget);
* **ratios** — the PAR vector satisfies ``sum(eta) <= 1`` with no
  negative entries;
* **epu-range** — EPU, useful power, and throughput are in range;
* **fit-bounds** — every solver-allocated per-server share sits inside
  its database fit's ``[idle, peak]`` operating box.

The auditor always runs every check and counts violations in the
``repro_verify_violations_total{check=...}`` metric; ``strict`` only
controls whether a violating epoch additionally raises
:class:`~repro.errors.InvariantViolation`.  Checks are pluggable: pass a
custom sequence to audit a subset or an extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.controller import (
    NO_DIRECTIVES, EpochDirectives, EpochRecord, GreenHeteroController,
)
from repro.errors import DatabaseMissError, InvariantViolation
from repro.obs.metrics import REGISTRY as _REGISTRY, ChildCache as _ChildCache

_VIOLATIONS_TOTAL = _REGISTRY.counter(
    "repro_verify_violations_total",
    "Invariant-audit violations by check name",
    labelnames=("check",),
)
_VIOLATIONS = _ChildCache(_VIOLATIONS_TOTAL)

#: Base absolute tolerance (W / Wh) for the audit comparisons; scaled up
#: with the magnitude of the quantities involved (see :func:`_tol`).
BASE_TOL = 1e-6

#: Slack allowed on the PAR-vector sum and per-ratio sign checks.
RATIO_TOL = 1e-6

#: Relative slack on the fit-bounds box (meter noise never moves a bound
#: by less than this).
FIT_BOUND_REL_TOL = 1e-6


def _tol(*scales: float) -> float:
    """Absolute tolerance scaled to the magnitudes being compared."""
    return BASE_TOL * max(1.0, *(abs(s) for s in scales))


@dataclass(frozen=True)
class Violation:
    """One failed invariant check for one epoch."""

    check: str
    message: str
    time_s: float


@dataclass(frozen=True)
class AuditContext:
    """Everything a check needs to re-derive one epoch's physics.

    Attributes
    ----------
    record:
        The epoch's telemetry record.
    controller:
        The live controller (battery, grid, and database state are read
        from it — their post-epoch state corresponds to ``record``).
    epoch_s:
        Epoch length in seconds.
    soc_before_wh:
        Battery SoC captured immediately before the epoch executed
        (after fault injection), so the SoC delta can be checked.
    directives:
        The per-epoch directives the controller ran under; group caps
        (shift gating) waive the fit-bounds lower check, because caps
        legitimately push a group below its power-on point.
    """

    record: EpochRecord
    controller: GreenHeteroController
    epoch_s: float
    soc_before_wh: float
    directives: EpochDirectives = NO_DIRECTIVES


Check = Callable[[AuditContext], "list[Violation]"]


# ----------------------------------------------------------------------
# Checks.  Each re-derives one invariant from the record and live state;
# all flow values in the record are epoch-mean watts, and every bound
# below holds exactly per PDU substep, hence for the means.
# ----------------------------------------------------------------------
def check_energy_conservation(ctx: AuditContext) -> list[Violation]:
    r = ctx.record
    out: list[Violation] = []
    tol = _tol(r.renewable_w, r.budget_w, r.charge_w)

    if r.renewable_to_load_w > r.renewable_w + tol:
        out.append(
            Violation(
                "energy-conservation",
                f"renewable-to-load {r.renewable_to_load_w:.6f} W exceeds "
                f"available renewable {r.renewable_w:.6f} W",
                r.time_s,
            )
        )

    # Available renewable splits into load, curtailment, and (when the
    # battery charged from it) storage input.  Epochs that charged from
    # the grid keep the charge term out of the identity, so the split is
    # a two-sided bound that collapses to an equality when nothing
    # charged (charge_w == 0 whenever charge_source is NONE).
    accounted = r.renewable_to_load_w + r.curtailed_w
    if accounted > r.renewable_w + tol:
        out.append(
            Violation(
                "energy-conservation",
                f"renewable-to-load + curtailed = {accounted:.6f} W exceeds "
                f"available renewable {r.renewable_w:.6f} W",
                r.time_s,
            )
        )
    # charge_source records the *last* charging source of the epoch; a
    # mixed epoch may have charged from both, so the sound upper bound
    # always includes the full charge term.
    upper = accounted + r.charge_w
    if r.renewable_w > upper + tol:
        out.append(
            Violation(
                "energy-conservation",
                f"available renewable {r.renewable_w:.6f} W is not accounted "
                f"for by to-load + curtailed + charge = {upper:.6f} W",
                r.time_s,
            )
        )

    delivered = (
        r.renewable_to_load_w + r.battery_to_load_w + r.grid_to_load_w
    )
    if r.useful_power_w > delivered + _tol(delivered, r.useful_power_w):
        out.append(
            Violation(
                "energy-conservation",
                f"useful power {r.useful_power_w:.6f} W exceeds delivered "
                f"supply {delivered:.6f} W",
                r.time_s,
            )
        )
    return out


def check_battery_soc(ctx: AuditContext) -> list[Violation]:
    battery = ctx.controller.pdu.battery
    if battery.is_unlimited:
        return []
    r = ctx.record
    hours = ctx.epoch_s / 3600.0
    stored_wh = r.charge_w * hours * battery.efficiency
    discharged_wh = r.battery_to_load_w * hours
    delta = r.battery_soc_wh - ctx.soc_before_wh
    expected = stored_wh - discharged_wh
    tol = _tol(battery.capacity_wh * 1e-3, stored_wh, discharged_wh)
    if battery.peukert_exponent == 1.0:
        if abs(delta - expected) > tol:
            return [
                Violation(
                    "battery-soc",
                    f"SoC delta {delta:.6f} Wh does not match flows "
                    f"(charge*eff - discharge = {expected:.6f} Wh)",
                    r.time_s,
                )
            ]
    elif delta > expected + tol:
        # Peukert debits at least the delivered energy, so the SoC may
        # fall faster than the ideal arithmetic but never slower.
        return [
            Violation(
                "battery-soc",
                f"SoC delta {delta:.6f} Wh exceeds the ideal-battery bound "
                f"{expected:.6f} Wh despite Peukert debiting",
                r.time_s,
            )
        ]
    return []


def check_soc_floor(ctx: AuditContext) -> list[Violation]:
    battery = ctx.controller.pdu.battery
    r = ctx.record
    tol = _tol(battery.capacity_wh * 1e-3)
    out: list[Violation] = []
    if r.battery_soc_wh < battery.floor_wh - tol:
        out.append(
            Violation(
                "soc-floor",
                f"SoC {r.battery_soc_wh:.6f} Wh is below the DoD floor "
                f"{battery.floor_wh:.6f} Wh",
                r.time_s,
            )
        )
    if r.battery_soc_wh > battery.capacity_wh + tol:
        out.append(
            Violation(
                "soc-floor",
                f"SoC {r.battery_soc_wh:.6f} Wh exceeds capacity "
                f"{battery.capacity_wh:.6f} Wh",
                r.time_s,
            )
        )
    return out


def check_grid_budget(ctx: AuditContext) -> list[Violation]:
    budget = ctx.controller.pdu.grid.epoch_budget_w(ctx.directives.grid_budget_w)
    r = ctx.record
    if r.grid_to_load_w > budget + _tol(budget):
        return [
            Violation(
                "grid-budget",
                f"grid-to-load {r.grid_to_load_w:.6f} W exceeds the grid "
                f"budget {budget:.6f} W",
                r.time_s,
            )
        ]
    return []


def check_ratios(ctx: AuditContext) -> list[Violation]:
    r = ctx.record
    out: list[Violation] = []
    total = sum(r.ratios)
    if total > 1.0 + RATIO_TOL:
        out.append(
            Violation(
                "ratios",
                f"PAR vector sums to {total:.9f} > 1",
                r.time_s,
            )
        )
    for i, eta in enumerate(r.ratios):
        if eta < -RATIO_TOL:
            out.append(
                Violation(
                    "ratios",
                    f"PAR ratio {i} is negative ({eta:.9f})",
                    r.time_s,
                )
            )
    return out


def check_epu_range(ctx: AuditContext) -> list[Violation]:
    r = ctx.record
    out: list[Violation] = []
    if not 0.0 <= r.epu <= 1.0 + RATIO_TOL:
        out.append(
            Violation("epu-range", f"EPU {r.epu:.9f} outside [0, 1]", r.time_s)
        )
    if r.useful_power_w < -BASE_TOL:
        out.append(
            Violation(
                "epu-range",
                f"useful power is negative ({r.useful_power_w:.6f} W)",
                r.time_s,
            )
        )
    if r.throughput < -BASE_TOL:
        out.append(
            Violation(
                "epu-range",
                f"throughput is negative ({r.throughput:.6f})",
                r.time_s,
            )
        )
    return out


def check_fit_bounds(ctx: AuditContext) -> list[Violation]:
    r = ctx.record
    # projected_perf marks solver-produced allocations; fallback epochs
    # (uniform ratios after a SolverError) carry no fit semantics.
    if r.projected_perf is None:
        return []
    database = ctx.controller.scheduler.database
    groups = ctx.controller.rack.groups
    counts = (
        r.powered_counts
        if r.powered_counts is not None
        else tuple(g.count for g in groups)
    )
    caps = ctx.directives.group_caps_w
    out: list[Violation] = []
    for i, group in enumerate(groups):
        budget = r.group_budgets_w[i]
        count = counts[i]
        if budget <= 0.0 or count <= 0:
            continue
        try:
            fit = database.projection(group.key)
        except DatabaseMissError:
            continue
        per_server = budget / count
        hi = fit.max_power_w * (1.0 + FIT_BOUND_REL_TOL) + BASE_TOL
        if per_server > hi:
            out.append(
                Violation(
                    "fit-bounds",
                    f"group {group.spec.name}: per-server allocation "
                    f"{per_server:.6f} W exceeds the fit peak "
                    f"{fit.max_power_w:.6f} W",
                    r.time_s,
                )
            )
        lo = fit.min_power_w * (1.0 - FIT_BOUND_REL_TOL) - BASE_TOL
        if caps is None and per_server < lo:
            out.append(
                Violation(
                    "fit-bounds",
                    f"group {group.spec.name}: per-server allocation "
                    f"{per_server:.6f} W is below the fit power-on point "
                    f"{fit.min_power_w:.6f} W",
                    r.time_s,
                )
            )
    return out


#: The full default check suite, in report order.
DEFAULT_CHECKS: tuple[Check, ...] = (
    check_energy_conservation,
    check_battery_soc,
    check_soc_floor,
    check_grid_budget,
    check_ratios,
    check_epu_range,
    check_fit_bounds,
)


class InvariantAuditor:
    """Runs the invariant checks against each epoch of a simulation.

    Parameters
    ----------
    strict:
        When True, an epoch with any violation raises
        :class:`~repro.errors.InvariantViolation`.  Violations are
        counted (per-instance and in the
        ``repro_verify_violations_total`` metric) either way.
    checks:
        Override the default check suite (pluggability hook).
    """

    def __init__(
        self, strict: bool = False, checks: Sequence[Check] | None = None
    ) -> None:
        self.strict = strict
        self.checks: tuple[Check, ...] = (
            tuple(checks) if checks is not None else DEFAULT_CHECKS
        )
        self.epochs_audited = 0
        self.violations: list[Violation] = []

    def audit(self, ctx: AuditContext) -> tuple[Violation, ...]:
        """Check one epoch; returns (and accumulates) its violations.

        Raises
        ------
        InvariantViolation
            In strict mode, when any check fails.
        """
        found: list[Violation] = []
        for check in self.checks:
            found.extend(check(ctx))
        self.epochs_audited += 1
        for violation in found:
            _VIOLATIONS[violation.check].inc()
        self.violations.extend(found)
        if found and self.strict:
            raise InvariantViolation(found)
        return tuple(found)

    @property
    def violation_count(self) -> int:
        return len(self.violations)

    def summary(self) -> dict[str, object]:
        """Roll-up for status endpoints and the verify CLI."""
        by_check: dict[str, int] = {}
        for violation in self.violations:
            by_check[violation.check] = by_check.get(violation.check, 0) + 1
        return {
            "epochs_audited": self.epochs_audited,
            "violations": self.violation_count,
            "by_check": by_check,
            "strict": self.strict,
        }
