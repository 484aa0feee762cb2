"""Experiment harness: policy sweeps over the paper's configurations.

:class:`ExperimentConfig` captures one evaluation scenario (rack
combination, workload, solar regime, grid budget, duration) and
:func:`repro.sim.runner.run_experiment` replays it once per policy
with identical traces and noise seeds, so differences are attributable
to the policy alone.
:class:`ExperimentResult` then computes the paper's headline quantities:
performance and EPU gains over the Uniform baseline, sliced to the
insufficient-supply epochs the paper focuses on.

Table IV's server combinations ship as :data:`COMBINATIONS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.database import FitKind
from repro.core.policies import POLICY_NAMES
from repro.errors import ConfigurationError
from repro.servers.rack import Rack
from repro.sim.clock import SimClock
from repro.sim.faults import parse_fault_spec
from repro.sim.telemetry import TelemetryLog
from repro.traces.nrel import Weather
from repro.units import EPOCH_SECONDS, SECONDS_PER_DAY

#: Table IV: the evaluated server combinations.  Each named configuration
#: deploys five servers per type, as in Section V-A.2.
COMBINATIONS: dict[str, tuple[tuple[str, int], ...]] = {
    "Comb1": (("E5-2620", 5), ("i5-4460", 5)),
    "Comb2": (("E5-2603", 5), ("i5-4460", 5)),
    "Comb3": (("E5-2650", 5), ("E5-2620", 5)),
    "Comb4": (("i7-8700K", 5), ("i5-4460", 5)),
    "Comb5": (("E5-2620", 5), ("E5-2603", 5), ("i5-4460", 5)),
    "Comb6": (("E5-2620", 5), ("TitanXp", 5)),
}

#: Hardware power envelope of the standard 10-server testbed rack
#: (Comb1: five E5-2620 at 178 W + five i5-4460 at 96 W).  The paper runs
#: every evaluation against the same physical power infrastructure, so
#: the Fig. 13 combination sweep takes its absolute supply levels from
#: this envelope regardless of the combination's own size.
STANDARD_TESTBED_ENVELOPE_W: float = 5 * 178.0 + 5 * 96.0


@dataclass(frozen=True)
class ExperimentConfig:
    """One evaluation scenario.

    Attributes
    ----------
    platforms:
        ``(platform, count)`` groups (PAR order).
    workload:
        Workload name run by every group.
    weather:
        Solar regime (High/Low trace).
    days:
        Simulated duration.
    start_day:
        Offset into the replayed traces (history before it trains the
        predictors).
    solar_scale:
        PV clear-sky peak over rack maximum draw.
    grid_budget_w:
        Grid cap; ``None`` = 75% of rack maximum draw.  Must be ``None``
        when ``supply_fractions`` is set (the sweep disables the grid).
    policies:
        Which Table III policies to run.
    seed:
        Master seed shared by every policy run.
    diurnal_load:
        Diurnal offered load for interactive workloads.
    fit_kind:
        Database fit family (ablation knob).
    epoch_s:
        Scheduling epoch length.
    """

    platforms: tuple[tuple[str, int], ...] = (("E5-2620", 5), ("i5-4460", 5))
    workload: str = "SPECjbb"
    weather: Weather = Weather.HIGH
    days: float = 1.0
    start_day: float = 1.0
    solar_scale: float = 1.4
    grid_budget_w: float | None = 1000.0
    policies: tuple[str, ...] = POLICY_NAMES
    seed: int = 2021
    diurnal_load: bool = True
    fit_kind: FitKind = FitKind.QUADRATIC
    epoch_s: float = EPOCH_SECONDS
    supply_fractions: tuple[float, ...] | None = None
    budget_reference_w: float | None = None
    #: Fault schedule as ``kind:factor:start_s:end_s`` specs (see
    #: :func:`repro.sim.faults.parse_fault_spec`); every policy run gets
    #: its own injector built from these, applied at epoch boundaries.
    faults: tuple[str, ...] = ()
    #: Run every policy under the strict invariant audit (any violation
    #: raises :class:`~repro.errors.InvariantViolation`; the ``--strict``
    #: CLI flag).  Violations are counted even when False.
    strict: bool = False

    #: The supply-fraction cycle (of the rack *hardware envelope*) the
    #: Fig. 9/10/13/14 comparisons sweep: the insufficient-supply range
    #: between "almost nothing runs" and "most demand met", mirroring the
    #: Section III-B fixed-budget methodology on the fixed testbed.
    INSUFFICIENT_SWEEP: tuple[float, ...] = (
        0.48, 0.53, 0.58, 0.63, 0.68, 0.73, 0.78, 0.83,
    )

    def __post_init__(self) -> None:
        if not (math.isfinite(self.days) and self.days > 0):
            raise ConfigurationError(f"days must be finite and positive, got {self.days}")
        if not self.policies:
            raise ConfigurationError("at least one policy is required")
        if self.supply_fractions is not None and self.grid_budget_w is not None:
            raise ConfigurationError(
                "supply_fractions and grid_budget_w conflict: the "
                "constrained-supply sweep disables the grid, so a grid "
                "budget would be silently ignored — set grid_budget_w=None"
            )
        # NaN fails every comparison and inf would read as uncapped.
        fractions = self.supply_fractions
        if fractions is not None and not (
            fractions and all(math.isfinite(f) and f > 0 for f in fractions)
        ):
            raise ConfigurationError(
                f"supply fractions must be finite and positive, got {fractions}"
            )
        reference = self.budget_reference_w
        if reference is not None and self.supply_fractions is None:
            raise ConfigurationError(
                "budget_reference_w scales supply_fractions, so without "
                "them it would be silently ignored — set supply_fractions "
                "or budget_reference_w=None"
            )
        if reference is not None and not (math.isfinite(reference) and reference > 0):
            raise ConfigurationError(
                f"budget reference must be finite and positive, got {reference}"
            )
        for spec in self.faults:
            parse_fault_spec(spec)  # fail fast on malformed schedules

    # ------------------------------------------------------------------
    # Named scenarios
    # ------------------------------------------------------------------
    @classmethod
    def fig8_default(cls, **overrides) -> "ExperimentConfig":
        """The Fig. 8 runtime scenario: Comb1 rack, SPECjbb, High trace."""
        return replace(cls(), **overrides)

    @classmethod
    def fig11_low_trace(cls, **overrides) -> "ExperimentConfig":
        """The Fig. 11 scenario: same rack, Low solar trace."""
        return replace(cls(weather=Weather.LOW), **overrides)

    @classmethod
    def for_combination(cls, name: str, workload: str = "SPECjbb", **overrides) -> "ExperimentConfig":
        """A Table IV combination scenario (Figs. 13 and 14)."""
        if name not in COMBINATIONS:
            raise ConfigurationError(
                f"unknown combination {name!r}; expected one of {tuple(COMBINATIONS)}"
            )
        return replace(cls(platforms=COMBINATIONS[name], workload=workload), **overrides)

    @classmethod
    def combination_sweep(cls, name: str, workload: str = "SPECjbb", **overrides) -> "ExperimentConfig":
        """A Table IV combination under the constrained-supply sweep.

        CPU combinations (Fig. 13) share the standard testbed's absolute
        supply levels — the paper ran every combination against the same
        power infrastructure, which is why the small homogeneous-like
        racks (Comb2, Comb4) are barely power-stressed and show ~no
        gain.  The GPU rack (Comb6, Fig. 14) is provisioned against its
        own much larger envelope.
        """
        reference = None if name == "Comb6" else STANDARD_TESTBED_ENVELOPE_W
        base = cls.for_combination(
            name,
            workload,
            days=overrides.pop("days", 0.5),
            grid_budget_w=None,
            supply_fractions=cls.INSUFFICIENT_SWEEP,
            budget_reference_w=reference,
        )
        return replace(base, **overrides)

    @classmethod
    def insufficient_supply(cls, workload: str, **overrides) -> "ExperimentConfig":
        """The Fig. 9/10 regime: a constrained-supply sweep for one workload.

        Each epoch's budget is a fraction of rack demand, cycling over
        :data:`INSUFFICIENT_SWEEP`; half a simulated day gives six passes
        over the sweep.
        """
        base = cls(
            workload=workload,
            days=overrides.pop("days", 0.5),
            grid_budget_w=None,
            supply_fractions=cls.INSUFFICIENT_SWEEP,
        )
        return replace(base, **overrides)

    # ------------------------------------------------------------------
    def build_rack(self) -> Rack:
        return Rack(list(self.platforms), self.workload)

    def build_clock(self) -> SimClock:
        return SimClock(
            start_s=self.start_day * SECONDS_PER_DAY,
            duration_s=self.days * SECONDS_PER_DAY,
            epoch_s=self.epoch_s,
        )


@dataclass(frozen=True)
class PolicySummary:
    """Headline aggregates for one policy run."""

    policy: str
    mean_throughput: float
    mean_throughput_insufficient: float
    mean_epu: float
    mean_epu_insufficient: float
    mean_par: float
    grid_energy_wh: float
    battery_discharge_hours: float


@dataclass
class ExperimentResult:
    """Per-policy telemetry plus the paper's comparison arithmetic."""

    config: ExperimentConfig
    logs: dict[str, TelemetryLog] = field(default_factory=dict)

    def log(self, policy: str) -> TelemetryLog:
        try:
            return self.logs[policy]
        except KeyError:
            raise ConfigurationError(
                f"policy {policy!r} was not part of this experiment"
            ) from None

    # ------------------------------------------------------------------
    # Regime slicing
    # ------------------------------------------------------------------
    def insufficient_mask(self) -> np.ndarray:
        """Epochs where supply fell short of demand.

        Judged on the Uniform baseline's timeline (all policies share
        traces and load), falling back to the first available policy.
        """
        reference = self.logs.get("Uniform") or next(iter(self.logs.values()))
        return reference.insufficient_mask()

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def summary(self, policy: str) -> PolicySummary:
        log = self.log(policy)
        mask = self.insufficient_mask()
        return PolicySummary(
            policy=policy,
            mean_throughput=log.mean_throughput(),
            mean_throughput_insufficient=log.mean_throughput(mask),
            mean_epu=log.mean_epu(),
            mean_epu_insufficient=log.mean_epu(mask),
            mean_par=log.mean_par(),
            grid_energy_wh=log.grid_energy_wh(self.config.epoch_s),
            battery_discharge_hours=log.discharge_hours(self.config.epoch_s),
        )

    def gain(
        self,
        policy: str,
        metric: str = "throughput",
        baseline: str = "Uniform",
        insufficient_only: bool = True,
    ) -> float:
        """Ratio of ``policy`` to ``baseline`` on ``metric``.

        ``metric`` is ``"throughput"`` or ``"epu"``; the paper reports
        gains over insufficient-supply epochs (ratio of means).
        """
        if metric not in ("throughput", "epu"):
            raise ConfigurationError("metric must be 'throughput' or 'epu'")
        mask = self.insufficient_mask() if insufficient_only else None
        getter = TelemetryLog.mean_throughput if metric == "throughput" else TelemetryLog.mean_epu
        top = getter(self.log(policy), mask)
        bottom = getter(self.log(baseline), mask)
        if bottom == 0.0:
            return float("inf") if top > 0 else 1.0
        return top / bottom

    def gains_table(self, metric: str = "throughput") -> dict[str, float]:
        """Gain of every policy vs Uniform (the Fig. 9/10 bars)."""
        return {name: self.gain(name, metric) for name in self.logs}
