"""The five power-allocation policies of Table III.

=================  ==========================================================
Policy             Behaviour
=================  ==========================================================
Uniform            Heterogeneity-oblivious: every server gets the same share
                   of the rack budget (the homogeneous-datacenter default;
                   the paper's baseline).
Manual             Tries every PAR composition at 10% granularity, measuring
                   each on the live rack, and keeps the best trial.
GreenHetero-p      Heterogeneity-aware greedy: feeds server groups in
                   descending database energy-efficiency order, each up to
                   its maximum draw; the remainder spills into the next
                   group even when it cannot power it on (the unbalanced
                   waste the paper observes on Streamcluster).
GreenHetero-a      The PAR solver on the training-run database, *without*
                   the online update optimisation.
GreenHetero        The full system: solver + dynamically updated database.
=================  ==========================================================

Policies are pure deciders: they see an :class:`AllocationContext` (the
epoch budget, the group structure, the profiling database, and — for
Manual — a measurement oracle standing in for a physical trial run) and
return an :class:`AllocationPlan` from their one method,
:meth:`Policy.allocate_plan`.  Enforcement and database updates happen in
the controller.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.database import ProfilingDatabase
from repro.core.solver import GroupModel, PARSolver, PartialGroupSolver
from repro.errors import ConfigurationError, SolverError


@dataclass(frozen=True)
class GroupInfo:
    """Static facts a policy may use about one rack group.

    Attributes
    ----------
    name:
        Platform name.
    count:
        Servers in the group.
    key:
        (platform, workload) database key.
    """

    name: str
    count: int
    key: tuple[str, str]


@dataclass(frozen=True)
class AllocationContext:
    """Everything a policy may look at when allocating one epoch.

    Attributes
    ----------
    budget_w:
        The rack power budget from the source selector.
    groups:
        Rack group structure.
    database:
        The profiling database (populated for every group's key).
    oracle:
        Measured rack performance of each trial PAR vector of a batch,
        in order; only the Manual policy uses it (in the paper each
        trial is a physical run).
    """

    budget_w: float
    groups: tuple[GroupInfo, ...]
    database: ProfilingDatabase
    oracle: Callable[[Sequence[tuple[float, ...]]], Sequence[float]] | None = None

    @property
    def n_servers(self) -> int:
        return sum(g.count for g in self.groups)

    def group_models(self) -> list[GroupModel]:
        """Solver inputs built from the database projections."""
        return [
            GroupModel(name=g.name, count=g.count, fit=self.database.projection(g.key))
            for g in self.groups
        ]


@dataclass(frozen=True)
class AllocationPlan:
    """A policy's full decision for one epoch.

    Attributes
    ----------
    ratios:
        PAR vector (fractions of the budget per group, sum <= 1).
    powered_counts:
        How many servers of each group receive the group's share;
        ``None`` means all (the paper's same-power-per-type rule).
        Only the partial-group extension sets this.
    """

    ratios: tuple[float, ...]
    powered_counts: tuple[int, ...] | None = None
    #: The database-projected rack performance of this allocation, when
    #: the policy solved for one (solver policies only).  Comparing it
    #: against measured throughput quantifies the projection quality
    #: Algorithm 1's updates are meant to improve.
    projected_perf: float | None = None


class Policy(abc.ABC):
    """A power-allocation policy (one Table III row).

    Class attributes
    ----------------
    name:
        The Table III name, used in every report.
    updates_database:
        Whether the controller should feed execution samples back into
        the database and re-fit (Algorithm 1 lines 8-10).
    requires_oracle:
        Whether :meth:`allocate_plan` needs ``ctx.oracle``.
    """

    name: str = "abstract"
    updates_database: bool = False
    requires_oracle: bool = False
    uses_database: bool = False

    @abc.abstractmethod
    def allocate_plan(self, ctx: AllocationContext) -> AllocationPlan:
        """This epoch's decision: the PAR vector (fractions of
        ``ctx.budget_w``, sum <= 1) and, for the partial-group extension,
        the powered counts."""

    def _validate(self, ctx: AllocationContext) -> None:
        if ctx.budget_w < 0:
            raise ConfigurationError("budget must be non-negative")
        if not ctx.groups:
            raise ConfigurationError("no groups to allocate to")
        if self.requires_oracle and ctx.oracle is None:
            raise ConfigurationError(f"{self.name} needs a measurement oracle")


class UniformPolicy(Policy):
    """Equal power per *server* — the heterogeneity-unaware baseline."""

    name = "Uniform"

    def allocate_plan(self, ctx: AllocationContext) -> AllocationPlan:
        self._validate(ctx)
        total = ctx.n_servers
        return AllocationPlan(ratios=tuple(g.count / total for g in ctx.groups))


class ManualPolicy(Policy):
    """Exhaustive measured trials at 10% granularity (Table III)."""

    name = "Manual"
    requires_oracle = True

    #: Trial step; the paper fixes 10%.
    GRANULARITY = 0.1

    def allocate_plan(self, ctx: AllocationContext) -> AllocationPlan:
        self._validate(ctx)
        assert ctx.oracle is not None  # _validate guarantees it
        ratios, _ = PARSolver.exhaustive(
            len(ctx.groups), ctx.oracle, granularity=self.GRANULARITY
        )
        return AllocationPlan(ratios=ratios)


class GreenHeteroPriorityPolicy(Policy):
    """Greedy by energy efficiency (GreenHetero-p).

    Groups are served in descending throughput-per-watt order, each
    receiving up to its saturation power.  Whatever is left spills into
    the next group *even if it cannot power that group on* — this is the
    waste mode the paper demonstrates with Streamcluster.
    """

    name = "GreenHetero-p"
    uses_database = True

    def allocate_plan(self, ctx: AllocationContext) -> AllocationPlan:
        self._validate(ctx)
        order = sorted(
            range(len(ctx.groups)),
            key=lambda i: ctx.database.efficiency(ctx.groups[i].key),
            reverse=True,
        )
        ratios = [0.0] * len(ctx.groups)
        if ctx.budget_w == 0:
            return AllocationPlan(ratios=tuple(ratios))
        remaining = ctx.budget_w
        for i in order:
            if remaining <= 0:
                break
            fit = ctx.database.projection(ctx.groups[i].key)
            want = ctx.groups[i].count * fit.max_power_w
            grant = min(remaining, want)
            ratios[i] = grant / ctx.budget_w
            remaining -= grant
        return AllocationPlan(ratios=tuple(ratios))


class OnOffPolicy(Policy):
    """GreenGear-style on-off baseline (paper Section VI).

    The related work's GreenGear "adopts an on-off server strategy and
    always turns on only one server [type] in each composite
    heterogeneous node"; the paper argues an all-on, ratio-tuned
    strategy wins when supply is sufficient.  This baseline powers the
    single most energy-efficient group the budget can saturate (falling
    back to the efficiency leader at whatever level fits) and leaves
    every other group off — reproducing that comparison.
    """

    name = "OnOff"
    uses_database = True

    def allocate_plan(self, ctx: AllocationContext) -> AllocationPlan:
        self._validate(ctx)
        ratios = [0.0] * len(ctx.groups)
        if ctx.budget_w == 0:
            return AllocationPlan(ratios=tuple(ratios))
        order = sorted(
            range(len(ctx.groups)),
            key=lambda i: ctx.database.efficiency(ctx.groups[i].key),
            reverse=True,
        )
        # Prefer the most efficient group the budget can fully power on;
        # if none fits, give everything to the efficiency leader anyway.
        chosen = order[0]
        for i in order:
            fit = ctx.database.projection(ctx.groups[i].key)
            if ctx.groups[i].count * fit.min_power_w <= ctx.budget_w:
                chosen = i
                break
        fit = ctx.database.projection(ctx.groups[chosen].key)
        grant = min(ctx.budget_w, ctx.groups[chosen].count * fit.max_power_w)
        ratios[chosen] = grant / ctx.budget_w
        return AllocationPlan(ratios=tuple(ratios))


class _SolverPolicy(Policy):
    """Shared machinery for the solver-driven GreenHetero variants."""

    uses_database = True
    #: The solver built when none is passed in.
    solver_class: type[PARSolver] = PARSolver

    def __init__(self, solver: PARSolver | None = None) -> None:
        self.solver = solver or self.solver_class()

    def allocate_plan(self, ctx: AllocationContext) -> AllocationPlan:
        self._validate(ctx)
        try:
            solution = self.solver.solve(ctx.group_models(), ctx.budget_w)
        except SolverError:
            # Defensive fallback: a degenerate database should degrade to
            # the baseline, never crash the rack controller.
            return UniformPolicy().allocate_plan(ctx)
        return AllocationPlan(
            ratios=solution.ratios,
            powered_counts=solution.powered_counts,
            projected_perf=solution.expected_perf,
        )


class GreenHeteroStaticPolicy(_SolverPolicy):
    """Solver on the training-run fit only — no runtime updates (GreenHetero-a)."""

    name = "GreenHetero-a"
    updates_database = False


class GreenHeteroPolicy(_SolverPolicy):
    """The full adaptive system: solver + online database updating."""

    name = "GreenHetero"
    updates_database = True


class GreenHeteroPartialPolicy(_SolverPolicy):
    """GreenHetero with per-group partial power-on (beyond the paper).

    Uses :class:`~repro.core.solver.PartialGroupSolver` to also choose
    how many servers of each group to power — the natural relaxation of
    the paper's same-power-per-type rule, and the fix for budgets
    stranded between "all on" and "all off" at a group's power-on cliff.
    """

    name = "GreenHetero+"
    updates_database = True
    solver_class = PartialGroupSolver


#: Table III registry.
POLICY_NAMES: tuple[str, ...] = (
    "Uniform",
    "Manual",
    "GreenHetero-p",
    "GreenHetero-a",
    "GreenHetero",
)


def make_policy(name: str) -> Policy:
    """Instantiate a Table III policy by its paper name.

    Raises
    ------
    ConfigurationError
        For unknown names.
    """
    factories: dict[str, Callable[[], Policy]] = {
        "uniform": UniformPolicy,
        "manual": ManualPolicy,
        "greenhetero-p": GreenHeteroPriorityPolicy,
        "greenhetero-a": GreenHeteroStaticPolicy,
        "greenhetero": GreenHeteroPolicy,
        # Extra baseline from the related-work discussion (Section VI),
        # not part of Table III.
        "onoff": OnOffPolicy,
        # The partial-power-on extension (beyond the paper).
        "greenhetero+": GreenHeteroPartialPolicy,
    }
    factory = factories.get(name.lower())
    if factory is None:
        raise ConfigurationError(
            f"unknown policy {name!r}; expected one of {POLICY_NAMES}"
        )
    return factory()


def all_policies() -> list[Policy]:
    """One instance of each Table III policy, in table order."""
    return [make_policy(name) for name in POLICY_NAMES]
