"""The PAR problem solver (paper Section IV-B.3, Eq. 6-8).

Given the profiling database's quadratic projections
``Perf_i = f(l_i, m_i, n_i, Power_i)`` for each server group, the solver
finds the power allocation ratio (PAR) vector that maximises aggregate
rack performance:

    maximize   sum_i  count_i * f_i(eta_i * P / count_i)
    subject to sum_i eta_i <= 1,  eta_i >= 0

with the paper's boundary semantics baked into every projection: a server
allocated less than its idle power produces nothing, and performance
plateaus beyond the workload's maximum draw.  Power the solver leaves
unallocated (``1 - sum eta_i``) flows to the battery when the renewable
supply is sufficient (Section IV-B.3).

Equal shares within a group are implicit — the paper distributes the same
power to same-type servers — so the decision variable is the *per-server*
power ``p_i`` in the box ``[min_i, max_i]``, with group totals
``count_i * p_i`` bounded by the budget.

The solver is exact for the linear and quadratic fits the database
produces (:class:`~repro.core.database.FitKind`).  Powering a server
below idle wastes the whole allocation, so the solver considers every
non-empty subset of powered groups (2^k - 1 of them; the paper bounds k
at 3).  Inside a subset each group sits at its lower bound, at its upper
bound, or is free.  Free groups either stand at their own vertex (budget
slack, ``f_i'(p_i) = 0``) or share one marginal throughput-per-watt with
the budget tight (the water-filling condition ``f_i'(p_i) = lambda``),
so every candidate is the solution of a tiny linear system.  The
objective is separable and the constraints are linear, so every local
maximum — concave fit or not — is one of these KKT points (or ties one
on a flat edge).  A group the ``max(0, .)`` clamp zeroes might as well
be off, which is another subset, and the clamp can only raise a
candidate's score.  Scoring all candidates is therefore exact;
:mod:`repro.verify.differential` checks every answer against a grid
sweep and a weak-duality bound.

The enumeration is one kernel, :func:`_kkt_scan`, driven by a pattern
table built once per group count (:func:`_patterns`): per powered
subset, every lo/hi/free assignment as bounded slots plus free groups.
Each solve hoists its groups' constants (bounds, ``l``, ``m``, vertices
and ``count * f`` at the bounds and at 0), so only a free group's power
is computed and scored per candidate.  :class:`PartialGroupSolver` runs
the same kernel on each powered-count combination.  Candidate order,
tie rule and float operations are those of building each candidate's
power vector and scoring it with :meth:`PARSolver._score`, so answers
are bit-identical to doing exactly that (DESIGN.md §13).

The same machinery at 10% granularity with the *measured* objective is
exactly the paper's Manual baseline (:meth:`PARSolver.compositions`).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from repro.core.database import PerfPowerFit
from repro.errors import ConfigurationError, SolverError
from repro.obs.metrics import REGISTRY as _REGISTRY, ChildCache as _ChildCache
from repro.obs.tracing import trace

# Process-wide solver telemetry (per-instance counters stay authoritative
# for cache_info(); these aggregate across every solver in the process).
_SOLVES_TOTAL = _REGISTRY.counter(
    "repro_solver_solves_total", "Solves by winning mechanism", labelnames=("method",)
)

#: The children every solve path increments, resolved at import so a cache
#: hit or miss calls no ``labels()``; the partial-group method joins on
#: its first solve, so a scrape lists only methods that ran.
_SOLVES = _ChildCache(_SOLVES_TOTAL, ("kkt", "cached"))

_CACHE_LOOKUPS = _REGISTRY.counter(
    "repro_solver_cache_lookups_total", "Solve-cache lookups", labelnames=("result",)
)
_CACHE_HIT = _CACHE_LOOKUPS.labels("hit")
_CACHE_MISS = _CACHE_LOOKUPS.labels("miss")

#: Feasibility slack: a solution may exceed the budget by at most this
#: many watts (floating-point headroom, far below meter noise).
FEASIBILITY_SLACK_W = 1e-6

#: Sanity bound on groups per program; the paper's racks have at most 3
#: server types.
MAX_GROUPS = 4

#: Capacity of each solver's memo; the oldest entry goes first.
CACHE_SIZE = 1024

@dataclass(frozen=True)
class GroupModel:
    """One server group as the solver sees it.

    Attributes
    ----------
    name:
        Group label (platform name) for reporting.
    count:
        Number of identical servers in the group.
    fit:
        The database projection for (platform, workload).
    """

    name: str
    count: int
    fit: PerfPowerFit

    def __post_init__(self) -> None:
        if self.count < 1:
            raise SolverError(f"group {self.name}: count must be >= 1")
        # The KKT scan reads only the quadratic and linear terms.
        if len(self.fit.coefficients) > 3:
            raise SolverError(
                f"group {self.name}: fits are at most quadratic, got "
                f"{len(self.fit.coefficients)} coefficients"
            )


@dataclass(frozen=True)
class PARSolution:
    """A solved allocation.

    Attributes
    ----------
    ratios:
        PAR vector: fraction of the total budget granted to each group
        (``sum <= 1``; the remainder is unallocated).
    per_server_w:
        Power cap for each server in each group (W).
    expected_perf:
        Projected aggregate performance under the database fits.
    method:
        Which mechanism produced the winner: ``"kkt"``, or
        ``"kkt-partial"`` (:class:`PartialGroupSolver`).
    """

    ratios: tuple[float, ...]
    per_server_w: tuple[float, ...]
    expected_perf: float
    method: str
    #: How many of each group's servers are powered; ``None`` means all
    #: (the paper's same-power-per-type rule).  Set by
    #: :class:`PartialGroupSolver`.
    powered_counts: tuple[int, ...] | None = None

    @property
    def allocated_fraction(self) -> float:
        """Share of the budget actually handed to servers."""
        return sum(self.ratios)


class _KKTFit(NamedTuple):
    """One group's count-independent constants for :func:`_kkt_scan`."""

    lo: float  # lowest powered level, :meth:`PARSolver._lo`
    hi: float  # ``max_power_w``
    lo_m: float  # ``lo`` less the 1e-9 W box tolerance
    hi_p: float  # ``hi`` plus the 1e-9 W box tolerance
    min_w: float  # ``min_power_w``: below it the fit scores 0
    coeffs: tuple[float, ...]  # Horner order, as ``PerfPowerFit.predict``
    m: float
    two_l: float  # ``2 * l``
    linear: bool  # ``|l| < 1e-15``
    vertex: float | None  # ``-m / 2l``; None for a linear fit
    pred0: float  # ``predict(0.0)``
    pred_lo: float  # ``predict(lo)``
    pred_hi: float  # ``predict(hi)``


@functools.lru_cache(maxsize=None)
def _patterns(k: int) -> tuple:
    """The KKT pattern table for ``k`` groups, in enumeration order.

    One ``(on, patterns)`` entry per non-empty powered subset ``on``, in
    ``itertools.product((False, True), repeat=k)`` order.  Each pattern
    puts every powered group at its lower bound, its upper bound or
    free, in ``itertools.product((lo, hi, free), repeat=len(on))`` order,
    as ``(fixed, free)``: ``fixed`` holds the slot ``2 * i + bound`` of
    each bounded group ``i`` (bound 0 for the lower, 1 for the upper) in
    a flat list of every group's two bounds, and ``free`` the free
    groups.  Every tuple keeps the groups in index order.
    """
    table = []
    for powered in itertools.product((False, True), repeat=k):
        on = tuple(i for i in range(k) if powered[i])
        if not on:
            continue
        patterns = []
        for assignment in itertools.product((0, 1, 2), repeat=len(on)):
            fixed = tuple(2 * i + a for i, a in zip(on, assignment) if a < 2)
            free = tuple(i for i, a in zip(on, assignment) if a == 2)
            patterns.append((fixed, free))
        table.append((on, tuple(patterns)))
    return tuple(table)


@functools.lru_cache(maxsize=16)
def _compositions(k: int, granularity: float) -> tuple[tuple[float, ...], ...]:
    """:meth:`PARSolver.compositions`, built once per ``(k, granularity)``."""
    if k < 1:
        raise SolverError("k must be >= 1")
    steps = round(1.0 / granularity)
    if abs(steps * granularity - 1.0) > 1e-9:
        raise SolverError("granularity must divide 1 evenly")
    out = []
    for combo in itertools.combinations_with_replacement(range(k), steps):
        counts = [0] * k
        for idx in combo:
            counts[idx] += 1
        out.append(tuple(c * granularity for c in counts))
    return tuple(out)


def _kkt_scan(
    fits: Sequence[_KKTFit],
    counts: Sequence[int],
    budget_w: float,
    table: tuple,
    best_p: tuple[float, ...] | None,
    best_score: float,
    margin: float,
) -> tuple[tuple[float, ...] | None, float]:
    """Score every KKT candidate of a :func:`_patterns` table; keep the best.

    ``fits`` holds each group's :class:`_KKTFit` constants and
    ``counts`` its server count.  A candidate replaces the incumbent
    ``(best_p, best_score)`` only when it scores more than ``best_score
    + margin``, so the first of tied candidates wins.  Every float
    operation is the one, in the same order, that assembling the
    candidate as a per-server power vector and scoring it with
    :meth:`PARSolver._score` performs, so the answer is the same to the
    bit: a group at a bound scores the precomputed ``count *
    predict(bound)``, and a free group :meth:`PerfPowerFit.predict`'s
    clamp and Horner loop, inlined.
    """
    # One column per constant, bound to a local by name.
    cols = _KKTFit._make(zip(*fits))
    lo, hi, lo_m, hi_p = cols.lo, cols.hi, cols.lo_m, cols.hi_p
    min_w, coeffs, m, two_l = cols.min_w, cols.coeffs, cols.m, cols.two_l
    linear, vertex = cols.linear, cols.vertex
    pred0, pred_lo, pred_hi = cols.pred0, cols.pred_lo, cols.pred_hi
    k = len(counts)
    cap = budget_w + FEASIBILITY_SLACK_W
    # Per-server power, watts drawn and score at slot 2i (group i's lower
    # bound) and 2i + 1 (its upper bound).
    bound_p: list[float] = []
    bound_w: list[float] = []
    bound_s: list[float] = []
    for i, n in enumerate(counts):
        bound_p += (lo[i], hi[i])
        bound_w += (n * lo[i], n * hi[i])
        bound_s += (n * pred_lo[i], n * pred_hi[i])
    off_s = [n * s for n, s in zip(counts, pred0)]
    for on, patterns in table:
        if sum([bound_w[2 * i] for i in on]) > budget_w:
            continue
        # Per-server power, watts drawn and score of every group; groups
        # outside ``on`` stay off.
        p = [0.0] * k
        w = [0.0] * k
        s = off_s[:]
        for fixed, free in patterns:
            for j in fixed:
                i = j >> 1
                p[i] = bound_p[j]
                w[i] = bound_w[j]
                s[i] = bound_s[j]
            if not free:
                points = ((),)  # one candidate: the bounds alone
            elif len(free) == 1:
                # A lone free group stands at its vertex (budget slack) or
                # takes what the bounded groups leave (budget tight: a
                # vertex of the box-plus-budget polytope).
                i = free[0]
                tight = ((budget_w - sum(map(bound_w.__getitem__, fixed))) / counts[i],)
                points = (tight,) if linear[i] else ((vertex[i],), tight)
            else:
                lin = [i for i in free if linear[i]]
                if len(lin) > 1:
                    # Equal slopes make a flat edge whose ends are
                    # enumerated elsewhere; unequal ones admit no lambda.
                    continue
                # Budget slack: every free group at its vertex.
                points = [] if lin else [[vertex[i] for i in free]]
                # Budget tight: f_i'(p_i) = lambda for every free i.  A
                # linear one fixes lambda at its slope and takes what the
                # others leave.
                rest = budget_w - sum(map(bound_w.__getitem__, fixed))
                if lin:
                    absorber = lin[0]
                    lam = m[absorber]
                else:
                    absorber = None
                    denom = sum([counts[i] / two_l[i] for i in free])
                    if abs(denom) < 1e-15:
                        lam = None  # a flat family whose ends are enumerated
                    else:
                        offset = sum([counts[i] * m[i] / two_l[i] for i in free])
                        lam = (rest + offset) / denom
                if lam is not None:
                    tight = [0.0] * len(free)
                    for f, i in enumerate(free):
                        if i != absorber:
                            tight[f] = v = (lam - m[i]) / two_l[i]
                            rest -= counts[i] * v
                    if absorber is not None:
                        tight[free.index(absorber)] = rest / counts[absorber]
                    points.append(tight)
            for values in points:
                for i, v in zip(free, values):
                    if v < lo_m[i] or v > hi_p[i]:
                        break
                    if v < lo[i]:
                        v = lo[i]
                    if hi[i] < v:
                        v = hi[i]
                    p[i] = v
                    n = counts[i]
                    w[i] = n * v
                    if v < min_w[i]:
                        s[i] = n * 0.0
                    else:
                        x = hi[i] if hi[i] < v else v
                        r = 0.0
                        for c in coeffs[i]:
                            r = r * x + c
                        r = float(r)
                        s[i] = n * (r if r > 0.0 else 0.0)
                else:
                    total = 0.0
                    for i in on:
                        total += w[i]
                    if total > cap:
                        continue
                    score = sum(s)
                    if score > best_score + margin:
                        best_p, best_score = tuple(p), score
    return best_p, best_score


class PARSolver:
    """Finds the optimal PAR for up to a handful of server groups.

    Parameters
    ----------
    safety_margin:
        Relative lift of each group's lower power bound above the
        database's power-on boundary (see :meth:`_lo`).

    A program has at most :data:`MAX_GROUPS` groups.  Solutions are
    memoized per instance, keyed on the exact program: every group's
    count, fit coefficients and power bounds, and the float budget.  The
    cyclic budgets of a constrained-supply sweep and a daemon's repeated
    allocates re-pose the same program many times, and each distinct
    program solves once.
    """

    def __init__(self, safety_margin: float = 0.05) -> None:
        if safety_margin < 0:
            raise SolverError("safety margin must be non-negative")
        self.safety_margin = safety_margin
        self.cache_hits = 0
        self.cache_misses = 0
        self._cache: dict[tuple, PARSolution] = {}

    def _lo(self, fit: PerfPowerFit) -> float:
        """Effective lower power bound for allocation decisions.

        The database's power-on boundary is learned from noisy meter
        samples; allocating *exactly* at it risks landing just below the
        server's true lowest active draw and wasting the whole share (the
        power-on cliff).  A small relative margin keeps allocations
        safely above the cliff.
        """
        return min(fit.min_power_w * (1.0 + self.safety_margin), fit.max_power_w)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def solve(self, groups: Sequence[GroupModel], total_power_w: float) -> PARSolution:
        """Maximise projected rack performance under ``total_power_w``.

        A call that poses a program this instance has solved before —
        same group counts, fit coefficients, power bounds and budget —
        returns the memoized :class:`PARSolution` (frozen, so sharing is
        safe) without re-running the enumeration.  The key is the exact
        program, so a hit is the answer a solve would return.

        Raises
        ------
        SolverError
            On empty input or too many groups.
        ConfigurationError
            On a negative or non-finite budget.
        """
        self._validate_inputs(groups, total_power_w)
        with trace("solver.solve"):
            key = (
                tuple(
                    (g.count, g.fit.coefficients, g.fit.min_power_w, g.fit.max_power_w)
                    for g in groups
                ),
                total_power_w,
            )
            cached = self._cache.get(key)
            if cached is not None:
                self.cache_hits += 1
                _CACHE_HIT.inc()
                _SOLVES["cached"].inc()
                return cached
            self.cache_misses += 1
            _CACHE_MISS.inc()
            solution = self._solve_impl(groups, total_power_w)
            _SOLVES[solution.method].inc()
            if len(self._cache) >= CACHE_SIZE:
                # FIFO eviction: dict preserves insertion order and the
                # adaptive policies retire old fits monotonically.
                self._cache.pop(next(iter(self._cache)))
            self._cache[key] = solution
            return solution

    # ------------------------------------------------------------------
    # Validation and memo statistics
    # ------------------------------------------------------------------
    def _validate_inputs(
        self, groups: Sequence[GroupModel], total_power_w: float
    ) -> None:
        if not groups:
            raise SolverError("need at least one group")
        if len(groups) > MAX_GROUPS:
            raise SolverError(
                f"{len(groups)} groups exceed the solver's bound of {MAX_GROUPS}"
            )
        # A NaN passes a plain ``< 0`` test.
        if not (math.isfinite(total_power_w) and total_power_w >= 0):
            raise ConfigurationError(
                f"budget must be finite and non-negative, got {total_power_w}"
            )

    def cache_info(self) -> dict[str, float]:
        """Hit/miss counters, size and hit rate of the solve memo."""
        total = self.cache_hits + self.cache_misses
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            # An exact key never goes stale; the field stays at 0 because
            # perfbench's traced cache counts still read it.
            "stale_hits": 0,
            "size": len(self._cache),
            "hit_rate": self.cache_hits / total if total else 0.0,
        }

    def _solve_impl(
        self, groups: Sequence[GroupModel], total_power_w: float
    ) -> PARSolution:
        if total_power_w == 0:
            return self._to_solution(groups, (0.0,) * len(groups), 0.0, "kkt", 0.0)
        best_p, best_score = self._kkt_best(groups, total_power_w)
        return self._to_solution(groups, best_p, best_score, "kkt", total_power_w)

    @staticmethod
    def compositions(k: int, granularity: float = 0.1) -> list[tuple[float, ...]]:
        """All PAR vectors summing to exactly 1 at ``granularity`` steps.

        This is the search space of the paper's Manual baseline (10%
        granularity, Table III).
        """
        return list(_compositions(k, granularity))

    @classmethod
    def exhaustive(
        cls,
        k: int,
        objective: Callable[[tuple[tuple[float, ...], ...]], Sequence[float]],
        granularity: float = 0.1,
    ) -> tuple[tuple[float, ...], float]:
        """Try every composition and return the best (Manual's procedure).

        ``objective`` receives every PAR vector at once, in composition
        order, and returns each one's measured rack performance; in the
        paper each is a physical trial run.  The first strictly best
        composition wins.
        """
        trials = _compositions(k, granularity)
        best_ratios: tuple[float, ...] | None = None
        best_value = -math.inf
        for ratios, value in zip(trials, objective(trials), strict=True):
            if value > best_value:
                best_value = value
                best_ratios = ratios
        if best_ratios is None:  # pragma: no cover - compositions never empty
            raise SolverError("no composition evaluated")
        return best_ratios, float(best_value)

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    @staticmethod
    def _score(groups: Sequence[GroupModel], per_server_w: Sequence[float]) -> float:
        """Projected aggregate performance (clamped fits)."""
        return sum(
            g.count * g.fit.predict(p) for g, p in zip(groups, per_server_w)
        )

    def _to_solution(
        self,
        groups: Sequence[GroupModel],
        per_server_w: tuple[float, ...],
        score: float,
        method: str,
        total_power_w: float,
        powered_counts: tuple[int, ...] | None = None,
    ) -> PARSolution:
        k = len(groups)
        if score <= 0.0:
            zeros = None if powered_counts is None else (0,) * k
            return PARSolution((0.0,) * k, (0.0,) * k, 0.0, method, zeros)
        # Never hand a server more than its plateau: trimming to max_w
        # keeps performance identical and releases power to the battery.
        trimmed = tuple(
            min(p, g.fit.max_power_w) if p > 0 else 0.0
            for g, p in zip(groups, per_server_w)
        )
        counts = powered_counts or tuple(g.count for g in groups)
        ratios = tuple(c * p / total_power_w for c, p in zip(counts, trimmed))
        return PARSolution(
            ratios=ratios,
            per_server_w=trimmed,
            expected_perf=score,
            method=method,
            powered_counts=powered_counts,
        )

    # ------------------------------------------------------------------
    # KKT enumeration
    # ------------------------------------------------------------------
    def _kkt_best(
        self, groups: Sequence[GroupModel], budget_w: float
    ) -> tuple[tuple[float, ...], float]:
        """Best-scoring KKT candidate (the first one on ties)."""
        k = len(groups)
        return _kkt_scan(
            [self._kkt_fit(g.fit) for g in groups],
            [g.count for g in groups],
            budget_w,
            _patterns(k),
            (0.0,) * k,
            0.0,
            0.0,
        )

    def _kkt_fit(self, fit: PerfPowerFit) -> _KKTFit:
        """One group's count-independent constants for :func:`_kkt_scan`."""
        lo = self._lo(fit)
        hi = fit.max_power_w
        l, m = fit.l, fit.m
        linear = abs(l) < 1e-15
        two_l = 2.0 * l
        return _KKTFit(
            lo=lo,
            hi=hi,
            lo_m=lo - 1e-9,
            hi_p=hi + 1e-9,
            min_w=fit.min_power_w,
            coeffs=fit.coefficients,
            m=m,
            two_l=two_l,
            linear=linear,
            vertex=None if linear else -m / two_l,
            pred0=fit.predict(0.0),
            pred_lo=fit.predict(lo),
            pred_hi=fit.predict(hi),
        )


class PartialGroupSolver(PARSolver):
    """PAR optimisation with per-group partial power-on (beyond the paper).

    The paper distributes "the same amount of power to the same type of
    servers by default" — a group is all-on or all-off.  That loses
    exactly at the power-on cliffs: a budget that cannot lift all five
    Xeons above their minimum active draw wastes the whole group, even
    when it could have run three of them well.

    This solver additionally chooses *how many* servers of each group to
    power (``k_i`` of ``count_i``, each powered server still receiving an
    equal share):

        maximize   sum_i  k_i * f_i(p_i)
        subject to sum_i  k_i * p_i <= P,   p_i in [lo_i, hi_i],
                   k_i in {0 .. count_i}

    For each of the (count_i + 1)-way per-group choices — at most
    6^3 = 216 combinations at the paper's rack sizes — the inner problem
    is the base class's exact KKT enumeration with counts ``k``.
    """

    def _solve_impl(
        self, groups: Sequence[GroupModel], total_power_w: float
    ) -> PARSolution:
        """Maximise projected performance, also choosing powered counts.

        Returns a :class:`PARSolution` whose ``powered_counts`` states
        how many servers of each group share that group's budget.
        Reached through the base class's :meth:`solve`, which validates
        inputs and memoizes solutions.
        """
        combinations = 1
        for g in groups:
            combinations *= g.count + 1
        if combinations > 20_000:
            raise SolverError(
                f"{combinations} powered-count combinations exceed the "
                "exact enumeration budget; use PARSolver (group-granular) "
                "for racks this large"
            )

        n = len(groups)
        best_p: tuple[float, ...] = (0.0,) * n
        best_k: tuple[int, ...] = (0,) * n
        best_score = 0.0
        if total_power_w == 0:
            return self._to_solution(groups, best_p, 0.0, "kkt", 0.0, best_k)

        fits = [self._kkt_fit(g.fit) for g in groups]
        for k in itertools.product(*(range(g.count + 1) for g in groups)):
            on = [i for i in range(n) if k[i] > 0]
            if not on:
                continue
            # The base class's kernel on the powered groups alone, all on,
            # with the powered counts standing in for the group counts.
            p, score = _kkt_scan(
                [fits[i] for i in on],
                [k[i] for i in on],
                total_power_w,
                _patterns(len(on))[-1:],
                None,
                best_score,
                1e-12,
            )
            if p is not None:
                # Re-expand the winner onto the original group axes.
                expanded = [0.0] * n
                for j, i in enumerate(on):
                    expanded[i] = p[j]
                best_p = tuple(expanded)
                best_k = tuple(k)
                best_score = score

        method = "kkt-partial" if best_score > 0.0 else "kkt"
        return self._to_solution(
            groups, best_p, best_score, method, total_power_w, best_k
        )
