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

Two paths solve it:

1. **Exact path (linear and quadratic fits)** — powering a server below
   idle wastes the whole allocation, so the solver considers every
   non-empty subset of powered groups (2^k - 1 of them; the paper bounds
   k at 3).  Inside a subset each group sits at its lower bound, at its
   upper bound, or is free.  Free groups either stand at their own
   vertex (budget slack, ``f_i'(p_i) = 0``) or share one marginal
   throughput-per-watt with the budget tight (the water-filling
   condition ``f_i'(p_i) = lambda``), so every candidate is the solution
   of a tiny linear system.  The objective is separable and the
   constraints are linear, so every local maximum — concave fit or not —
   is one of these KKT points (or ties one on a flat edge).  A group the
   ``max(0, .)`` clamp zeroes might as well be off, which is another
   subset, and the clamp can only raise a candidate's score.  Scoring
   all candidates is therefore exact.
2. **Cubic fallback** — the enumeration reads only a fit's quadratic and
   linear terms, so for cubic fits it is a heuristic.  A simplex grid
   sweep and an SLSQP polish of the best point back it up.  Either
   replaces the answer only when it wins by more than
   :data:`TIE_REL_TOL`, so the mechanism credited in the metrics is the
   one that actually decided.

:meth:`PARSolver.solve_via` forces one mechanism (KKT, grid or SLSQP) so
:mod:`repro.verify.differential` can cross-check them.

The same machinery at 10% granularity with the *measured* objective is
exactly the paper's Manual baseline (:meth:`PARSolver.compositions`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.database import PerfPowerFit
from repro.errors import ConfigurationError, SolverError
from repro.obs.metrics import REGISTRY as _REGISTRY

# Process-wide solver telemetry (per-instance counters stay authoritative
# for cache_info(); these aggregate across every solver in the process).
_SOLVE_SECONDS = _REGISTRY.histogram(
    "repro_solver_solve_seconds", "PARSolver.solve wall time (cache hits included)"
)
_SOLVES_TOTAL = _REGISTRY.counter(
    "repro_solver_solves_total", "Solves by winning mechanism", labelnames=("method",)
)
_CACHE_LOOKUPS = _REGISTRY.counter(
    "repro_solver_cache_lookups_total", "Solve-cache lookups", labelnames=("result",)
)
_CACHE_HIT = _CACHE_LOOKUPS.labels("hit")
_CACHE_MISS = _CACHE_LOOKUPS.labels("miss")
_CACHE_STALE = _CACHE_LOOKUPS.labels("stale")

#: Feasibility slack shared by every mechanism: a solution may exceed the
#: budget by at most this many watts (floating-point headroom, far below
#: meter noise).
FEASIBILITY_SLACK_W = 1e-6

#: On the cubic fallback, a later mechanism replaces the earlier answer
#: only when its projected performance is higher by more than this
#: fraction: smaller "wins" are float noise, and the earlier mechanism
#: keeps both the answer and the ``repro_solver_solves_total`` credit.
TIE_REL_TOL = 1e-9


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
        Which mechanism produced the winner: ``"kkt"`` (always, for
        linear and quadratic fits), ``"grid"`` or ``"slsqp"`` (cubic
        fallback or :meth:`PARSolver.solve_via`), or ``"kkt-partial"``
        (:class:`PartialGroupSolver`).
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


class PARSolver:
    """Finds the optimal PAR for up to a handful of server groups.

    Parameters
    ----------
    granularity:
        Step of the cubic-fallback grid sweep for <= 2 groups (finer) —
        3-group racks use ``coarse_granularity`` to keep the sweep cheap.
    coarse_granularity:
        Simplex step used when there are 3 or more groups.
    max_groups:
        Sanity bound; the paper's rack-level deployment caps at 3 types.
    cache_size:
        Capacity of the per-instance solve memoization cache (``0``
        disables it).  Solutions are keyed on the group fits'
        coefficients and bounds, the group counts, and the budget
        quantized to :data:`CACHE_BUDGET_QUANTUM_W` — so the cyclic
        budgets of a constrained-supply sweep, which re-pose the exact
        same program dozens of times per run, solve once.
    """

    #: Budget quantization step (W) for the memoization key.  Far below
    #: meter noise, so only numerically identical programs ever collide.
    CACHE_BUDGET_QUANTUM_W = 1e-6

    def __init__(
        self,
        granularity: float = 0.01,
        coarse_granularity: float = 0.04,
        max_groups: int = 4,
        safety_margin: float = 0.05,
        cache_size: int = 1024,
    ) -> None:
        if not 0.0 < granularity <= 0.5:
            raise SolverError("granularity must be in (0, 0.5]")
        if not 0.0 < coarse_granularity <= 0.5:
            raise SolverError("coarse granularity must be in (0, 0.5]")
        if safety_margin < 0:
            raise SolverError("safety margin must be non-negative")
        if cache_size < 0:
            raise SolverError("cache size must be non-negative")
        self.granularity = granularity
        self.coarse_granularity = coarse_granularity
        self.max_groups = max_groups
        self.safety_margin = safety_margin
        self.cache_size = cache_size
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_stale_hits = 0
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

        Solutions are memoized per instance (see ``cache_size``): a call
        whose groups carry the same fitted coefficients/bounds and counts
        under the same quantized budget returns the cached
        :class:`PARSolution` (frozen, so sharing is safe) without
        re-running the enumeration.

        Raises
        ------
        SolverError
            On empty input or too many groups.
        ConfigurationError
            On a negative or non-finite budget.
        """
        self._validate_inputs(groups, total_power_w)
        start = perf_counter()
        try:
            if self.cache_size == 0:
                solution = self._solve_impl(groups, total_power_w)
                _SOLVES_TOTAL.labels(solution.method).inc()
                return solution
            key = self._cache_key(groups, total_power_w)
            cached = self._cache.get(key)
            if cached is not None:
                if self._feasible_for(cached, groups, total_power_w):
                    self.cache_hits += 1
                    _CACHE_HIT.inc()
                    _SOLVES_TOTAL.labels("cached").inc()
                    return cached
                # Stale hit: the quantized key collided with a solve done
                # under a (slightly) larger budget, so replaying the cached
                # allocation would overdraw this one.  Re-solve at the
                # exact budget and overwrite the entry — the replacement is
                # feasible for this and any larger budget in the quantum.
                self.cache_stale_hits += 1
                _CACHE_STALE.inc()
                solution = self._solve_impl(groups, total_power_w)
                _SOLVES_TOTAL.labels(solution.method).inc()
                self._cache[key] = solution
                return solution
            self.cache_misses += 1
            _CACHE_MISS.inc()
            solution = self._solve_impl(groups, total_power_w)
            _SOLVES_TOTAL.labels(solution.method).inc()
            if len(self._cache) >= self.cache_size:
                # FIFO eviction: dict preserves insertion order and the
                # adaptive policies retire old fits monotonically.
                self._cache.pop(next(iter(self._cache)))
            self._cache[key] = solution
            return solution
        finally:
            _SOLVE_SECONDS.observe(perf_counter() - start)

    #: Mechanisms :meth:`solve_via` can force.
    METHODS = ("kkt", "grid", "slsqp")

    def solve_via(
        self, groups: Sequence[GroupModel], total_power_w: float, method: str
    ) -> PARSolution:
        """Solve with exactly one mechanism — the differential-check API.

        ``method`` is one of :data:`METHODS`: ``"kkt"`` runs only the
        analytic KKT candidate enumeration, ``"grid"`` only the dense
        simplex sweep, and ``"slsqp"`` forces the scipy path (one SLSQP
        run per powered subset from a feasible interior start).  No
        memoization, no cross-mechanism arbitration — so
        :mod:`repro.verify.differential` can compare the mechanisms
        against each other.

        Raises
        ------
        SolverError
            On empty input, too many groups, or an unknown ``method``.
        ConfigurationError
            On a negative or non-finite budget.
        """
        self._validate_inputs(groups, total_power_w)
        if method not in self.METHODS:
            raise SolverError(
                f"unknown solve method {method!r}; expected one of {self.METHODS}"
            )
        if total_power_w == 0:
            best_p, best_score = (0.0,) * len(groups), 0.0
        elif method == "kkt":
            best_p, best_score = self._kkt_best(groups, total_power_w)
        elif method == "grid":
            best_p, best_score = self._grid_best(groups, total_power_w)
        else:
            best_p, best_score = self._slsqp_best(groups, total_power_w)
        return self._to_solution(groups, best_p, best_score, method, total_power_w)

    def _slsqp_best(
        self, groups: Sequence[GroupModel], budget_w: float
    ) -> tuple[tuple[float, ...], float]:
        """Best SLSQP result over all feasible powered subsets."""
        k = len(groups)
        best_p: tuple[float, ...] = (0.0,) * k
        best_score = 0.0
        for powered in itertools.product((False, True), repeat=k):
            if not any(powered):
                continue
            on = [i for i in range(k) if powered[i]]
            lo = {i: self._lo(groups[i].fit) for i in on}
            min_total = sum(groups[i].count * lo[i] for i in on)
            if min_total > budget_w + FEASIBILITY_SLACK_W:
                continue
            # Feasible interior start: walk each group halfway from its
            # lower bound toward its plateau, scaled so the subset stays
            # inside the budget.
            span = {i: max(0.0, groups[i].fit.max_power_w - lo[i]) for i in on}
            denom = sum(groups[i].count * span[i] for i in on)
            t = 1.0 if denom <= 0 else min(1.0, (budget_w - min_total) / denom)
            start = [0.0] * k
            for i in on:
                start[i] = lo[i] + 0.5 * t * span[i]
            polished = self._polish(groups, budget_w, tuple(start))
            if polished is not None:
                p, score = polished
                if score > best_score:
                    best_p, best_score = p, score
        return best_p, best_score

    # ------------------------------------------------------------------
    # Memoization
    # ------------------------------------------------------------------
    def _validate_inputs(
        self, groups: Sequence[GroupModel], total_power_w: float
    ) -> None:
        if not groups:
            raise SolverError("need at least one group")
        if len(groups) > self.max_groups:
            raise SolverError(
                f"{len(groups)} groups exceeds max_groups={self.max_groups}"
            )
        # A NaN passes a plain ``< 0`` test, and round() in the cache key
        # raises on both NaN and inf.
        if not (math.isfinite(total_power_w) and total_power_w >= 0):
            raise ConfigurationError(
                f"budget must be finite and non-negative, got {total_power_w}"
            )

    def _cache_key(
        self, groups: Sequence[GroupModel], total_power_w: float
    ) -> tuple:
        return (
            tuple(
                (g.count, g.fit.coefficients, g.fit.min_power_w, g.fit.max_power_w)
                for g in groups
            ),
            round(total_power_w / self.CACHE_BUDGET_QUANTUM_W),
        )

    @staticmethod
    def _feasible_for(
        solution: PARSolution, groups: Sequence[GroupModel], total_power_w: float
    ) -> bool:
        """Whether ``solution``'s allocation fits under ``total_power_w``.

        The budget quantization of :meth:`_cache_key` means a cached
        solution may have been produced under a budget up to half a
        quantum larger than the one now posed; replaying it would then
        allocate more than the rack is actually granted.  Validated with
        the solver's own :data:`FEASIBILITY_SLACK_W`, so a fresh solve
        (which is allowed that same slack) always validates.
        """
        counts = (
            solution.powered_counts
            if solution.powered_counts is not None
            else tuple(g.count for g in groups)
        )
        total = sum(k * p for k, p in zip(counts, solution.per_server_w))
        return total <= total_power_w + FEASIBILITY_SLACK_W

    def cache_info(self) -> dict[str, float]:
        """Hit/miss/stale counters and the current hit rate of the solve cache."""
        total = self.cache_hits + self.cache_misses + self.cache_stale_hits
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "stale_hits": self.cache_stale_hits,
            "size": len(self._cache),
            "hit_rate": self.cache_hits / total if total else 0.0,
        }

    def clear_cache(self) -> None:
        """Drop all memoized solutions and reset the counters."""
        self._cache.clear()
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_stale_hits = 0

    def _solve_impl(
        self, groups: Sequence[GroupModel], total_power_w: float
    ) -> PARSolution:
        if total_power_w == 0:
            return self._to_solution(groups, (0.0,) * len(groups), 0.0, "kkt", 0.0)
        best_p, best_score = self._kkt_best(groups, total_power_w)
        method = "kkt"
        if any(len(g.fit.coefficients) > 3 for g in groups):
            # Cubic fallback: KKT saw only the quadratic part of the fit.
            grid_p, grid_score = self._grid_best(groups, total_power_w)
            if self._beats(grid_score, best_score):
                best_p, best_score, method = grid_p, grid_score, "grid"
            polished = self._polish(groups, total_power_w, best_p)
            if polished is not None and self._beats(polished[1], best_score):
                (best_p, best_score), method = polished, "slsqp"
        return self._to_solution(groups, best_p, best_score, method, total_power_w)

    @staticmethod
    def _beats(score: float, incumbent: float) -> bool:
        """Whether ``score`` wins by more than :data:`TIE_REL_TOL`."""
        return score > incumbent + TIE_REL_TOL * abs(incumbent)

    @staticmethod
    def compositions(k: int, granularity: float = 0.1) -> list[tuple[float, ...]]:
        """All PAR vectors summing to exactly 1 at ``granularity`` steps.

        This is the search space of the paper's Manual baseline (10%
        granularity, Table III).
        """
        if k < 1:
            raise SolverError("k must be >= 1")
        steps = round(1.0 / granularity)
        if abs(steps * granularity - 1.0) > 1e-9:
            raise SolverError("granularity must divide 1 evenly")
        out: list[tuple[float, ...]] = []
        for combo in itertools.combinations_with_replacement(range(k), steps):
            counts = [0] * k
            for idx in combo:
                counts[idx] += 1
            out.append(tuple(c * granularity for c in counts))
        return out

    @classmethod
    def exhaustive(
        cls,
        k: int,
        objective: Callable[[tuple[float, ...]], float],
        granularity: float = 0.1,
    ) -> tuple[tuple[float, ...], float]:
        """Try every composition and return the best (Manual's procedure).

        ``objective`` receives a PAR vector and returns measured rack
        performance; in the paper this is a physical trial run.
        """
        best_ratios: tuple[float, ...] | None = None
        best_value = -np.inf
        for ratios in cls.compositions(k, granularity):
            value = objective(ratios)
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
        best_p: tuple[float, ...] = (0.0,) * len(groups)
        best_score = 0.0
        for candidate in self._kkt_candidates(groups, budget_w):
            score = self._score(groups, candidate)
            if score > best_score:
                best_p, best_score = candidate, score
        return best_p, best_score

    def _kkt_candidates(
        self, groups: Sequence[GroupModel], budget_w: float
    ) -> Iterable[tuple[float, ...]]:
        k = len(groups)
        indices = range(k)
        for powered in itertools.product((False, True), repeat=k):
            if not any(powered):
                continue
            on = [i for i in indices if powered[i]]
            min_total = sum(groups[i].count * self._lo(groups[i].fit) for i in on)
            if min_total > budget_w:
                continue
            yield from self._subset_candidates(groups, on, budget_w)

    def _subset_candidates(
        self, groups: Sequence[GroupModel], on: list[int], budget_w: float
    ) -> Iterable[tuple[float, ...]]:
        """KKT points for a fixed powered subset."""
        k = len(groups)

        def assemble(values: dict[int, float]) -> tuple[float, ...] | None:
            p = [0.0] * k
            total = 0.0
            for i in on:
                v = values[i]
                fit = groups[i].fit
                lo = self._lo(fit)
                if v < lo - 1e-9 or v > fit.max_power_w + 1e-9:
                    return None
                v = min(max(v, lo), fit.max_power_w)
                p[i] = v
                total += groups[i].count * v
            if total > budget_w + FEASIBILITY_SLACK_W:
                return None
            return tuple(p)

        # Each powered group is at LO, HI, or FREE.
        for assignment in itertools.product(("lo", "hi", "free"), repeat=len(on)):
            fixed: dict[int, float] = {}
            free: list[int] = []
            for i, tag in zip(on, assignment):
                fit = groups[i].fit
                if tag == "lo":
                    fixed[i] = self._lo(fit)
                elif tag == "hi":
                    fixed[i] = fit.max_power_w
                else:
                    free.append(i)

            if not free:
                candidate = assemble(fixed)
                if candidate is not None:
                    yield candidate
                continue

            # Budget-slack stationary point: f_i'(p_i) = 0 for free i.  A
            # linear free group has none (or is flat, tying its bounds).
            linear = [i for i in free if abs(groups[i].fit.l) < 1e-15]
            if not linear:
                interior: dict[int, float] = dict(fixed)
                for i in free:
                    fit = groups[i].fit
                    interior[i] = -fit.m / (2.0 * fit.l)
                candidate = assemble(interior)
                if candidate is not None:
                    yield candidate

            # Budget-tight stationary point: f_i'(p_i) = lambda for free i,
            # sum count_i p_i = budget, so p_i = (lambda - m_i) / (2 l_i).
            if len(linear) > 1:
                # Equal slopes make a flat edge whose ends are enumerated
                # elsewhere; unequal slopes admit no common lambda.
                continue
            rest = budget_w - sum(groups[i].count * fixed[i] for i in fixed)
            absorber: int | None = None
            if linear or len(free) == 1:
                # One free group takes what the others leave: a linear one
                # (lambda is its slope) or a lone one of any curvature (a
                # vertex of the box-plus-budget polytope).
                absorber = linear[0] if linear else free[0]
                lam = groups[absorber].fit.m
            else:
                denom = sum(groups[i].count / (2.0 * groups[i].fit.l) for i in free)
                if abs(denom) < 1e-15:
                    continue  # a flat family whose ends are enumerated
                offset = sum(
                    groups[i].count * groups[i].fit.m / (2.0 * groups[i].fit.l)
                    for i in free
                )
                lam = (rest + offset) / denom
            tight: dict[int, float] = dict(fixed)
            for i in free:
                if i != absorber:
                    fit = groups[i].fit
                    tight[i] = (lam - fit.m) / (2.0 * fit.l)
                    rest -= groups[i].count * tight[i]
            if absorber is not None:
                tight[absorber] = rest / groups[absorber].count
            candidate = assemble(tight)
            if candidate is not None:
                yield candidate

    # ------------------------------------------------------------------
    # SLSQP polish (cubic fallback): refine the best point within its
    # powered subset's box.
    # ------------------------------------------------------------------
    def _polish(
        self,
        groups: Sequence[GroupModel],
        budget_w: float,
        start: tuple[float, ...],
    ) -> tuple[tuple[float, ...], float] | None:
        on = [i for i, p in enumerate(start) if p > 0.0]
        if not on:
            return None
        bounds = [
            (self._lo(groups[i].fit), max(self._lo(groups[i].fit), groups[i].fit.max_power_w))
            for i in on
        ]
        counts = np.array([groups[i].count for i in on], dtype=float)
        x0 = np.array([min(max(start[i], b[0]), b[1]) for i, b in zip(on, bounds)])
        if counts @ x0 > budget_w + FEASIBILITY_SLACK_W:
            return None

        def negative_perf(x: np.ndarray) -> float:
            return -sum(
                groups[i].count * groups[i].fit.predict(float(xi))
                for i, xi in zip(on, x)
            )

        # Imported here, off the package's import path: only cubic fits and
        # solve_via("slsqp") reach this polish.
        from scipy import optimize

        result = optimize.minimize(
            negative_perf,
            x0=x0,
            bounds=bounds,
            constraints=[
                {"type": "ineq", "fun": lambda x: budget_w - float(counts @ x)}
            ],
            method="SLSQP",
        )
        if not result.success:
            return None
        if float(counts @ result.x) > budget_w + FEASIBILITY_SLACK_W:
            return None
        p = [0.0] * len(groups)
        for i, xi in zip(on, result.x):
            p[i] = float(xi)
        return tuple(p), self._score(groups, p)

    # ------------------------------------------------------------------
    # Grid sweep (cubic fallback; vectorised: the 3-group simplex has
    # ~10^4 points)
    # ------------------------------------------------------------------
    def _predict_array(self, fit: PerfPowerFit, p: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`PerfPowerFit.predict` with the safety margin."""
        clamped = np.minimum(p, fit.max_power_w)
        values = np.maximum(np.polyval(fit.coefficients, clamped), 0.0)
        return np.where(p < self._lo(fit), 0.0, values)

    def _grid_best(
        self, groups: Sequence[GroupModel], budget_w: float
    ) -> tuple[tuple[float, ...], float]:
        k = len(groups)
        step = self.granularity if k <= 2 else self.coarse_granularity
        n_steps = int(round(1.0 / step))
        fractions = np.linspace(0.0, 1.0, n_steps + 1)

        grids = np.meshgrid(*([fractions] * k), indexing="ij")
        etas = np.stack([g.ravel() for g in grids], axis=0)  # (k, n_points)
        feasible = etas.sum(axis=0) <= 1.0 + 1e-12
        etas = etas[:, feasible]

        scores = np.zeros(etas.shape[1])
        for i, group in enumerate(groups):
            per_server = etas[i] * budget_w / group.count
            scores += group.count * self._predict_array(group.fit, per_server)

        best_idx = int(np.argmax(scores))
        best_p = tuple(
            float(etas[i, best_idx] * budget_w / groups[i].count) for i in range(k)
        )
        return best_p, float(scores[best_idx])


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

        for k in itertools.product(*(range(g.count + 1) for g in groups)):
            if not any(k):
                continue
            min_total = sum(
                ki * self._lo(g.fit) for ki, g in zip(k, groups) if ki > 0
            )
            if min_total > total_power_w:
                continue
            scaled = [
                GroupModel(g.name, ki, g.fit)
                for g, ki in zip(groups, k)
                if ki > 0
            ]
            on = list(range(len(scaled)))
            for candidate in self._subset_candidates(scaled, on, total_power_w):
                score = self._score(scaled, candidate)
                if score > best_score + 1e-12:
                    # Re-expand the candidate onto the original group axes.
                    expanded = [0.0] * n
                    j = 0
                    for i, ki in enumerate(k):
                        if ki > 0:
                            expanded[i] = candidate[j]
                            j += 1
                    best_p = tuple(expanded)
                    best_k = tuple(k)
                    best_score = score

        method = "kkt-partial" if best_score > 0.0 else "kkt"
        return self._to_solution(
            groups, best_p, best_score, method, total_power_w, best_k
        )
