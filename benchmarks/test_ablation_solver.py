"""Ablation — solver design choices.

Quantifies two GreenHetero solver decisions the paper leaves implicit:

* **Granularity** — the Manual baseline's 10% trial grid vs the solver's
  continuous optimum (the paper observes Manual's "PAR accuracy is very
  low" yet it still beats Uniform).
* **Safety margin** — allocating exactly at the learned power-on
  boundary risks landing just below a server's true minimum active draw
  (meter noise), wasting the whole share.  The margin trades a few watts
  of headroom for cliff immunity.
"""

from benchmarks.conftest import once, run_cached
from repro.core.database import PerfPowerFit
from repro.core.solver import GroupModel, PARSolver
from repro.sim.experiment import ExperimentConfig


def granularity_gap():
    """Projected performance lost by Manual's 10% trial grid."""
    e5 = GroupModel(
        "E5-2620", 5,
        PerfPowerFit(coefficients=(-2.4, 840.0, -49000.0), min_power_w=100.0, max_power_w=150.0),
    )
    i5 = GroupModel(
        "i5-4460", 5,
        PerfPowerFit(coefficients=(-8.0, 1560.0, -59000.0), min_power_w=55.0, max_power_w=80.0),
    )
    solver = PARSolver()
    gaps = []
    for budget in (700.0, 850.0, 1000.0, 1150.0):
        exact = solver.solve([e5, i5], budget).expected_perf

        def projected(trials, budget=budget):
            return [
                sum(
                    g.count * g.fit.predict(r * budget / g.count)
                    for g, r in zip((e5, i5), ratios)
                )
                for ratios in trials
            ]

        _, coarse = PARSolver.exhaustive(2, projected, granularity=0.1)
        gaps.append((budget, exact, coarse))
    return gaps


def test_ablation_granularity(benchmark, reporter):
    gaps = once(benchmark, granularity_gap)
    reporter.table(
        ["budget W", "solver perf", "10% grid perf", "grid/solver"],
        [[b, e, c, c / e] for b, e, c in gaps],
        title="Ablation: continuous solver vs Manual's 10% trial grid",
    )
    for _, exact, coarse in gaps:
        # The solver never loses to the coarse grid, and the grid stays
        # within a modest factor (it is "near-optimal", per Table III).
        assert exact >= coarse - 1e-6
        assert coarse >= 0.75 * exact


def run_margin_ablation():
    out = {}
    for margin in (0.0, 0.05):
        from repro.core.policies import GreenHeteroPolicy
        # The standard experiment uses the default margin; rebuild the
        # stack manually for margin=0 via a custom policy instance.
        from repro.core.solver import PARSolver as Solver
        from repro.sim.engine import Simulation
        from repro.sim.experiment import ExperimentConfig

        cfg = ExperimentConfig.insufficient_supply(
            "SPECjbb", policies=("Uniform",)
        )
        base = run_cached(cfg)
        sim = Simulation.assemble(
            policy=GreenHeteroPolicy(solver=Solver(safety_margin=margin)),
            rack=cfg.build_rack(),
            clock=cfg.build_clock(),
            seed=cfg.seed,
            supply_fractions=cfg.supply_fractions,
        )
        log = sim.run()
        uniform = base.log("Uniform")
        out[margin] = log.mean_throughput() / uniform.mean_throughput()
    return out


def test_ablation_safety_margin(benchmark, reporter):
    gains = once(benchmark, run_margin_ablation)
    reporter.table(
        ["safety margin", "GreenHetero gain vs Uniform"],
        [[f"{m:.0%}", g] for m, g in gains.items()],
        title="Ablation: solver safety margin at the power-on cliff",
    )
    reporter.paper_vs_measured(
        "margin value",
        "allocations at the noisy learned boundary waste whole shares",
        f"0%: {gains[0.0]:.2f}x, 5%: {gains[0.05]:.2f}x",
    )
    # The margin never hurts materially and both beat Uniform.
    assert gains[0.05] >= gains[0.0] - 0.05
    assert gains[0.05] > 1.2
