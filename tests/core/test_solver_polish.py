"""SLSQP polish stage of the PAR solver.

The polish runs only on the cubic fallback and as the ``"slsqp"``
reference of :meth:`PARSolver.solve_via`; linear and quadratic fits are
solved by KKT enumeration alone.  Each check here covers both
``solve()`` and the SLSQP reference on three concave groups.
"""

from repro.core.database import PerfPowerFit
from repro.core.solver import GroupModel, PARSolver


def concave(t_max, lo, hi):
    span = hi - lo
    l = -t_max / span**2
    m = 2 * t_max * hi / span**2
    n = t_max - t_max * hi**2 / span**2
    return PerfPowerFit(coefficients=(l, m, n), min_power_w=lo, max_power_w=hi)


THREE_GROUPS = [
    GroupModel("A", 5, concave(100.0, 95.0, 150.0)),
    GroupModel("B", 5, concave(40.0, 58.0, 75.0)),
    GroupModel("C", 5, concave(60.0, 52.0, 80.0)),
]


def both_paths(solver, budget):
    return solver.solve(THREE_GROUPS, budget), solver.solve_via(
        THREE_GROUPS, budget, "slsqp"
    )


class TestPolish:
    def test_polish_respects_budget(self):
        solver = PARSolver(safety_margin=0.0)
        for budget in (600.0, 850.0, 1200.0):
            for sol in both_paths(solver, budget):
                total = sum(
                    g.count * p for g, p in zip(THREE_GROUPS, sol.per_server_w)
                )
                assert total <= budget + 1e-4

    def test_polish_respects_boxes(self):
        solver = PARSolver(safety_margin=0.05)
        for sol in both_paths(solver, 1500.0):
            for group, p in zip(THREE_GROUPS, sol.per_server_w):
                if p > 0:
                    assert p >= group.fit.min_power_w * 1.05 - 1e-6
                    assert p <= group.fit.max_power_w + 1e-6

    def test_method_label(self):
        # Quadratic fits take the exact path; the SLSQP reference
        # labels its answer as its own.
        solver = PARSolver(safety_margin=0.0)
        exact, polished = both_paths(solver, 1000.0)
        assert exact.method == "kkt"
        assert polished.method == "slsqp"
