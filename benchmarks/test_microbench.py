"""Microbenchmarks — the controller's hot paths.

The paper's scheduler runs on commodity rack controllers every 15
minutes; its decision latency must be negligible against the epoch.
These are genuine timing benchmarks (many rounds), covering:

* one PAR solve (2 and 3 groups),
* one Holt alpha/beta training (Eq. 5) over a day of history,
* one database re-fit,
* one full controller epoch.
"""

import numpy as np
import pytest

from repro.core.database import PerfPowerFit, ProfilingDatabase
from repro.core.monitor import Monitor
from repro.core.policies import make_policy
from repro.core import predictor
from repro.core.predictor import HoltPredictor
from repro.core.solver import GroupModel, PARSolver
from repro.core.controller import GreenHeteroController
from repro.power.battery import BatteryBank
from repro.power.grid import GridSource
from repro.power.pdu import PDU
from repro.power.solar import SolarFarm
from repro.servers.rack import Rack
from repro.traces.nrel import synthesize_irradiance


def concave(t_max, lo, hi):
    span = hi - lo
    return PerfPowerFit(
        coefficients=(
            -t_max / span**2,
            2 * t_max * hi / span**2,
            t_max - t_max * hi**2 / span**2,
        ),
        min_power_w=lo,
        max_power_w=hi,
    )


def test_solver_two_groups(benchmark):
    solver = PARSolver()
    groups = [
        GroupModel("A", 5, concave(100.0, 95.0, 150.0)),
        GroupModel("B", 5, concave(60.0, 52.0, 80.0)),
    ]
    solution = benchmark(solver.solve, groups, 1000.0)
    assert solution.expected_perf > 0


def test_solver_three_groups(benchmark):
    solver = PARSolver()
    groups = [
        GroupModel("A", 5, concave(100.0, 95.0, 150.0)),
        GroupModel("B", 5, concave(40.0, 58.0, 75.0)),
        GroupModel("C", 5, concave(60.0, 52.0, 80.0)),
    ]
    solution = benchmark(solver.solve, groups, 1200.0)
    assert solution.expected_perf > 0


def test_holt_training(benchmark, monkeypatch):
    t = np.arange(96)
    history = np.maximum(0.0, np.sin((t - 24) * np.pi / 48)) * 1000.0
    monkeypatch.setattr(predictor, "GRID_STEPS", 5)
    # The search itself: ``fit`` would time memo hits after round one.
    alpha, beta = benchmark(HoltPredictor._fit_impl, history)
    assert 0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0


def test_database_refit(benchmark):
    db = ProfilingDatabase()
    key = ("E5-2620", "SPECjbb")
    db.ingest_training_run(
        key, 88.0, [(100.0 + i * 2.0, 10000.0 + i * 500.0) for i in range(25)]
    )
    fit = benchmark(db.refit, key)
    assert fit.n_samples > 0


def test_full_controller_epoch(benchmark):
    rack = Rack([("E5-2620", 5), ("i5-4460", 5)], "SPECjbb")
    trace = synthesize_irradiance(days=1, seed=3)
    pdu = PDU(
        SolarFarm.sized_for(trace, 1.4 * rack.max_draw_w),
        BatteryBank(),
        GridSource(budget_w=1000.0),
    )
    controller = GreenHeteroController(
        rack=rack, pdu=pdu, policy=make_policy("GreenHetero"), monitor=Monitor(seed=3)
    )
    controller.run_epoch(0.0)  # training epoch outside the timer

    clock = {"t": 900.0}

    def one_epoch():
        record = controller.run_epoch(clock["t"])
        clock["t"] += 900.0
        return record

    record = benchmark.pedantic(one_epoch, rounds=20, iterations=1)
    assert record.throughput >= 0.0
    # A decision epoch must be vastly cheaper than the 900 s it governs.
    assert benchmark.stats["mean"] < 1.0
