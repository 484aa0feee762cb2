"""Ablation — cluster-level grid sharing (the paper's future work).

Section IV-A concedes that rack-independent deployment "cannot share
capacities" across racks.  :class:`ClusterCoordinator` closes that gap:
two racks with *different* solar exposure share one grid feed, and the
shortfall-proportional split is compared against a blind equal split —
heterogeneity-awareness applied one level up.
"""

from benchmarks.conftest import once
from repro.core.cluster import ClusterCoordinator, GridSplit
from repro.core.controller import GreenHeteroController
from repro.core.monitor import Monitor
from repro.core.policies import make_policy
from repro.power.battery import BatteryBank
from repro.power.grid import GridSource
from repro.power.pdu import PDU
from repro.power.solar import SolarFarm
from repro.servers.rack import Rack
from repro.sim.clock import SimClock
from repro.sim.engine import Simulation
from repro.traces.nrel import Weather, synthesize_irradiance
from repro.workloads.generator import LoadGenerator

SHARED_GRID_W = 1600.0


def build_cluster(split):
    """Two Comb1 racks: one sunny (High trace), one clouded (Low trace)."""
    sims = []
    for weather, seed in ((Weather.HIGH, 21), (Weather.LOW, 22)):
        rack = Rack([("E5-2620", 5), ("i5-4460", 5)], "Streamcluster")
        trace = synthesize_irradiance(days=2, weather=weather, seed=seed)
        pdu = PDU(
            SolarFarm.sized_for(trace, 1.4 * rack.max_draw_w),
            BatteryBank(count=2),  # small batteries keep the grid relevant
            GridSource(budget_w=SHARED_GRID_W / 2),
        )
        controller = GreenHeteroController(
            rack=rack, pdu=pdu, policy=make_policy("GreenHetero"),
            monitor=Monitor(seed=seed),
        )
        # Day 2 of the traces; Streamcluster saturates (full load).
        sims.append(
            Simulation(controller, SimClock(), LoadGenerator(rack.groups[0].workload))
        )
    return ClusterCoordinator(sims, SHARED_GRID_W, split=split)


def run_day(split):
    cluster = build_cluster(split)
    total = 0.0
    for i in range(96):
        records = cluster.run_epoch()
        total += cluster.aggregate_throughput(records)
    return total / 96.0


def test_ablation_cluster_grid_split(benchmark, reporter):
    results = once(
        benchmark,
        lambda: {split: run_day(split) for split in (GridSplit.EQUAL, GridSplit.SHORTFALL)},
    )

    equal = results[GridSplit.EQUAL]
    shortfall = results[GridSplit.SHORTFALL]
    reporter.table(
        ["grid split", "cluster mean throughput"],
        [["equal", equal], ["shortfall-proportional", shortfall]],
        title="Ablation: shared-grid division across a sunny and a clouded rack",
    )
    reporter.paper_vs_measured(
        "cross-rack sharing",
        "future work: racks cannot share capacities",
        f"shortfall split = {shortfall / equal:.2f}x equal split",
    )

    # Shortfall-aware division must not lose to the blind split, and on
    # asymmetric weather it should win outright.
    assert shortfall >= equal * 0.99
    assert shortfall / equal >= 1.01
