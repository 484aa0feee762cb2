#!/usr/bin/env python3
"""Beyond the paper: hybrid solar+wind racks and cluster grid sharing.

Two extensions stacked together:

* each rack's PDU is fed by a *hybrid* renewable (PV array + wind
  turbine), smoothing the diurnal solar gap with evening winds;
* a :class:`ClusterCoordinator` splits one shared grid feed across a
  sunny rack and a clouded rack, proportionally to each rack's
  predicted green shortfall (the paper's stated future work).

Run:
    python examples/hybrid_renewables_cluster.py
"""

from repro.analysis.reporting import format_table
from repro.core.cluster import ClusterCoordinator, GridSplit
from repro.core.controller import GreenHeteroController
from repro.core.monitor import Monitor
from repro.core.policies import make_policy
from repro.power.battery import BatteryBank
from repro.power.grid import GridSource
from repro.power.pdu import PDU
from repro.power.solar import SolarFarm
from repro.power.wind import HybridRenewable, WindFarm, WindSpeedTrace
from repro.servers.rack import Rack
from repro.sim.clock import SimClock
from repro.sim.engine import Simulation
from repro.traces.nrel import Weather, synthesize_irradiance
from repro.workloads.generator import LoadGenerator

SHARED_GRID_W = 1500.0


def build_rack(weather: Weather, seed: int) -> Simulation:
    rack = Rack([("E5-2620", 5), ("i5-4460", 5)], "Streamcluster")
    solar = SolarFarm.sized_for(
        synthesize_irradiance(days=2, weather=weather, seed=seed),
        peak_power_w=1.1 * rack.max_draw_w,
    )
    wind = WindFarm(
        WindSpeedTrace(days=2, mean_speed_ms=6.5, seed=seed + 100),
        rated_power_w=0.5 * rack.max_draw_w,
    )
    pdu = PDU(
        HybridRenewable(solar, wind),
        BatteryBank(count=4),
        GridSource(budget_w=SHARED_GRID_W / 2),
    )
    controller = GreenHeteroController(
        rack=rack, pdu=pdu, policy=make_policy("GreenHetero"), monitor=Monitor(seed=seed)
    )
    # Day 2 of the traces; Streamcluster saturates (full load).
    return Simulation(controller, SimClock(), LoadGenerator(rack.groups[0].workload))


def run_day(split: GridSplit) -> float:
    cluster = ClusterCoordinator(
        [
            build_rack(Weather.HIGH, seed=31),
            build_rack(Weather.LOW, seed=32),
        ],
        shared_grid_budget_w=SHARED_GRID_W,
        split=split,
    )
    total = 0.0
    for i in range(96):
        records = cluster.run_epoch()
        total += cluster.aggregate_throughput(records)
    return total / 96.0


def main() -> None:
    print("two hybrid solar+wind racks (one sunny, one clouded), shared grid\n")
    equal = run_day(GridSplit.EQUAL)
    shortfall = run_day(GridSplit.SHORTFALL)
    print(
        format_table(
            ["shared-grid split", "cluster mean ips", "vs equal"],
            [
                ["equal", f"{equal:,.0f}", "1.00x"],
                ["shortfall-proportional", f"{shortfall:,.0f}", f"{shortfall / equal:.2f}x"],
            ],
            title="Cluster coordination over 24 hours",
        )
    )
    print(
        "\nThe shortfall-aware split routes grid watts to the clouded rack "
        "while the sunny rack rides its renewables — heterogeneity-aware "
        "allocation, one level up."
    )


if __name__ == "__main__":
    main()
