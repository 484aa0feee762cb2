"""The kitchen-sink integration test: every extension active at once.

Partial-group policy + rationed selector + workload schedule + fault
injection + Peukert battery + hybrid solar/wind, run for a simulated
day.  Nothing here asserts performance numbers — it asserts that the
composition of every feature holds the core invariants.
"""

import numpy as np
import pytest

from repro.core.controller import GreenHeteroController
from repro.core.monitor import Monitor
from repro.core.policies import make_policy
from repro.core.scheduler import AdaptiveScheduler
from repro.core.sources import RationedSourceSelector
from repro.power.battery import BatteryBank
from repro.power.grid import GridSource
from repro.power.pdu import PDU
from repro.power.solar import SolarFarm
from repro.power.wind import HybridRenewable, WindFarm, WindSpeedTrace
from repro.servers.rack import Rack
from repro.sim.clock import SimClock
from repro.sim.engine import Simulation
from repro.sim.faults import FaultInjector
from repro.sim.schedule import WorkloadPhase, WorkloadSchedule
from repro.traces.nrel import Weather, synthesize_irradiance
from repro.units import SECONDS_PER_DAY


@pytest.fixture(scope="module")
def kitchen_sink_log():
    rack = Rack([("E5-2620", 4), ("i5-4460", 4)], "SPECjbb")
    solar = SolarFarm.sized_for(
        synthesize_irradiance(days=2, weather=Weather.LOW, seed=47),
        peak_power_w=1.1 * rack.max_draw_w,
    )
    wind = WindFarm(WindSpeedTrace(days=2, seed=48), rated_power_w=300.0)
    pdu = PDU(
        HybridRenewable(solar, wind),
        BatteryBank(count=6, peukert_exponent=1.15),
        GridSource(budget_w=700.0),
    )
    policy = make_policy("GreenHetero+")
    controller = GreenHeteroController(
        rack=rack,
        pdu=pdu,
        policy=policy,
        monitor=Monitor(seed=47),
        scheduler=AdaptiveScheduler(
            policy, selector=RationedSourceSelector(night_length_s=10 * 3600.0)
        ),
    )
    sim = Simulation(
        controller=controller,
        clock=SimClock(start_s=SECONDS_PER_DAY, duration_s=SECONDS_PER_DAY),
        load_generator=Simulation._build_generator(rack, True, 47),
        workload_schedule=WorkloadSchedule(
            [WorkloadPhase(7.0, "SPECjbb"), WorkloadPhase(21.0, "Canneal")]
        ),
        faults=(
            FaultInjector()
            .add_renewable_dropout(SECONDS_PER_DAY + 13 * 3600.0, SECONDS_PER_DAY + 14 * 3600.0)
            .add_grid_outage(SECONDS_PER_DAY + 4 * 3600.0, SECONDS_PER_DAY + 5 * 3600.0, factor=0.5)
        ),
    )
    return sim.run(), sim


class TestKitchenSink:
    def test_runs_to_completion(self, kitchen_sink_log):
        log, _ = kitchen_sink_log
        assert len(log) == 96

    def test_epu_always_bounded(self, kitchen_sink_log):
        log, _ = kitchen_sink_log
        assert (log.epus >= 0.0).all() and (log.epus <= 1.0).all()

    def test_throughput_non_negative_and_mostly_live(self, kitchen_sink_log):
        log, _ = kitchen_sink_log
        assert (log.throughputs >= 0.0).all()
        assert (log.throughputs > 0).mean() > 0.8

    def test_battery_envelope_respected(self, kitchen_sink_log):
        log, sim = kitchen_sink_log
        bank = sim.controller.pdu.battery
        assert log.battery_soc_wh.min() >= bank.floor_wh - 1e-6
        assert log.battery_soc_wh.max() <= bank.capacity_wh + 1e-6

    def test_both_workloads_profiled(self, kitchen_sink_log):
        _, sim = kitchen_sink_log
        db = sim.controller.scheduler.database
        assert ("E5-2620", "SPECjbb") in db
        assert ("E5-2620", "Canneal") in db

    def test_partial_counts_appear(self, kitchen_sink_log):
        log, _ = kitchen_sink_log
        counted = [r for r in log if r.powered_counts is not None]
        assert counted, "the partial-group policy must report counts"
        partial = [
            r for r in counted
            if any(0 < k < g for k, g in zip(r.powered_counts, (4, 4)))
        ]
        # Under a tight supply the k-of-n relaxation should actually
        # get exercised at least once during the day.
        assert partial

    def test_grid_outage_window_respected(self, kitchen_sink_log):
        log, _ = kitchen_sink_log
        hours = (log.times_s - SECONDS_PER_DAY) / 3600.0
        outage = (hours >= 4.0) & (hours < 5.0)
        assert log.series("grid_to_load_w")[outage].max() <= 350.0 + 1e-6

    def test_deterministic(self, kitchen_sink_log):
        log, _ = kitchen_sink_log
        # An identically seeded second stack reproduces the whole day.
        rack = Rack([("E5-2620", 4), ("i5-4460", 4)], "SPECjbb")
        solar = SolarFarm.sized_for(
            synthesize_irradiance(days=2, weather=Weather.LOW, seed=47),
            peak_power_w=1.1 * rack.max_draw_w,
        )
        wind = WindFarm(WindSpeedTrace(days=2, seed=48), rated_power_w=300.0)
        pdu = PDU(
            HybridRenewable(solar, wind),
            BatteryBank(count=6, peukert_exponent=1.15),
            GridSource(budget_w=700.0),
        )
        policy = make_policy("GreenHetero+")
        controller = GreenHeteroController(
            rack=rack, pdu=pdu, policy=policy, monitor=Monitor(seed=47),
            scheduler=AdaptiveScheduler(
                policy, selector=RationedSourceSelector(night_length_s=10 * 3600.0)
            ),
        )
        sim2 = Simulation(
            controller=controller,
            clock=SimClock(start_s=SECONDS_PER_DAY, duration_s=SECONDS_PER_DAY),
            load_generator=Simulation._build_generator(rack, True, 47),
            workload_schedule=WorkloadSchedule(
                [WorkloadPhase(7.0, "SPECjbb"), WorkloadPhase(21.0, "Canneal")]
            ),
            faults=(
                FaultInjector()
                .add_renewable_dropout(
                    SECONDS_PER_DAY + 13 * 3600.0, SECONDS_PER_DAY + 14 * 3600.0
                )
                .add_grid_outage(
                    SECONDS_PER_DAY + 4 * 3600.0, SECONDS_PER_DAY + 5 * 3600.0,
                    factor=0.5,
                )
            ),
        )
        log2 = sim2.run()
        assert np.allclose(log.throughputs, log2.throughputs)
        assert np.allclose(log.battery_soc_wh, log2.battery_soc_wh)
