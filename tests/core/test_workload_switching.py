"""Workload switching at runtime (Algorithm 1's arrival path)."""

import pytest

from repro.core.controller import EpochDirectives, GreenHeteroController
from repro.core.monitor import Monitor
from repro.core.policies import make_policy
from repro.power.battery import BatteryBank
from repro.power.grid import GridSource
from repro.power.pdu import PDU
from repro.power.solar import SolarFarm
from repro.servers.rack import Rack
from repro.traces.nrel import synthesize_irradiance

NOON = 12 * 3600.0
EPOCH = 900.0


@pytest.fixture
def controller():
    rack = Rack([("E5-2620", 3), ("i5-4460", 3)], "SPECjbb")
    trace = synthesize_irradiance(days=1, seed=23)
    pdu = PDU(
        SolarFarm.sized_for(trace, 1.3 * rack.max_draw_w),
        BatteryBank(),
        GridSource(budget_w=700.0),
    )
    return GreenHeteroController(
        rack=rack, pdu=pdu, policy=make_policy("GreenHetero"), monitor=Monitor(seed=23)
    )


class TestSwitching:
    def test_new_workload_triggers_training(self, controller):
        first = controller.run_epoch(NOON)
        assert len(first.trained_pairs) == 2
        controller.switch_workload("Streamcluster")
        second = controller.run_epoch(NOON + EPOCH)
        assert set(second.trained_pairs) == {
            ("E5-2620", "Streamcluster"),
            ("i5-4460", "Streamcluster"),
        }

    def test_database_retains_old_pairs(self, controller):
        controller.run_epoch(NOON)
        controller.switch_workload("Streamcluster")
        controller.run_epoch(NOON + EPOCH)
        db = controller.scheduler.database
        assert ("E5-2620", "SPECjbb") in db
        assert ("E5-2620", "Streamcluster") in db

    def test_returning_workload_skips_training(self, controller):
        controller.run_epoch(NOON)
        controller.switch_workload("Streamcluster")
        controller.run_epoch(NOON + EPOCH)
        controller.switch_workload("SPECjbb")
        third = controller.run_epoch(NOON + 2 * EPOCH)
        # Already profiled: Algorithm 1 takes the solver branch directly.
        assert third.trained_pairs == ()

    def test_epoch_after_switch_enforces_new_workload_states(self, controller):
        controller.run_epoch(NOON)
        old_rack = controller.rack
        controller.switch_workload("Streamcluster")
        record = controller.run_epoch(NOON + EPOCH, 1.0, EpochDirectives(rack_budget_w=500.0))

        def lookup(rack):
            return tuple(
                rack.curve(g).state_for_budget(budget / group.count).index
                for g, (group, budget) in enumerate(zip(rack.groups, record.group_budgets_w))
            )

        assert record.state_indices == lookup(controller.rack)
        # The budget separates the workloads: SPECjbb's curves would
        # have enforced other states.
        assert record.state_indices != lookup(old_rack)

    def test_platforms_preserved_across_switch(self, controller):
        controller.switch_workload("Canneal")
        assert tuple(g.spec.name for g in controller.rack.groups) == ("E5-2620", "i5-4460")
        assert sum(g.count for g in controller.rack.groups) == 6

    def test_switch_to_per_group_workloads(self, controller):
        controller.switch_workload(["Streamcluster", "Memcached"])
        record = controller.run_epoch(NOON)
        assert record.throughput > 0.0

    def test_switch_updates_demand_scale(self, controller):
        controller.run_epoch(NOON)
        jbb_demand = controller.rack.demand_at_load(1.0)
        controller.switch_workload("Memcached")
        memcached_demand = controller.rack.demand_at_load(1.0)
        assert memcached_demand < jbb_demand

    def test_incompatible_switch_rejected(self, controller):
        from repro.errors import IncompatibleWorkloadError

        gpu_rack = Rack([("TitanXp", 2)], "Srad_v1")
        trace = synthesize_irradiance(days=1, seed=23)
        pdu = PDU(SolarFarm.sized_for(trace, 1000.0), BatteryBank(), GridSource())
        ctl = GreenHeteroController(gpu_rack, pdu, make_policy("Uniform"))
        with pytest.raises(IncompatibleWorkloadError):
            ctl.switch_workload("SPECjbb")
