"""The Enforcer's controllers: SPC state mapping and PSC flow execution."""

import pytest

from repro.core.enforcer import PowerSourceController, ServerPowerController
from repro.core.sources import PowerCase, SourceDecision
from repro.errors import PowerError
from repro.obs.metrics import REGISTRY
from repro.power.battery import BatteryBank
from repro.power.grid import GridSource
from repro.power.pdu import PDU
from repro.power.solar import SolarFarm
from repro.servers.power_model import ResponseCurve
from repro.servers.rack import Rack
from repro.traces.nrel import Weather, synthesize_irradiance


@pytest.fixture
def rack():
    return Rack([("E5-2620", 2), ("i5-4460", 3)], "SPECjbb")


class TestSPC:
    def test_splits_group_budget_evenly(self, rack):
        states = ServerPowerController.apply(rack, (260.0, 210.0))
        assert states == tuple(
            rack.curve(g).state_for_budget(share)
            for g, share in enumerate((130.0, 70.0))
        )

    def test_zero_budget_turns_group_off(self, rack):
        states = ServerPowerController.apply(rack, (0.0, 210.0))
        assert states[0].label == "off"
        assert states[0].index == 0

    def test_below_min_active_sleeps(self, rack):
        # 2 E5-2620 at 40 W each cannot run: SLEEP state.
        states = ServerPowerController.apply(rack, (80.0, 210.0))
        assert states[0].label == "sleep"
        assert states[0].index == 1

    def test_negative_budget_rejected(self, rack):
        with pytest.raises(PowerError):
            ServerPowerController.apply(rack, (-10.0, 210.0))

    def test_length_mismatch_rejected(self, rack):
        with pytest.raises(PowerError):
            ServerPowerController.apply(rack, (100.0,))

    @pytest.mark.parametrize("powered", [None, (2, 3), (1, 2), (0, 3), (0, 0)])
    def test_group_state_equals_per_server_lookup(self, rack, monkeypatch, powered):
        budgets = (260.0, 150.0)
        counts = [g.count for g in rack.groups] if powered is None else powered
        want = tuple(
            rack.curve(g).state_for_budget(budget / k if k else 0.0)
            for g, (budget, k) in enumerate(zip(budgets, counts))
        )
        lookups = []
        lookup = ResponseCurve.state_for_budget
        monkeypatch.setattr(
            ResponseCurve, "state_for_budget",
            lambda curve, budget: (lookups.append(budget), lookup(curve, budget))[1],
        )
        states = ServerPowerController.apply(rack, budgets, powered)
        assert states == want
        # Exactly one lookup per group, partly powered groups included.
        assert len(lookups) == len(rack.groups)

    def test_enforced_draw_fits_budget(self, rack):
        budgets = (260.0, 210.0)
        states = ServerPowerController.apply(rack, budgets)
        for g, (group, budget) in enumerate(zip(rack.groups, budgets)):
            draw = rack.curve(g).sample_at_state(states[g]).power_w
            assert group.count * draw <= budget + 1e-6


class TestPSC:
    def test_executes_decision_against_pdu(self):
        trace = synthesize_irradiance(days=1, seed=8)
        pdu = PDU(
            SolarFarm.sized_for(trace, 1500.0),
            BatteryBank(),
            GridSource(budget_w=1000.0),
        )
        decision = SourceDecision(
            case=PowerCase.C,
            rack_budget_w=800.0,
            use_battery=True,
            grid_charges_battery=False,
            predicted_renewable_w=0.0,
            predicted_demand_w=800.0,
        )
        flows = PowerSourceController(pdu).apply(decision, actual_load_w=750.0, time_s=0.0, duration_s=900.0)
        assert flows.delivered_w == pytest.approx(750.0)
        assert flows.breakdown.battery_to_load_w == pytest.approx(750.0)

    def test_battery_disabled_routes_to_grid(self):
        trace = synthesize_irradiance(days=1, seed=8)
        pdu = PDU(
            SolarFarm.sized_for(trace, 1500.0),
            BatteryBank(),
            GridSource(budget_w=1000.0),
        )
        decision = SourceDecision(
            case=PowerCase.C,
            rack_budget_w=800.0,
            use_battery=False,
            grid_charges_battery=True,
            predicted_renewable_w=0.0,
            predicted_demand_w=800.0,
        )
        flows = PowerSourceController(pdu).apply(decision, 750.0, 0.0, 900.0)
        assert flows.breakdown.battery_to_load_w == 0.0
        assert flows.breakdown.grid_to_load_w == pytest.approx(750.0)

    def test_one_call_serves_every_interval(self):
        trace = synthesize_irradiance(days=1, seed=8)

        def pdu():
            return PDU(
                SolarFarm.sized_for(trace, 1500.0), BatteryBank(), GridSource(budget_w=1000.0)
            )

        decision = SourceDecision(
            case=PowerCase.B,
            rack_budget_w=900.0,
            use_battery=True,
            grid_charges_battery=False,
            predicted_renewable_w=600.0,
            predicted_demand_w=900.0,
        )
        calls = REGISTRY.get("repro_psc_calls_total").labels()
        before = calls.value
        epoch_pdu, single_pdu = pdu(), pdu()
        flows = PowerSourceController(epoch_pdu).apply(
            decision, 900.0, 9 * 3600.0, 150.0, intervals=6
        )
        assert calls.value == before + 1
        singles = [
            single_pdu.supply(900.0, 9 * 3600.0 + i * 150.0, 150.0) for i in range(6)
        ]
        assert flows.interval_delivered_w == tuple(s.delivered_w for s in singles)
        assert flows.battery_soc_wh == singles[-1].battery_soc_wh
