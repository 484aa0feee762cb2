"""Telemetry log and regime masks."""

import numpy as np
import pytest

from repro.core.controller import EpochRecord
from repro.core.sources import PowerCase
from repro.errors import SimulationError
from repro.power.sources import ChargeSource
from repro.sim.telemetry import TelemetryLog


def record(t=0.0, case=PowerCase.A, budget=1000.0, demand=1000.0, thr=100.0,
           epu=0.9, par=0.6, b2l=0.0, g2l=0.0, charge=0.0,
           charge_source=ChargeSource.NONE, soc=12000.0):
    return EpochRecord(
        time_s=t, case=case, budget_w=budget, demand_w=demand,
        renewable_w=500.0, load_fraction=1.0, ratios=(par, 1 - par),
        group_budgets_w=(par * budget, (1 - par) * budget),
        state_indices=(5, 5), throughput=thr, epu=epu,
        useful_power_w=epu * budget, renewable_to_load_w=0.0,
        battery_to_load_w=b2l, grid_to_load_w=g2l, charge_w=charge,
        charge_source=charge_source, battery_soc_wh=soc, curtailed_w=0.0,
        trained_pairs=(), brownout=False,
    )


@pytest.fixture
def log():
    out = TelemetryLog()
    out.append(record(t=0.0, case=PowerCase.C, budget=800.0, demand=1000.0, thr=50.0, epu=0.5, b2l=800.0))
    out.append(record(t=900.0, case=PowerCase.B, budget=1000.0, demand=1000.0, thr=90.0, epu=0.8, g2l=400.0, charge=100.0, charge_source=ChargeSource.GRID))
    out.append(record(t=1800.0, case=PowerCase.A, budget=1000.0, demand=1000.0, thr=100.0, epu=0.95))
    return out


class TestAppend:
    def test_ordering_enforced(self, log):
        with pytest.raises(SimulationError):
            log.append(record(t=900.0))

    def test_len_iter_getitem(self, log):
        assert len(log) == 3
        assert len(list(log)) == 3
        assert log[0].case is PowerCase.C
        assert len(log.records) == 3

    def test_empty_log_raises(self):
        with pytest.raises(SimulationError):
            TelemetryLog().throughputs


class TestSeries:
    def test_series_by_field(self, log):
        assert list(log.series("budget_w")) == [800.0, 1000.0, 1000.0]

    def test_named_series(self, log):
        assert list(log.throughputs) == [50.0, 90.0, 100.0]
        assert list(log.epus) == [0.5, 0.8, 0.95]
        assert list(log.pars) == [0.6, 0.6, 0.6]
        assert list(log.times_s) == [0.0, 900.0, 1800.0]

    def test_cases(self, log):
        assert log.cases == [PowerCase.C, PowerCase.B, PowerCase.A]


class TestMasks:
    def test_insufficient_is_not_case_a(self, log):
        assert list(log.insufficient_mask()) == [True, True, False]

    def test_budget_short_mask(self, log):
        assert list(log.budget_short_mask()) == [True, False, False]

    def test_case_mask(self, log):
        assert list(log.case_mask(PowerCase.B, PowerCase.C)) == [True, True, False]


class TestAggregates:
    def test_mean_throughput(self, log):
        assert log.mean_throughput() == pytest.approx(80.0)

    def test_masked_mean(self, log):
        mask = log.insufficient_mask()
        assert log.mean_throughput(mask) == pytest.approx(70.0)

    def test_empty_mask_is_zero(self, log):
        mask = np.zeros(3, dtype=bool)
        assert log.mean_epu(mask) == 0.0

    def test_bad_mask_shape_rejected(self, log):
        with pytest.raises(SimulationError):
            log.mean_epu(np.ones(5, dtype=bool))

    def test_grid_energy_includes_charging(self, log):
        # 400 W load + 100 W charging for one 900 s epoch.
        assert log.grid_energy_wh(900.0) == pytest.approx(500.0 * 900.0 / 3600.0)

    def test_discharge_hours(self, log):
        assert log.discharge_hours(900.0) == pytest.approx(0.25)

    def test_mean_par(self, log):
        assert log.mean_par() == pytest.approx(0.6)


class TestCsvExport:
    def test_round_trippable_csv(self, log, tmp_path):
        import csv as csv_mod

        path = tmp_path / "telemetry.csv"
        log.to_csv(path)
        with open(path) as f:
            rows = list(csv_mod.DictReader(f))
        assert len(rows) == 3
        assert rows[0]["case"] == "C"
        assert float(rows[0]["budget_w"]) == 800.0
        assert rows[1]["charge_source"] == "grid"
        assert {"par_0", "par_1"} <= set(rows[0])

    def test_empty_log_rejected(self, tmp_path):
        from repro.errors import SimulationError
        from repro.sim.telemetry import TelemetryLog

        with pytest.raises(SimulationError):
            TelemetryLog().to_csv(tmp_path / "x.csv")


class TestJsonlExport:
    def test_one_object_per_epoch(self, log, tmp_path):
        import json

        path = tmp_path / "telemetry.jsonl"
        log.to_jsonl(path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 3
        assert lines[0]["case"] == "C"
        assert lines[0]["budget_w"] == 800.0
        assert lines[1]["charge_source"] == "grid"
        assert lines[0]["ratios"] == [0.6, 0.4]

    def test_extra_keys_merged_into_every_line(self, log, tmp_path):
        import json

        path = tmp_path / "telemetry.jsonl"
        log.to_jsonl(path, extra={"rack": "rack0", "policy": "GreenHetero"})
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert all(line["rack"] == "rack0" for line in lines)
        assert all(line["policy"] == "GreenHetero" for line in lines)

    def test_matches_record_to_dict(self, log, tmp_path):
        import json

        from repro.sim.telemetry import record_to_dict

        path = tmp_path / "telemetry.jsonl"
        log.to_jsonl(path)
        first = json.loads(path.read_text().splitlines()[0])
        assert first == record_to_dict(list(log)[0])

    def test_empty_log_rejected(self, tmp_path):
        from repro.errors import SimulationError
        from repro.sim.telemetry import TelemetryLog

        with pytest.raises(SimulationError):
            TelemetryLog().to_jsonl(tmp_path / "x.jsonl")


class TestRecordToDict:
    def test_json_ready(self, log):
        import json

        from repro.sim.telemetry import record_to_dict

        data = record_to_dict(list(log)[0])
        json.dumps(data)  # everything serializable
        assert data["case"] == "C"
        assert data["trained_pairs"] == []
        assert isinstance(data["ratios"], list)

    def test_powered_counts_listified(self):
        from dataclasses import replace

        from repro.sim.telemetry import record_to_dict

        data = record_to_dict(replace(record(), powered_counts=(3, 5)))
        assert data["powered_counts"] == [3, 5]

    def test_matches_an_asdict_reference(self):
        import dataclasses
        import json
        from dataclasses import replace

        from repro.core.policies import make_policy
        from repro.servers.rack import Rack
        from repro.sim.clock import SimClock
        from repro.sim.engine import Simulation
        from repro.sim.telemetry import record_to_dict
        from repro.traces.nrel import Weather
        from repro.units import SECONDS_PER_DAY

        def reference(rec):
            data = dataclasses.asdict(rec)
            data["case"] = rec.case.value
            data["charge_source"] = rec.charge_source.value
            data["ratios"] = list(rec.ratios)
            data["group_budgets_w"] = list(rec.group_budgets_w)
            data["state_indices"] = list(rec.state_indices)
            data["trained_pairs"] = [list(pair) for pair in rec.trained_pairs]
            if rec.powered_counts is not None:
                data["powered_counts"] = list(rec.powered_counts)
            return data

        sim = Simulation.assemble(
            policy=make_policy("GreenHetero"),
            rack=Rack([("E5-2620", 5), ("i5-4460", 5)], "SPECjbb"),
            weather=Weather.HIGH,
            clock=SimClock(start_s=SECONDS_PER_DAY, duration_s=0.25 * SECONDS_PER_DAY),
            seed=2021,
        )
        lap = list(sim.run())
        assert any(rec.trained_pairs for rec in lap)
        records = [
            *lap,
            record(),  # powered_counts None
            replace(record(), powered_counts=(3, 5)),
            replace(record(), trained_pairs=(("E5-2620", "SPECjbb"),)),
            replace(record(), brownout=True, projected_perf=88.0),
        ]
        for rec in records:
            data, expected = record_to_dict(rec), reference(rec)
            assert data == expected
            assert list(data) == list(expected)
            assert json.dumps(data) == json.dumps(expected)
