"""Serving state: rack hosts, fleets, checkpoint/restore."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import REGISTRY, obs_enabled, set_enabled
from repro.serve.state import MANIFEST_NAME, ServeConfig, ServeState

#: Small rack so fleet assembly (with training runs) stays fast.
SMALL = ServeConfig(platforms=(("E5-2620", 2), ("i5-4460", 2)), n_racks=1)


@pytest.fixture
def state():
    return ServeState.build(SMALL)


@pytest.fixture
def host(state):
    return state.rack("rack0")


class TestServeConfig:
    def test_dict_round_trip(self):
        config = ServeConfig(n_racks=3, shared_grid_w=2500.0, seed=7)
        assert ServeConfig.from_dict(config.to_dict()) == config

    def test_json_round_trip(self):
        config = ServeConfig()
        document = json.loads(json.dumps(config.to_dict()))
        assert ServeConfig.from_dict(document) == config

    def test_zero_racks_rejected(self):
        with pytest.raises(ConfigurationError):
            ServeConfig(n_racks=0)

    def test_bad_epoch_rejected(self):
        with pytest.raises(ConfigurationError):
            ServeConfig(epoch_s=0.0)

    @pytest.mark.parametrize("budget", [float("nan"), float("inf"), -1.0])
    def test_bad_shared_grid_rejected(self, budget):
        with pytest.raises(ConfigurationError, match="shared grid"):
            ServeConfig(n_racks=2, shared_grid_w=budget)

    def test_malformed_document_rejected(self):
        with pytest.raises(ConfigurationError):
            ServeConfig.from_dict({"workload": "SPECjbb"})


class TestRackHost:
    def test_allocation_document(self, host):
        result = host.allocate(500.0)
        assert result["rack"] == "rack0"
        assert result["budget_w"] == 500.0
        assert len(result["ratios"]) == 2
        assert result["group_budgets_w"] == [r * 500.0 for r in result["ratios"]]
        assert sum(result["ratios"]) <= 1.0 + 1e-9

    def test_allocate_defaults_to_planned_budget(self, host):
        result = host.allocate()
        assert result["budget_w"] == pytest.approx(host.plan_budget_w())

    def test_negative_budget_rejected(self, host):
        with pytest.raises(ConfigurationError):
            host.allocate(-1.0)

    @pytest.mark.parametrize("budget", [float("nan"), float("inf")])
    def test_non_finite_budget_rejected(self, host, budget):
        with pytest.raises(ConfigurationError, match="finite"):
            host.allocate(budget)

    def test_forecast_names_a_case(self, host):
        forecast = host.forecast()
        assert forecast["case"] in {"A", "B", "C"}
        assert forecast["demand_w"] >= 0.0

    def test_forecast_is_one_source_decision(self, host):
        """The reply equals the scheduler's forecast plus a source decision,
        and opens one ``scheduler.forecast`` span."""
        twin = ServeState.build(SMALL).rack("rack0")
        renewable_w, demand_w = twin.controller.scheduler.forecast()
        decision = twin._source_decision()
        spans = REGISTRY.get("repro_span_seconds")
        enabled = obs_enabled()
        set_enabled(True)
        try:
            before = spans.labels("scheduler.forecast").count
            forecast = host.forecast()
            opened = spans.labels("scheduler.forecast").count - before
        finally:
            set_enabled(enabled)
        assert forecast == {
            "rack": "rack0",
            "renewable_w": renewable_w,
            "demand_w": demand_w,
            "case": decision.case.value,
            "budget_w": decision.rack_budget_w,
        }
        assert opened == 1

    def test_observe_feeds_predictors(self, host):
        before = host.forecast()
        for _ in range(6):
            after = host.observe(renewable_w=900.0, demand_w=300.0)
        assert after["renewable_w"] > before["renewable_w"]

    def test_observe_rejects_negative(self, host):
        with pytest.raises(ConfigurationError):
            host.observe(renewable_w=-1.0, demand_w=100.0)

    def test_step_advances_clock_and_log(self, host):
        t0 = host.clock_s
        record = host.step()
        assert record.time_s == t0
        assert host.sim.epoch_index == 1
        assert host.clock_s == t0 + host.sim.clock.epoch_s
        assert len(host.sim.log) == 1

    def test_status_document(self, host):
        host.step()
        status = host.status()
        assert status["epochs"] == 1
        assert status["database_pairs"] == 2
        assert status["solver_cache"]["misses"] >= 1
        json.dumps(status)  # dashboard-ready


class TestFleet:
    def test_unknown_rack_rejected(self, state):
        with pytest.raises(ConfigurationError, match="unknown rack"):
            state.rack("rack9")

    def test_racks_are_independently_seeded(self):
        fleet = ServeState.build(
            ServeConfig(platforms=SMALL.platforms, n_racks=2)
        )
        a = fleet.rack("rack0").controller
        b = fleet.rack("rack1").controller
        assert a is not b
        assert a.policy is not b.policy  # separate solver caches

    def test_cluster_step_needs_shared_grid(self, state):
        with pytest.raises(ConfigurationError, match="shared grid"):
            state.step_cluster()

    def test_cluster_step_advances_every_rack(self):
        fleet = ServeState.build(
            ServeConfig(platforms=SMALL.platforms, n_racks=2, shared_grid_w=1500.0)
        )
        records = fleet.step_cluster()
        assert len(records) == 2
        assert fleet.cluster_epochs == 1
        assert all(host.sim.epoch_index == 1 for host in fleet.racks.values())

    def test_cluster_restores_provisioned_budgets(self):
        fleet = ServeState.build(
            ServeConfig(platforms=SMALL.platforms, n_racks=2, shared_grid_w=1500.0)
        )
        provisioned = [
            host.controller.pdu.grid.budget_w for host in fleet.racks.values()
        ]
        fleet.step_cluster()
        assert [
            host.controller.pdu.grid.budget_w for host in fleet.racks.values()
        ] == provisioned


class TestCheckpoint:
    def test_checkpoint_requires_directory(self, state):
        with pytest.raises(ConfigurationError):
            state.checkpoint()

    def test_manifest_written_last_means_complete(self, tmp_path):
        state = ServeState.build(SMALL, checkpoint_dir=tmp_path / "ckpt")
        directory = state.checkpoint()
        names = {p.name for p in directory.iterdir()}
        assert names == {MANIFEST_NAME, "rack0.database.json", "rack0.state.json"}

    def test_restore_round_trip_is_bit_identical(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        state = ServeState.build(SMALL, checkpoint_dir=ckpt)
        for _ in range(3):
            state.rack("rack0").step()
        state.checkpoint()
        host = state.rack("rack0")
        want_db = json.dumps(
            host.controller.scheduler.database.state_dict(), sort_keys=True
        )
        want_state = json.dumps(host.sim.state_dict(), sort_keys=True)

        restored = ServeState.build(SMALL, checkpoint_dir=ckpt)
        assert restored.restored
        again = restored.rack("rack0")
        assert (
            json.dumps(
                again.controller.scheduler.database.state_dict(), sort_keys=True
            )
            == want_db
        )
        assert json.dumps(again.sim.state_dict(), sort_keys=True) == want_state
        assert again.sim.epoch_index == 3

    def test_manifest_config_replaces_callers(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        ServeState.build(SMALL, checkpoint_dir=ckpt).checkpoint()
        other = ServeConfig(
            platforms=SMALL.platforms, n_racks=1, seed=SMALL.seed + 40
        )
        restored = ServeState.build(other, checkpoint_dir=ckpt)
        assert restored.config == SMALL

    def test_missing_manifest_means_cold_boot(self, tmp_path):
        state = ServeState.build(SMALL, checkpoint_dir=tmp_path / "empty")
        assert not state.restored

    def test_corrupt_manifest_rejected(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        (ckpt / MANIFEST_NAME).write_text("{nope")
        with pytest.raises(ConfigurationError):
            ServeState.build(SMALL, checkpoint_dir=ckpt)

    def test_version_mismatch_rejected(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        state = ServeState.build(SMALL, checkpoint_dir=ckpt)
        state.checkpoint()
        manifest = json.loads((ckpt / MANIFEST_NAME).read_text())
        manifest["format_version"] = 99
        (ckpt / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ConfigurationError, match="version"):
            ServeState.build(SMALL, checkpoint_dir=ckpt)

    def test_restored_status_reports_it(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        ServeState.build(SMALL, checkpoint_dir=ckpt).checkpoint()
        restored = ServeState.build(SMALL, checkpoint_dir=ckpt)
        assert restored.status()["restored"] is True


def edit_json(path, edit):
    document = json.loads(path.read_text())
    document = edit(document)
    path.write_text(json.dumps(document))


@pytest.fixture
def checkpointed(tmp_path):
    """A checkpoint directory of SMALL after two epochs."""
    ckpt = tmp_path / "ckpt"
    state = ServeState.build(SMALL, checkpoint_dir=ckpt)
    state.rack("rack0").step()
    state.rack("rack0").step()
    state.checkpoint()
    return ckpt


class TestCheckpointBoundary:
    """Bad checkpoint input raises ConfigurationError, never a bare error."""

    def rejects(self, ckpt, match=None):
        with pytest.raises(ConfigurationError, match=match):
            ServeState.build(SMALL, checkpoint_dir=ckpt)

    def test_manifest_without_config(self, checkpointed):
        def drop_config(manifest):
            del manifest["config"]
            return manifest

        edit_json(checkpointed / MANIFEST_NAME, drop_config)
        self.rejects(checkpointed, match="config")

    def test_manifest_that_is_a_list(self, checkpointed):
        edit_json(checkpointed / MANIFEST_NAME, lambda manifest: [manifest])
        self.rejects(checkpointed)

    def test_nan_shared_grid_in_manifest(self, checkpointed):
        def nan_grid(manifest):
            manifest["config"]["shared_grid_w"] = float("nan")
            return manifest

        edit_json(checkpointed / MANIFEST_NAME, nan_grid)
        self.rejects(checkpointed, match="shared grid")

    def test_version_one_checkpoint(self, checkpointed):
        def version_one(manifest):
            manifest["format_version"] = 1
            return manifest

        edit_json(checkpointed / MANIFEST_NAME, version_one)
        self.rejects(checkpointed, match="version 1")

    def edit_rack_state(self, ckpt, edit):
        def apply(state):
            edit(state)
            return state

        edit_json(ckpt / "rack0.state.json", apply)

    def test_nan_battery_soc(self, checkpointed):
        self.edit_rack_state(
            checkpointed,
            lambda state: state["battery"].update(soc_wh=float("nan")),
        )
        self.rejects(checkpointed, match="SoC")

    @pytest.mark.parametrize("soc_wh", [-1.0, 12001.0])
    def test_battery_soc_outside_capacity(self, checkpointed, soc_wh):
        self.edit_rack_state(
            checkpointed, lambda state: state["battery"].update(soc_wh=soc_wh)
        )
        self.rejects(checkpointed, match="SoC")

    def test_negative_epoch_index(self, checkpointed):
        self.edit_rack_state(
            checkpointed, lambda state: state.update(epoch_index=-1)
        )
        self.rejects(checkpointed, match="epoch index")

    @pytest.mark.parametrize("component", ["monitor", "load_generator"])
    def test_rng_state_for_another_bit_generator(self, checkpointed, component):
        self.edit_rack_state(
            checkpointed,
            lambda state: state[component].update(bit_generator="MT19937"),
        )
        self.rejects(checkpointed, match="PCG64")

    def test_missing_component(self, checkpointed):
        self.edit_rack_state(checkpointed, lambda state: state.pop("selector"))
        self.rejects(checkpointed, match="components")
