"""Serving state: rack hosts, fleets, checkpoint/restore."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import REGISTRY, obs_enabled, set_enabled
from repro.serve.state import CHECKPOINT_NAME, ServeConfig, ServeState

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

    @pytest.mark.parametrize("epoch_s", [float("nan"), float("inf")])
    def test_non_finite_epoch_rejected_at_construction(self, epoch_s):
        with pytest.raises(ConfigurationError, match="finite"):
            ServeConfig(epoch_s=epoch_s)

    @pytest.mark.parametrize("budget", [float("nan"), float("inf"), -1.0])
    def test_bad_shared_grid_rejected(self, budget):
        with pytest.raises(ConfigurationError, match="shared_grid_w"):
            ServeConfig(n_racks=2, shared_grid_w=budget)

    def test_malformed_document_rejected(self):
        with pytest.raises(ConfigurationError):
            ServeConfig.from_dict({"workload": "SPECjbb"})

    @staticmethod
    def document(**changes):
        document = json.loads(json.dumps(ServeConfig(n_racks=2).to_dict()))
        document.update(changes)
        return document

    @pytest.mark.parametrize("value", [2.7, True, "2"])
    def test_n_racks_must_be_an_integer(self, value):
        with pytest.raises(ConfigurationError, match="n_racks"):
            ServeConfig.from_dict(self.document(n_racks=value))

    @pytest.mark.parametrize("value", [2.9, True, "5"])
    def test_platform_count_must_be_an_integer(self, value):
        document = self.document(platforms=[["E5-2620", value], ["i5-4460", 5]])
        with pytest.raises(ConfigurationError, match="platforms.0.count"):
            ServeConfig.from_dict(document)

    @pytest.mark.parametrize("value", [2021.5, False, "2021"])
    def test_seed_must_be_an_integer(self, value):
        with pytest.raises(ConfigurationError, match="seed"):
            ServeConfig.from_dict(self.document(seed=value))

    @pytest.mark.parametrize("value", [8.5, True, "8"])
    def test_shift_horizon_must_be_an_integer(self, value):
        with pytest.raises(ConfigurationError, match="shift_horizon"):
            ServeConfig.from_dict(self.document(shift_horizon=value))

    @pytest.mark.parametrize("value", [True, "2500", [2500.0]])
    def test_shared_grid_must_be_a_number_or_null(self, value):
        with pytest.raises(ConfigurationError, match="shared_grid_w"):
            ServeConfig.from_dict(self.document(shared_grid_w=value))

    @pytest.mark.parametrize("value", [True, "900"])
    def test_epoch_must_be_a_number(self, value):
        with pytest.raises(ConfigurationError, match="epoch_s"):
            ServeConfig.from_dict(self.document(epoch_s=value))

    def test_integral_numbers_accepted(self):
        document = self.document(n_racks=2.0, seed=7.0, shared_grid_w=2500)
        config = ServeConfig.from_dict(document)
        assert (config.n_racks, config.seed, config.shared_grid_w) == (2, 7, 2500.0)
        assert ServeConfig.from_dict(self.document(shared_grid_w=None)).shared_grid_w is None


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
        """The fleet checkpoint is one document; its rename commits it."""
        state = ServeState.build(SMALL, checkpoint_dir=tmp_path / "ckpt")
        state.rack("rack0").step()
        directory = state.checkpoint()
        assert [p.name for p in directory.iterdir()] == [CHECKPOINT_NAME]
        document = json.loads((directory / CHECKPOINT_NAME).read_text())
        assert sorted(document) == [
            "cluster_epochs", "config", "format_version", "racks",
        ]
        assert document["config"] == SMALL.to_dict()
        assert document["racks"]["rack0"] == json.loads(
            json.dumps(state.rack("rack0").sim.state_dict())
        )
        # The database entry is the document save_database writes.
        assert document["racks"]["rack0"]["database"]["entries"]

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
        (ckpt / CHECKPOINT_NAME).write_text("{nope")
        with pytest.raises(ConfigurationError):
            ServeState.build(SMALL, checkpoint_dir=ckpt)

    def test_version_mismatch_rejected(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        state = ServeState.build(SMALL, checkpoint_dir=ckpt)
        state.checkpoint()
        document = json.loads((ckpt / CHECKPOINT_NAME).read_text())
        document["format_version"] = 99
        (ckpt / CHECKPOINT_NAME).write_text(json.dumps(document))
        with pytest.raises(ConfigurationError, match="version"):
            ServeState.build(SMALL, checkpoint_dir=ckpt)

    def test_restored_status_reports_it(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        ServeState.build(SMALL, checkpoint_dir=ckpt).checkpoint()
        restored = ServeState.build(SMALL, checkpoint_dir=ckpt)
        assert restored.status()["restored"] is True

    def test_old_layout_is_rejected_not_booted_cold(self, tmp_path):
        """A directory of the retired per-rack layout must not boot cold:
        that would silently discard the racks' learned state."""
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        (ckpt / "manifest.json").write_text(
            json.dumps(
                {
                    "format_version": 2,
                    "config": SMALL.to_dict(),
                    "racks": ["rack0"],
                    "cluster_epochs": 0,
                }
            )
        )
        (ckpt / "rack0.database.json").write_text("{}")
        (ckpt / "rack0.state.json").write_text("{}")
        with pytest.raises(ConfigurationError, match="per-rack checkpoint layout"):
            ServeState.build(SMALL, checkpoint_dir=ckpt)


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

        edit_json(checkpointed / CHECKPOINT_NAME, drop_config)
        self.rejects(checkpointed, match="config")

    def test_manifest_that_is_a_list(self, checkpointed):
        edit_json(checkpointed / CHECKPOINT_NAME, lambda manifest: [manifest])
        self.rejects(checkpointed)

    def test_nan_shared_grid_in_manifest(self, checkpointed):
        def nan_grid(manifest):
            manifest["config"]["shared_grid_w"] = float("nan")
            return manifest

        edit_json(checkpointed / CHECKPOINT_NAME, nan_grid)
        self.rejects(checkpointed, match="config.shared_grid_w must be finite")

    def test_version_one_checkpoint(self, checkpointed):
        def version_one(manifest):
            manifest["format_version"] = 1
            return manifest

        edit_json(checkpointed / CHECKPOINT_NAME, version_one)
        self.rejects(checkpointed, match="version 1")

    @pytest.mark.parametrize(
        "racks", [["rack0"], {}, {"rack0": {}, "rack1": {}}, "rack0", 3]
    )
    def test_racks_that_do_not_match_the_fleet(self, checkpointed, racks):
        def set_racks(document):
            document["racks"] = racks
            return document

        edit_json(checkpointed / CHECKPOINT_NAME, set_racks)
        self.rejects(checkpointed, match="racks")

    @pytest.mark.parametrize("key", ["racks", "cluster_epochs"])
    def test_document_without_key(self, checkpointed, key):
        def drop(document):
            del document[key]
            return document

        edit_json(checkpointed / CHECKPOINT_NAME, drop)
        self.rejects(checkpointed, match=f"{key} is missing")

    def test_rack_state_that_is_not_an_object(self, checkpointed):
        def replace_rack(document):
            document["racks"]["rack0"] = [1, 2]
            return document

        edit_json(checkpointed / CHECKPOINT_NAME, replace_rack)
        self.rejects(checkpointed, match="racks.rack0 must be an object")

    def edit_rack_state(self, ckpt, edit):
        def apply(document):
            edit(document["racks"]["rack0"])
            return document

        edit_json(ckpt / CHECKPOINT_NAME, apply)

    def test_nan_battery_soc(self, checkpointed):
        self.edit_rack_state(
            checkpointed,
            lambda state: state["battery"].update(soc_wh=float("nan")),
        )
        self.rejects(checkpointed, match="racks.rack0.battery.soc_wh")

    @pytest.mark.parametrize("soc_wh", [-1.0, 12001.0])
    def test_battery_soc_outside_capacity(self, checkpointed, soc_wh):
        self.edit_rack_state(
            checkpointed, lambda state: state["battery"].update(soc_wh=soc_wh)
        )
        self.rejects(checkpointed, match="racks.rack0.battery.soc_wh")

    def test_negative_epoch_index(self, checkpointed):
        self.edit_rack_state(
            checkpointed, lambda state: state.update(epoch_index=-1)
        )
        self.rejects(checkpointed, match="racks.rack0.epoch_index")

    @pytest.mark.parametrize("component", ["monitor", "load_generator"])
    def test_rng_state_for_another_bit_generator(self, checkpointed, component):
        self.edit_rack_state(
            checkpointed,
            lambda state: state[component].update(bit_generator="MT19937"),
        )
        self.rejects(checkpointed, match="PCG64")

    @pytest.mark.parametrize(
        "totals",
        [{"epochs": -1}, {"grid_avoided_wh": float("nan")}, {"grid_avoided_wh": -1.0}],
    )
    def test_shift_totals_out_of_range(self, checkpointed, totals):
        self.edit_rack_state(checkpointed, lambda state: state["shift"].update(totals))
        self.rejects(checkpointed, match="racks.rack0.shift.(epochs|grid_avoided_wh)")

    def test_missing_component(self, checkpointed):
        self.edit_rack_state(checkpointed, lambda state: state.pop("selector"))
        self.rejects(checkpointed, match="components")
