"""Split-point resume: checkpoint after k epochs, restore, continue.

For every split k, running k epochs, checkpointing through JSON text,
restoring into a freshly assembled stack and continuing must reproduce
the uninterrupted run on every epoch (``record_to_dict`` equality) —
for a bare :class:`Simulation`, a served rack, a served rack with a
shifted job, and a coordinated two-rack fleet.
"""

import dataclasses
import json

import pytest

from repro.core.policies import make_policy
from repro.errors import ConfigurationError
from repro.serve.state import ServeConfig, ServeState
from repro.servers.rack import Rack
from repro.sim.engine import Simulation
from repro.sim.schedule import WorkloadPhase, WorkloadSchedule
from repro.sim.telemetry import record_to_dict

SEED = 2021
REFERENCE_RACK = (("E5-2620", 5), ("i5-4460", 5))
N_EPOCHS = 96
SPLITS = (1, 5, 30, 70, 95)
#: k=30 is where the selector's grid-mode hysteresis matters.
SERVE_SPLITS = (5, 30, 70)


def through_json(state):
    return json.loads(json.dumps(state))


def documents(records):
    return [record_to_dict(record) for record in records]


# ----------------------------------------------------------------------
# Simulation
# ----------------------------------------------------------------------
def build_sim() -> Simulation:
    return Simulation.assemble(
        policy=make_policy("GreenHetero"),
        rack=Rack(list(REFERENCE_RACK), "SPECjbb"),
        seed=SEED,
    )


@pytest.fixture(scope="module")
def uninterrupted_sim():
    sim = build_sim()
    sim.run()
    assert len(sim.log) == N_EPOCHS
    return documents(sim.log), through_json(sim.state_dict())


class TestSimulationResume:
    @pytest.mark.parametrize("k", SPLITS)
    def test_restored_run_continues_bit_for_bit(self, uninterrupted_sim, k):
        want, want_final_state = uninterrupted_sim
        first = build_sim()
        for _ in range(k):
            first.step()
        state = through_json(first.state_dict())

        second = build_sim()
        second.load_state_dict(state)
        second.run()

        assert documents(first.log) + documents(second.log) == want
        # Including the battery's lifetime counters and both RNGs.
        assert through_json(second.state_dict()) == want_final_state

    @pytest.mark.parametrize("k", (20, 50))
    def test_workload_schedule_is_replayed(self, k):
        # Memcached overnight, SPECjbb from 08:00 (epoch 32 of the day):
        # the first epoch switches away from the assembled workload and
        # rebuilds the load generator, whose draws a restore must keep.
        def build():
            sim = build_sim()
            sim.workload_schedule = WorkloadSchedule(
                [WorkloadPhase(0.0, "Memcached"), WorkloadPhase(8.0, "SPECjbb")]
            )
            return sim

        full = build()
        full.run()
        first = build()
        for _ in range(k):
            first.step()
        second = build()
        second.load_state_dict(through_json(first.state_dict()))
        second.run()
        assert documents(first.log) + documents(second.log) == documents(full.log)

    def test_battery_cycles_survive_a_restore(self, uninterrupted_sim):
        first = build_sim()
        for _ in range(N_EPOCHS):
            first.step()
        second = build_sim()
        second.load_state_dict(through_json(first.state_dict()))
        battery = second.controller.pdu.battery
        assert battery.equivalent_cycles > 0.0
        assert battery.equivalent_cycles == first.controller.pdu.battery.equivalent_cycles


# ----------------------------------------------------------------------
# Serve: single rack, shift, coordinated
# ----------------------------------------------------------------------
def shift_job(clock_s: float) -> dict:
    return {
        "job_id": "j1",
        "energy_wh": 200.0,
        "power_w": 400.0,
        "earliest_start_s": clock_s,
        "deadline_s": clock_s + 8 * 3600.0,
        "value": 1.0,
    }


def serve_run(config, tmp_path, split, *, cluster=False, submit=False):
    """Records per rack, shift logs and final queues of ``N_EPOCHS``
    epochs; with ``split`` set, the fleet is checkpointed after that
    many epochs and the rest runs in a fleet restored from it."""
    state = ServeState.build(config, checkpoint_dir=tmp_path / "ckpt")
    if submit:
        host = state.rack("rack0")
        host.submit(shift_job(host.clock_s))
    records = {name: [] for name in state.rack_names()}
    shift_records = {name: [] for name in state.rack_names()}

    def collect(fleet):
        for name, host in fleet.racks.items():
            records[name].extend(documents(host.sim.log))
            shift_records[name].extend(
                dataclasses.asdict(r) for r in host.shift.log
            )

    for epoch in range(N_EPOCHS):
        if epoch == split:
            state.checkpoint()
            collect(state)
            state = ServeState.build(checkpoint_dir=tmp_path / "ckpt")
            assert state.restored
        if cluster:
            state.step_cluster()
        else:
            state.rack("rack0").step()
    collect(state)
    queues = {
        name: (host.shift.queue.state_dict(), host.queue_status()["jobs"])
        for name, host in state.racks.items()
    }
    return records, shift_records, queues


SINGLE = ServeConfig(seed=SEED)
SHIFT = ServeConfig(seed=SEED, workload="Streamcluster")
COORDINATED = ServeConfig(seed=SEED, n_racks=2, shared_grid_w=2000.0)


@pytest.fixture(scope="module")
def uninterrupted_serve(tmp_path_factory):
    runs = {}
    for name, config, kwargs in (
        ("single", SINGLE, {}),
        ("shift", SHIFT, {"submit": True}),
        ("coordinated", COORDINATED, {"cluster": True}),
    ):
        runs[name] = serve_run(
            config, tmp_path_factory.mktemp(name), None, **kwargs
        )
    return runs


class TestServeResume:
    @pytest.mark.parametrize("k", SERVE_SPLITS)
    def test_single_rack(self, uninterrupted_serve, tmp_path, k):
        want_records, _, _ = uninterrupted_serve["single"]
        records, _, _ = serve_run(SINGLE, tmp_path, k)
        assert len(records["rack0"]) == N_EPOCHS
        assert records == want_records

    @pytest.mark.parametrize("k", SERVE_SPLITS)
    def test_shift_queue_and_log(self, uninterrupted_serve, tmp_path, k):
        want = uninterrupted_serve["shift"]
        got = serve_run(SHIFT, tmp_path, k, submit=True)
        records, shift_records, queues = got
        assert records == want[0]
        assert shift_records == want[1]
        assert queues == want[2]
        # The job ran to completion on both sides of the comparison.
        assert queues["rack0"][1]["done"] == 1

    @pytest.mark.parametrize("k", SERVE_SPLITS)
    def test_coordinated_fleet(self, uninterrupted_serve, tmp_path, k):
        want_records, _, _ = uninterrupted_serve["coordinated"]
        records, _, _ = serve_run(COORDINATED, tmp_path, k, cluster=True)
        assert set(records) == {"rack0", "rack1"}
        assert records == want_records


# ----------------------------------------------------------------------
# A rejected restore leaves the simulation as it was
# ----------------------------------------------------------------------
class TestRestoreAllOrNothing:
    def test_served_rack_keeps_its_state(self, tmp_path):
        state = ServeState.build(SHIFT, checkpoint_dir=tmp_path / "ckpt")
        host = state.rack("rack0")
        host.submit(shift_job(host.clock_s))
        for _ in range(3):
            host.step()
        before = through_json(host.sim.state_dict())
        bad = through_json(before)
        # The battery is installed before the shift runtime rejects its
        # flag, so a piecemeal restore would keep the 1 Wh.
        bad["battery"]["soc_wh"] = 1.0
        bad["shift"]["activated"] = "x"
        with pytest.raises(ConfigurationError, match="^shift.activated "):
            host.sim.load_state_dict(bad)
        assert through_json(host.sim.state_dict()) == before

    def test_schedule_replay_is_rolled_back(self, uninterrupted_sim):
        # The capture is in the Memcached phase, so the replay switches
        # the fresh SPECjbb rack; the load generator, rebuilt by that
        # switch, then rejects its RNG state.
        schedule = WorkloadSchedule(
            [WorkloadPhase(0.0, "Memcached"), WorkloadPhase(8.0, "SPECjbb")]
        )
        first = build_sim()
        first.workload_schedule = schedule
        for _ in range(20):
            first.step()
        bad = through_json(first.state_dict())
        bad["load_generator"]["state"]["inc"] = -1
        sim = build_sim()
        sim.workload_schedule = schedule
        rack, generator = sim.controller.rack, sim.load_generator
        before = through_json(sim.state_dict())
        with pytest.raises(ConfigurationError, match="^load_generator."):
            sim.load_state_dict(bad)
        assert sim.controller.rack is rack and sim.load_generator is generator
        assert through_json(sim.state_dict()) == before
        sim.workload_schedule = None
        sim.run()
        assert documents(sim.log) == uninterrupted_sim[0]
