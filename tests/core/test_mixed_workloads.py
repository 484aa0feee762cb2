"""Mixed-workload (co-location) racks.

The paper runs one workload per experiment, but the rack/group plumbing
generalises: each group may run its own workload, with the database
keyed by (platform, workload) pairs.  These tests pin that behaviour:
batch groups saturate independently, interactive balancing stays within
each service's groups, and the solver optimises across the mixed fits.
"""

import pytest

from repro.core.controller import GreenHeteroController
from repro.core.enforcer import ServerPowerController
from repro.core.policies import make_policy
from repro.core.monitor import Monitor
from repro.power.battery import BatteryBank
from repro.power.grid import GridSource
from repro.power.pdu import PDU
from repro.power.solar import SolarFarm
from repro.servers.rack import Rack
from repro.traces.nrel import synthesize_irradiance

NOON = 12 * 3600.0


def make_controller(groups, workloads, policy="GreenHetero", grid_w=900.0, seed=17):
    rack = Rack(groups, workloads)
    trace = synthesize_irradiance(days=1, seed=seed)
    pdu = PDU(
        SolarFarm.sized_for(trace, 1.3 * rack.max_draw_w),
        BatteryBank(),
        GridSource(budget_w=grid_w),
    )
    return GreenHeteroController(
        rack=rack, pdu=pdu, policy=make_policy(policy), monitor=Monitor(seed=seed)
    )


class TestMixedBatch:
    def test_two_batch_workloads(self):
        ctl = make_controller(
            [("E5-2620", 3), ("i5-4460", 3)], ["Streamcluster", "Canneal"]
        )
        record = ctl.run_epoch(NOON)
        assert record.throughput > 0.0
        assert set(record.trained_pairs) == {
            ("E5-2620", "Streamcluster"),
            ("i5-4460", "Canneal"),
        }

    def test_database_keys_per_pair(self):
        ctl = make_controller(
            [("E5-2620", 3), ("i5-4460", 3)], ["Streamcluster", "Canneal"]
        )
        ctl.run_epoch(NOON)
        db = ctl.scheduler.database
        assert ("E5-2620", "Streamcluster") in db
        assert ("i5-4460", "Canneal") in db
        assert ("E5-2620", "Canneal") not in db


class TestMixedInteractiveBatch:
    def test_batch_group_saturates_interactive_follows_load(self):
        ctl = make_controller(
            [("E5-2620", 3), ("i5-4460", 3)], ["Streamcluster", "Memcached"]
        )
        states = ServerPowerController.apply(ctl.rack, (3 * 170.0, 3 * 70.0))
        high = ctl._rack_throughput(states, load_fraction=1.0)
        low = ctl._rack_throughput(states, load_fraction=0.1)
        # Batch share is identical; only the interactive share shrinks.
        assert low < high
        batch_only = ctl.rack.curve(0).max_throughput * 3
        assert low >= batch_only * 0.8

    def test_interactive_balancing_stays_within_service(self):
        # Memcached load must not be "absorbed" by the streamcluster
        # group: power off the memcached servers and its throughput
        # must go to zero even though the batch group runs.
        ctl = make_controller(
            [("E5-2620", 3), ("i5-4460", 3)], ["Streamcluster", "Memcached"]
        )
        states = [
            ctl.rack.curve(0).states.active_states[-1],
            ctl.rack.curve(0).states[0],  # OFF
        ]
        samples = ctl._samples_for_states(states, load_fraction=0.5)
        assert samples[0].throughput > 0.0
        assert samples[1].throughput == 0.0

    def test_full_epoch_runs(self):
        ctl = make_controller(
            [("E5-2620", 3), ("i5-4460", 3)], ["Mcf", "SPECjbb"]
        )
        record = ctl.run_epoch(NOON, load_fraction=0.7)
        assert record.throughput > 0.0
        assert 0.0 <= record.epu <= 1.0

    def test_greenhetero_beats_uniform_on_mixed_rack(self):
        results = {}
        for policy in ("Uniform", "GreenHetero"):
            ctl = make_controller(
                [("E5-2620", 3), ("i5-4460", 3)],
                ["Streamcluster", "Canneal"],
                policy=policy,
                grid_w=500.0,
            )
            ctl.pdu.battery.soc_wh = ctl.pdu.battery.floor_wh  # force grid
            total = 0.0
            for i in range(4):
                total += ctl.run_epoch(i * 900.0).throughput  # night epochs
            results[policy] = total
        assert results["GreenHetero"] >= results["Uniform"]
