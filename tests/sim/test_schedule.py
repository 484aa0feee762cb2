"""Workload schedules and their engine integration."""

import pytest

from repro.core.policies import make_policy
from repro.errors import ConfigurationError
from repro.servers.rack import Rack
from repro.sim.clock import SimClock
from repro.sim.engine import Simulation
from repro.sim.schedule import WorkloadPhase, WorkloadSchedule
from repro.units import SECONDS_PER_DAY


@pytest.fixture
def day_night():
    return WorkloadSchedule(
        [
            WorkloadPhase(8.0, "SPECjbb"),
            WorkloadPhase(20.0, "Streamcluster"),
        ]
    )


class TestSchedule:
    def test_daytime_phase(self, day_night):
        assert day_night.workload_at(10 * 3600.0) == "SPECjbb"
        assert day_night.workload_at(19.9 * 3600.0) == "SPECjbb"

    def test_evening_phase(self, day_night):
        assert day_night.workload_at(21 * 3600.0) == "Streamcluster"

    def test_overnight_wrap(self, day_night):
        # 03:00 is before the first phase start: the latest phase wraps.
        assert day_night.workload_at(3 * 3600.0) == "Streamcluster"

    def test_multi_day_cyclic(self, day_night):
        t = 2 * SECONDS_PER_DAY + 10 * 3600.0
        assert day_night.workload_at(t) == "SPECjbb"

    def test_single_phase_always_active(self):
        schedule = WorkloadSchedule([WorkloadPhase(6.0, "Mcf")])
        for hour in (0, 5, 6, 12, 23):
            assert schedule.workload_at(hour * 3600.0) == "Mcf"

    def test_per_group_spec(self):
        schedule = WorkloadSchedule(
            [WorkloadPhase(0.0, ["Streamcluster", "Memcached"])]
        )
        assert schedule.workload_at(0.0) == ["Streamcluster", "Memcached"]

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSchedule([])

    def test_duplicate_start_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSchedule([WorkloadPhase(8.0, "a"), WorkloadPhase(8.0, "b")])

    def test_bad_hour_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadPhase(24.0, "SPECjbb")


class TestEngineIntegration:
    def _sim(self, schedule, hours=24.0):
        rack = Rack([("E5-2620", 3), ("i5-4460", 3)], "SPECjbb")
        clock = SimClock(start_s=SECONDS_PER_DAY, duration_s=hours * 3600.0)
        sim = Simulation.assemble(
            policy=make_policy("GreenHetero"), rack=rack, clock=clock, seed=27
        )
        sim.workload_schedule = schedule
        return sim

    def test_workload_rotates_over_the_day(self, day_night):
        sim = self._sim(day_night)
        sim.run()
        db = sim.controller.scheduler.database
        # Both phases' pairs were profiled on their first arrival.
        assert ("E5-2620", "SPECjbb") in db
        assert ("E5-2620", "Streamcluster") in db
        assert ("i5-4460", "Streamcluster") in db

    def test_rack_workload_matches_schedule_at_end(self, day_night):
        sim = self._sim(day_night, hours=22.0)  # ends at 22:00: batch phase
        sim.run()
        assert sim.controller.rack.groups[0].workload.name == "Streamcluster"

    def test_returning_phase_does_not_retrain(self, day_night):
        sim = self._sim(day_night, hours=36.0)  # wraps into day 2's SPECjbb
        log = sim.run()
        trainings = [r.trained_pairs for r in log if r.trained_pairs]
        # Exactly two training bursts: one per distinct workload.
        assert len(trainings) == 2

    def test_load_generator_tracks_workload_kind(self, day_night):
        sim = self._sim(day_night, hours=24.0)
        log = sim.run()
        hours = ((log.times_s % SECONDS_PER_DAY) / 3600.0)
        loads = log.series("load_fraction")
        batch = (hours < 8.0) | (hours >= 20.0)
        # Batch phases saturate; interactive phases follow the pattern.
        assert (loads[batch] == 1.0).all()
        assert loads[~batch].std() > 0.0
