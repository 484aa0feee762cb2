"""The Adaptive Scheduler (Fig. 5)."""

import pytest

from repro.core.controller import GreenHeteroController
from repro.core.database import ProfilingDatabase
from repro.core.policies import GroupInfo, UniformPolicy, make_policy
from repro.core.predictor import HoltPredictor
from repro.core.scheduler import AdaptiveScheduler
from repro.core.sources import PowerCase
from repro.errors import ConfigurationError
from repro.power.battery import BatteryBank
from repro.power.grid import GridSource
from repro.power.pdu import PDU
from repro.power.solar import SolarFarm
from repro.servers.rack import Rack
from repro.traces.nrel import synthesize_irradiance

E5_KEY = ("E5-2620", "SPECjbb")
I5_KEY = ("i5-4460", "SPECjbb")
GROUPS = (GroupInfo("E5-2620", 5, E5_KEY), GroupInfo("i5-4460", 5, I5_KEY))

TRAIN_E5 = [(100.0, 11000.0), (112.0, 15500.0), (125.0, 19000.0), (150.0, 24000.0)]
TRAIN_I5 = [(55.0, 7300.0), (61.0, 10300.0), (67.0, 12800.0), (80.0, 16600.0)]


def make_scheduler(policy_name="GreenHetero"):
    return AdaptiveScheduler(make_policy(policy_name))


def controller_on(scheduler):
    """A controller for the ``GROUPS`` rack whose training branch
    (Algorithm 1 lines 3-5) reads and fills ``scheduler.database``."""
    rack = Rack([("E5-2620", 5), ("i5-4460", 5)], "SPECjbb")
    trace = synthesize_irradiance(days=1, seed=3)
    pdu = PDU(SolarFarm.sized_for(trace, 1900.0), BatteryBank(), GridSource())
    return GreenHeteroController(rack, pdu, scheduler.policy, scheduler=scheduler)


def window(db, key):
    """The pair's retained (powers, perfs) in ``db.state_dict()``."""
    record = next(
        r for r in db.state_dict()["entries"] if (r["platform"], r["workload"]) == key
    )
    return record["powers"], record["perfs"]


class TestPrediction:
    def test_forecast_requires_history(self):
        with pytest.raises(ConfigurationError):
            make_scheduler().forecast()

    def test_observe_then_forecast(self):
        s = make_scheduler()
        s.observe(500.0, 1000.0)
        renewable, demand = s.forecast()
        assert renewable == pytest.approx(500.0)
        assert demand == pytest.approx(1000.0)

    def test_pretrain_fits_constants(self):
        ramp = [float(i * 10) for i in range(40)]
        s = AdaptiveScheduler(
            make_policy("GreenHetero"),
            renewable_predictor=HoltPredictor.fit(ramp),
            demand_predictor=HoltPredictor.fit([1000.0] * 40),
        )
        renewable, demand = s.forecast()
        assert renewable == pytest.approx(400.0, abs=20.0)
        assert demand == pytest.approx(1000.0, abs=10.0)


class TestSourcePlanning:
    def test_plan_sources_uses_forecasts(self):
        s = make_scheduler()
        s.observe(2000.0, 1000.0)
        decision = s.plan_sources(BatteryBank(), GridSource(), 900.0)
        assert decision.case is PowerCase.A


class TestDatabaseFlow:
    def test_missing_pairs_before_training(self):
        s = make_scheduler()
        assert E5_KEY not in s.database and I5_KEY not in s.database
        # The controller trains every missing pair, in rack order.
        assert controller_on(s).ensure_profiled() == (E5_KEY, I5_KEY)
        assert E5_KEY in s.database and I5_KEY in s.database

    def test_ingest_clears_missing(self):
        s = make_scheduler()
        s.database.ingest_training_run(E5_KEY, 88.0, TRAIN_E5)
        assert controller_on(s).ensure_profiled() == (I5_KEY,)
        assert s.database.sample_count(E5_KEY) == len(TRAIN_E5)

    def test_feedback_updates_database_when_enabled(self):
        s = make_scheduler("GreenHetero")
        s.database.ingest_training_run(E5_KEY, 88.0, TRAIN_E5)
        before = s.database.sample_count(E5_KEY)
        s.feed_back(GROUPS[:1], [[120.0]], [[17000.0]])
        assert s.database.sample_count(E5_KEY) == before + 1

    def test_feedback_noop_for_static_policy(self):
        s = make_scheduler("GreenHetero-a")
        s.database.ingest_training_run(E5_KEY, 88.0, TRAIN_E5)
        before = s.database.sample_count(E5_KEY)
        s.feed_back(GROUPS[:1], [[120.0]], [[17000.0]])
        assert s.database.sample_count(E5_KEY) == before

    def test_zero_throughput_feedback_skipped(self):
        s = make_scheduler("GreenHetero")
        s.database.ingest_training_run(E5_KEY, 88.0, TRAIN_E5)
        before = s.database.sample_count(E5_KEY)
        s.feed_back(GROUPS[:1], [[3.0]], [[0.0]])
        assert s.database.sample_count(E5_KEY) == before

    def test_one_block_and_one_refit_per_pair(self, monkeypatch):
        s = make_scheduler("GreenHetero")
        s.database.ingest_training_run(E5_KEY, 88.0, TRAIN_E5)
        s.database.ingest_training_run(I5_KEY, 50.0, TRAIN_I5)
        calls = []
        add_samples = s.database.add_samples
        refit = s.database.refit
        monkeypatch.setattr(
            s.database, "add_samples",
            lambda key, powers, perfs: (calls.append(("add", key, list(powers))),
                                        add_samples(key, powers, perfs)),
        )
        monkeypatch.setattr(
            s.database, "refit", lambda key: (calls.append(("refit", key)), refit(key))[1]
        )
        s.feed_back(
            GROUPS,
            [[120.0, 121.0, 122.0], [60.0, 61.0, 62.0]],
            [[17000.0, 0.0, 17200.0], [0.0, 0.0, 0.0]],
        )
        # The i5 group never ran, so its pair is neither fed nor refit.
        assert calls == [("add", E5_KEY, [120.0, 122.0]), ("refit", E5_KEY)]

    def test_groups_sharing_a_pair_interleave_by_substep(self):
        s = make_scheduler("GreenHetero")
        s.database.ingest_training_run(E5_KEY, 88.0, TRAIN_E5)
        powers, perfs = window(s.database, E5_KEY)
        groups = (GroupInfo("E5-2620", 2, E5_KEY), GroupInfo("E5-2620", 3, E5_KEY))
        s.feed_back(
            groups,
            [[120.0, 121.0, 122.0], [130.0, 131.0, 132.0]],
            [[17000.0, 17100.0, 17200.0], [18000.0, 0.0, 18200.0]],
        )
        assert window(s.database, E5_KEY) == (
            powers + [120.0, 130.0, 121.0, 122.0, 132.0],
            perfs + [17000.0, 18000.0, 17100.0, 17200.0, 18200.0],
        )


class TestAllocation:
    def test_allocate_delegates_to_policy(self):
        s = AdaptiveScheduler(UniformPolicy())
        ratios = s.allocate_plan(1000.0, GROUPS).ratios
        assert ratios == pytest.approx((0.5, 0.5))

    def test_allocate_with_solver_policy(self):
        s = make_scheduler("GreenHetero")
        s.database.ingest_training_run(E5_KEY, 88.0, TRAIN_E5)
        s.database.ingest_training_run(I5_KEY, 47.0, TRAIN_I5)
        ratios = s.allocate_plan(1000.0, GROUPS).ratios
        assert sum(ratios) <= 1.0 + 1e-9
        assert all(r >= 0 for r in ratios)

    def test_default_components_created(self):
        s = AdaptiveScheduler(UniformPolicy())
        assert isinstance(s.database, ProfilingDatabase)
        assert s.selector is not None
