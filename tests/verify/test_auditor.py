"""The invariant auditor: clean passes and per-invariant negative paths."""

import dataclasses
import math

import pytest

from repro.core.cluster import ClusterCoordinator, GridSplit
from repro.core.controller import NO_DIRECTIVES, EpochDirectives
from repro.core.policies import make_policy
from repro.errors import InvariantViolation
from repro.servers.rack import Rack
from repro.sim.clock import SimClock
from repro.sim.engine import Simulation
from repro.traces.nrel import Weather
from repro.units import EPOCH_SECONDS
from repro.verify import AuditContext, InvariantAuditor


@pytest.fixture(scope="module")
def sim():
    """A short completed run; its log supplies realistic records."""
    simulation = Simulation.assemble(
        policy=make_policy("GreenHetero"),
        rack=Rack([("E5-2620", 5), ("i5-4460", 5)], "SPECjbb"),
        weather=Weather.HIGH,
        clock=SimClock(duration_s=6 * EPOCH_SECONDS),
        seed=7,
    )
    simulation.run()
    return simulation


@pytest.fixture(scope="module")
def record(sim):
    """A solver epoch (carries projected_perf, so fit-bounds applies)."""
    for r in sim.log:
        if r.projected_perf is not None:
            return r
    pytest.fail("no solver epoch in the reference run")


def make_ctx(sim, record, soc_before=None, directives=NO_DIRECTIVES):
    """An AuditContext whose soc_before is consistent with the record."""
    if soc_before is None:
        battery = sim.controller.pdu.battery
        hours = sim.clock.epoch_s / 3600.0
        expected = (
            record.charge_w * hours * battery.efficiency
            - record.battery_to_load_w * hours
        )
        soc_before = record.battery_soc_wh - expected
    return AuditContext(
        record=record,
        controller=sim.controller,
        epoch_s=sim.clock.epoch_s,
        soc_before_wh=soc_before,
        directives=directives,
    )


def checks_fired(sim, record, **corrupt):
    """Audit a corrupted copy of ``record``; return the check names."""
    bad = dataclasses.replace(record, **corrupt)
    auditor = InvariantAuditor()
    found = auditor.audit(make_ctx(sim, bad))
    return {v.check for v in found}


class TestCleanEpochs:
    def test_every_logged_epoch_audits_clean(self, sim, record):
        auditor = InvariantAuditor(strict=True)
        assert auditor.audit(make_ctx(sim, record)) == ()

    def test_engine_wired_auditor_saw_every_epoch(self, sim):
        assert sim.auditor is not None
        assert sim.auditor.epochs_audited == len(sim.log)
        assert sim.auditor.violation_count == 0


class TestNegativePaths:
    def test_renewable_to_load_exceeding_supply(self, sim, record):
        fired = checks_fired(
            sim, record, renewable_to_load_w=record.renewable_w + 50.0
        )
        assert "energy-conservation" in fired

    def test_overcounted_curtailment(self, sim, record):
        fired = checks_fired(
            sim, record, curtailed_w=record.renewable_w + 50.0
        )
        assert "energy-conservation" in fired

    def test_unaccounted_renewable(self, sim, record):
        inflated = (
            record.renewable_to_load_w
            + record.curtailed_w
            + record.charge_w
            + 50.0
        )
        fired = checks_fired(sim, record, renewable_w=inflated)
        assert "energy-conservation" in fired

    def test_useful_power_exceeding_delivery(self, sim, record):
        delivered = (
            record.renewable_to_load_w
            + record.battery_to_load_w
            + record.grid_to_load_w
        )
        fired = checks_fired(sim, record, useful_power_w=delivered + 50.0)
        assert "energy-conservation" in fired

    def test_soc_delta_mismatch(self, sim, record):
        auditor = InvariantAuditor()
        found = auditor.audit(
            make_ctx(sim, record, soc_before=record.battery_soc_wh + 100.0)
        )
        assert "battery-soc" in {v.check for v in found}

    def test_soc_below_dod_floor(self, sim, record):
        floor = sim.controller.pdu.battery.floor_wh
        fired = checks_fired(sim, record, battery_soc_wh=floor - 10.0)
        assert "soc-floor" in fired

    def test_soc_above_capacity(self, sim, record):
        capacity = sim.controller.pdu.battery.capacity_wh
        fired = checks_fired(sim, record, battery_soc_wh=capacity + 10.0)
        assert "soc-floor" in fired

    def test_grid_overdraw(self, sim, record):
        budget = sim.controller.pdu.grid.budget_w
        fired = checks_fired(sim, record, grid_to_load_w=budget + 10.0)
        assert "grid-budget" in fired

    def test_grid_draw_over_the_directed_share(self, sim, record):
        # A draw inside the provisioned budget but over the epoch's
        # directed share is an overdraw.
        provisioned = sim.controller.pdu.grid.budget_w
        share = provisioned / 2.0
        bad = dataclasses.replace(record, grid_to_load_w=0.75 * provisioned)
        ctx = make_ctx(sim, bad, directives=EpochDirectives(grid_budget_w=share))
        assert "grid-budget" in {
            v.check for v in InvariantAuditor().audit(ctx)
        }
        assert "grid-budget" not in checks_fired(
            sim, record, grid_to_load_w=0.75 * provisioned
        )

    def test_ratio_sum_above_one(self, sim, record):
        fired = checks_fired(sim, record, ratios=(0.9, 0.9))
        assert "ratios" in fired

    def test_negative_ratio(self, sim, record):
        fired = checks_fired(sim, record, ratios=(-0.1, 0.5))
        assert "ratios" in fired

    def test_epu_above_one(self, sim, record):
        fired = checks_fired(sim, record, epu=1.5)
        assert "epu-range" in fired

    def test_negative_throughput(self, sim, record):
        fired = checks_fired(sim, record, throughput=-1.0)
        assert "epu-range" in fired

    def test_allocation_above_fit_peak(self, sim, record):
        groups = sim.controller.rack.groups
        database = sim.controller.scheduler.database
        inflated = tuple(
            g.count * database.projection(g.key).max_power_w * 2.0
            for g in groups
        )
        fired = checks_fired(sim, record, group_budgets_w=inflated)
        assert "fit-bounds" in fired

    def test_allocation_below_power_on(self, sim, record):
        groups = sim.controller.rack.groups
        database = sim.controller.scheduler.database
        starved = tuple(
            g.count * database.projection(g.key).min_power_w * 0.5
            for g in groups
        )
        fired = checks_fired(sim, record, group_budgets_w=starved)
        assert "fit-bounds" in fired

    def test_gating_waives_the_lower_fit_bound(self, sim, record):
        groups = sim.controller.rack.groups
        database = sim.controller.scheduler.database
        starved = dataclasses.replace(
            record,
            group_budgets_w=tuple(
                g.count * database.projection(g.key).min_power_w * 0.5
                for g in groups
            ),
        )
        caps = EpochDirectives(group_caps_w=(math.inf,) * len(groups))
        found = InvariantAuditor().audit(make_ctx(sim, starved, directives=caps))
        assert "fit-bounds" not in {v.check for v in found}

    def test_fallback_epochs_skip_fit_bounds(self, sim, record):
        # No projected_perf => uniform fallback plan, no fit semantics.
        starved = dataclasses.replace(
            record,
            projected_perf=None,
            group_budgets_w=(1.0,) * len(record.group_budgets_w),
        )
        found = InvariantAuditor().audit(make_ctx(sim, starved))
        assert "fit-bounds" not in {v.check for v in found}


class TestCoordinatedEpochs:
    def test_share_above_the_provisioned_budget_passes(self):
        # Drained batteries at midnight: each rack runs on its 750 W
        # share, far above its provisioned 100 W feed.
        sims = []
        for seed in (7, 8):
            sim = Simulation.assemble(
                policy=make_policy("GreenHetero"),
                rack=Rack([("E5-2620", 5), ("i5-4460", 5)], "SPECjbb"),
                grid_budget_w=100.0,
                seed=seed,
                strict=True,
            )
            battery = sim.controller.pdu.battery
            battery.soc_wh = battery.floor_wh
            sims.append(sim)
        cluster = ClusterCoordinator(sims, 1500.0, split=GridSplit.EQUAL)
        records = cluster.run_epoch()
        assert all(r.grid_to_load_w > 100.0 for r in records)
        for sim in sims:
            assert sim.auditor.epochs_audited == 1
            assert sim.auditor.violation_count == 0
            assert sim.controller.pdu.grid.budget_w == 100.0


class TestModes:
    def test_strict_raises_with_the_violations_attached(self, sim, record):
        auditor = InvariantAuditor(strict=True)
        with pytest.raises(InvariantViolation) as excinfo:
            auditor.audit(
                make_ctx(
                    sim,
                    dataclasses.replace(record, epu=1.5),
                )
            )
        assert excinfo.value.violations
        assert excinfo.value.violations[0].check == "epu-range"

    def test_counting_mode_accumulates(self, sim, record):
        auditor = InvariantAuditor(strict=False)
        bad = dataclasses.replace(record, epu=1.5, throughput=-1.0)
        auditor.audit(make_ctx(sim, bad))
        auditor.audit(make_ctx(sim, record))
        summary = auditor.summary()
        assert summary["epochs_audited"] == 2
        assert summary["violations"] == 2
        assert summary["by_check"] == {"epu-range": 2}
        assert summary["strict"] is False

    def test_custom_check_subset(self, sim, record):
        from repro.verify.auditor import check_epu_range

        auditor = InvariantAuditor(checks=[check_epu_range])
        bad = dataclasses.replace(record, ratios=(0.9, 0.9), epu=1.5)
        found = auditor.audit(make_ctx(sim, bad))
        assert {v.check for v in found} == {"epu-range"}
