"""The five Table III allocation policies."""

import pytest

from repro.core.database import ProfilingDatabase
from repro.core.policies import (
    POLICY_NAMES,
    AllocationContext,
    GreenHeteroPolicy,
    GreenHeteroPriorityPolicy,
    GreenHeteroStaticPolicy,
    GroupInfo,
    ManualPolicy,
    UniformPolicy,
    all_policies,
    make_policy,
)
from repro.errors import ConfigurationError

E5_KEY = ("E5-2620", "SPECjbb")
I5_KEY = ("i5-4460", "SPECjbb")


def make_db():
    """A database with plausible SPECjbb projections for both groups."""
    db = ProfilingDatabase()
    # E5-2620: active 100..150 W, big but power-hungry.
    db.ingest_training_run(
        E5_KEY, 88.0,
        [(100.0, 11000.0), (112.0, 15500.0), (125.0, 19000.0), (137.0, 21800.0), (150.0, 24000.0)],
    )
    # i5-4460: active 55..80 W, small and efficient.
    db.ingest_training_run(
        I5_KEY, 47.0,
        [(55.0, 7300.0), (61.0, 10300.0), (67.0, 12800.0), (73.0, 15000.0), (80.0, 16600.0)],
    )
    return db


def make_ctx(budget=1000.0, oracle=None, db=None):
    return AllocationContext(
        budget_w=budget,
        groups=(
            GroupInfo("E5-2620", 5, E5_KEY),
            GroupInfo("i5-4460", 5, I5_KEY),
        ),
        database=db or make_db(),
        oracle=oracle,
    )


class TestRegistry:
    def test_table_iii_names(self):
        assert POLICY_NAMES == (
            "Uniform",
            "Manual",
            "GreenHetero-p",
            "GreenHetero-a",
            "GreenHetero",
        )

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_factory(self, name):
        assert make_policy(name).name == name

    def test_factory_case_insensitive(self):
        assert make_policy("greenhetero").name == "GreenHetero"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            make_policy("RoundRobin")

    def test_all_policies(self):
        assert [p.name for p in all_policies()] == list(POLICY_NAMES)

    def test_flags(self):
        assert not make_policy("Uniform").uses_database
        assert make_policy("Manual").requires_oracle
        assert make_policy("GreenHetero-p").uses_database
        assert not make_policy("GreenHetero-a").updates_database
        assert make_policy("GreenHetero").updates_database

    def test_repr(self):
        assert "GreenHetero" in repr(GreenHeteroPolicy())


class TestUniform:
    def test_equal_per_server(self):
        ratios = UniformPolicy().allocate(make_ctx())
        assert ratios == pytest.approx((0.5, 0.5))

    def test_weighted_by_count(self):
        ctx = AllocationContext(
            budget_w=900.0,
            groups=(GroupInfo("E5-2620", 6, E5_KEY), GroupInfo("i5-4460", 3, I5_KEY)),
            database=make_db(),
        )
        assert UniformPolicy().allocate(ctx) == pytest.approx((2 / 3, 1 / 3))

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            UniformPolicy().allocate(make_ctx(budget=-1.0))

    def test_empty_groups_rejected(self):
        ctx = AllocationContext(budget_w=100.0, groups=(), database=make_db())
        with pytest.raises(ConfigurationError):
            UniformPolicy().allocate(ctx)


class TestManual:
    def test_picks_measured_best(self):
        def oracle(ratios):
            return -abs(ratios[0] - 0.7)  # best trial at 70/30

        ratios = ManualPolicy().allocate(make_ctx(oracle=oracle))
        assert ratios == pytest.approx((0.7, 0.3))

    def test_requires_oracle(self):
        with pytest.raises(ConfigurationError):
            ManualPolicy().allocate(make_ctx(oracle=None))

    def test_granularity_is_ten_percent(self):
        seen = []

        def oracle(ratios):
            seen.append(ratios)
            return 0.0

        ManualPolicy().allocate(make_ctx(oracle=oracle))
        assert len(seen) == 11  # compositions of 10 steps into 2 groups


class TestPriority:
    def test_feeds_most_efficient_first(self):
        # The i5 projection is the efficiency leader: at 1000 W it gets
        # its full saturation power (5 * 80 = 400 W) before the E5s.
        ratios = GreenHeteroPriorityPolicy().allocate(make_ctx(budget=1000.0))
        assert ratios[1] == pytest.approx(400.0 / 1000.0)
        assert ratios[0] == pytest.approx(600.0 / 1000.0)

    def test_dumps_remainder_even_when_unusable(self):
        # 600 W: i5s take 400, the remaining 200 spills onto the E5s
        # even though 40 W/server cannot power them on (the waste mode
        # the paper demonstrates with Streamcluster).
        ratios = GreenHeteroPriorityPolicy().allocate(make_ctx(budget=600.0))
        assert ratios[1] == pytest.approx(400.0 / 600.0)
        assert ratios[0] == pytest.approx(200.0 / 600.0)

    def test_zero_budget(self):
        ratios = GreenHeteroPriorityPolicy().allocate(make_ctx(budget=0.0))
        assert ratios == (0.0, 0.0)

    def test_never_exceeds_budget(self):
        for budget in (200.0, 500.0, 900.0, 5000.0):
            ratios = GreenHeteroPriorityPolicy().allocate(make_ctx(budget=budget))
            assert sum(ratios) <= 1.0 + 1e-9


class TestSolverPolicies:
    def test_greenhetero_beats_uniform_projection(self):
        db = make_db()
        ctx = make_ctx(budget=1000.0, db=db)
        gh = GreenHeteroPolicy().allocate(ctx)
        uni = UniformPolicy().allocate(ctx)

        def projected(ratios):
            total = 0.0
            for g, r in zip(ctx.groups, ratios):
                total += g.count * db.projection(g.key).predict(r * 1000.0 / g.count)
            return total

        assert projected(gh) >= projected(uni)

    def test_static_and_adaptive_same_decision_same_db(self):
        ctx = make_ctx()
        assert GreenHeteroStaticPolicy().allocate(ctx) == GreenHeteroPolicy().allocate(ctx)

    def test_solver_failure_falls_back_to_uniform(self):
        # A context whose group count exceeds the solver's bound should
        # degrade to Uniform rather than crash the controller.
        from repro.core.solver import MAX_GROUPS

        keys = (E5_KEY, I5_KEY) * MAX_GROUPS
        ctx = AllocationContext(
            budget_w=1000.0,
            groups=tuple(
                GroupInfo(f"g{i}", 2 + i, keys[i]) for i in range(MAX_GROUPS + 1)
            ),
            database=make_db(),
        )
        ratios = GreenHeteroPolicy().allocate(ctx)
        assert ratios == pytest.approx(UniformPolicy().allocate(ctx))
        assert ratios[0] < ratios[-1]


class TestOnOff:
    """The GreenGear-style on-off baseline from the Section VI discussion."""

    def test_powers_exactly_one_group(self):
        from repro.core.policies import OnOffPolicy

        ratios = OnOffPolicy().allocate(make_ctx(budget=1000.0))
        assert sum(1 for r in ratios if r > 0) == 1

    def test_prefers_most_efficient_group_it_can_power(self):
        from repro.core.policies import OnOffPolicy

        # At 1000 W either group fits; the i5 projection leads efficiency.
        ratios = OnOffPolicy().allocate(make_ctx(budget=1000.0))
        assert ratios[1] > 0.0
        assert ratios[0] == 0.0

    def test_never_exceeds_saturation(self):
        from repro.core.policies import OnOffPolicy

        ratios = OnOffPolicy().allocate(make_ctx(budget=5000.0))
        granted = [r * 5000.0 for r in ratios]
        # i5 group saturates at 5 * 80 W.
        assert max(granted) <= 5 * 80.0 + 1e-6

    def test_zero_budget(self):
        from repro.core.policies import OnOffPolicy

        assert OnOffPolicy().allocate(make_ctx(budget=0.0)) == (0.0, 0.0)

    def test_registered_in_factory(self):
        assert make_policy("OnOff").name == "OnOff"
