"""Profiling database and curve fitting (Fig. 7, Algorithm 1)."""

import numpy as np
import pytest

from repro.core.database import FitKind, PerfPowerFit, ProfilingDatabase
from repro.errors import ConfigurationError, DatabaseMissError

KEY = ("E5-2620", "SPECjbb")


def record(db, key=KEY):
    """The pair's record in ``db.state_dict()``."""
    return next(
        r for r in db.state_dict()["entries"] if (r["platform"], r["workload"]) == key
    )


def state_with(db, key=KEY, **changes):
    """``db.state_dict()`` with ``changes`` written into the pair's record."""
    state = db.state_dict()
    for r in state["entries"]:
        if (r["platform"], r["workload"]) == key:
            r.update(changes)
    return state


def quad_samples(l=-2.0, m=600.0, n=-20000.0, powers=(100, 110, 120, 135, 150)):
    """Noise-free samples from a known quadratic."""
    return [(float(p), l * p * p + m * p + n) for p in powers]


class TestPerfPowerFit:
    def _fit(self, **overrides):
        base = dict(
            coefficients=(-2.0, 600.0, -20000.0),
            min_power_w=95.0,
            max_power_w=150.0,
        )
        base.update(overrides)
        return PerfPowerFit(**base)

    def test_paper_coefficients(self):
        fit = self._fit()
        assert fit.l == -2.0
        assert fit.m == 600.0
        assert fit.n == -20000.0

    def test_linear_fit_has_zero_l(self):
        fit = self._fit(coefficients=(10.0, 50.0), kind=FitKind.LINEAR)
        assert fit.l == 0.0
        assert fit.m == 10.0
        assert fit.n == 50.0

    def test_zero_below_min(self):
        assert self._fit().predict(90.0) == 0.0

    def test_plateau_above_max(self):
        fit = self._fit()
        assert fit.predict(200.0) == fit.predict(150.0)

    def test_quadratic_inside_range(self):
        fit = self._fit()
        p = 120.0
        assert fit.predict(p) == pytest.approx(-2 * p * p + 600 * p - 20000)

    def test_clamped_at_zero(self):
        fit = self._fit(coefficients=(0.0, 1.0, -1000.0))
        assert fit.predict(100.0) == 0.0

    def test_raw_is_polyval_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for degree in (1, 2, 3):
            for _ in range(200):
                coeffs = tuple(float(c) for c in rng.normal(0.0, 50.0, degree + 1))
                fit = self._fit(coefficients=coeffs)
                p = float(rng.uniform(0.0, 300.0))
                assert fit.raw(p) == float(np.polyval(coeffs, p))

    def test_derivative(self):
        fit = self._fit()
        assert fit.derivative(100.0) == pytest.approx(-2 * 2 * 100 + 600)

    def test_efficiency(self):
        fit = self._fit()
        assert fit.efficiency() == pytest.approx(fit.predict(150.0) / 150.0)

    def test_invalid_range_rejected(self):
        with pytest.raises(ConfigurationError):
            self._fit(min_power_w=150.0, max_power_w=150.0)

    def test_negative_min_rejected(self):
        with pytest.raises(ConfigurationError):
            self._fit(min_power_w=-1.0)


class TestTrainingRun:
    def test_ingest_creates_projection(self):
        db = ProfilingDatabase()
        assert not db.has(*KEY)
        db.ingest_training_run(KEY, idle_power_w=88.0, samples=quad_samples())
        assert db.has(*KEY)
        assert KEY in db

    def test_fit_recovers_known_quadratic(self):
        db = ProfilingDatabase()
        fit = db.ingest_training_run(KEY, 88.0, quad_samples())
        assert fit.l == pytest.approx(-2.0, rel=0.01)
        assert fit.m == pytest.approx(600.0, rel=0.01)
        assert fit.n == pytest.approx(-20000.0, rel=0.01)

    def test_min_power_from_lowest_active_sample(self):
        db = ProfilingDatabase()
        fit = db.ingest_training_run(KEY, 88.0, quad_samples())
        assert fit.min_power_w == pytest.approx(100.0)

    def test_max_power_from_highest_sample(self):
        db = ProfilingDatabase()
        fit = db.ingest_training_run(KEY, 88.0, quad_samples())
        assert fit.max_power_w == pytest.approx(150.0)

    def test_too_few_samples_rejected(self):
        db = ProfilingDatabase()
        with pytest.raises(ConfigurationError):
            db.ingest_training_run(KEY, 88.0, [(100.0, 5.0)])

    def test_projection_miss_raises(self):
        db = ProfilingDatabase()
        with pytest.raises(DatabaseMissError):
            db.projection(KEY)

    def test_degree_degrades_with_few_distinct_levels(self):
        db = ProfilingDatabase(fit_kind=FitKind.QUADRATIC)
        samples = [(100.0, 500.0), (100.0, 510.0), (120.0, 700.0)]
        fit = db.ingest_training_run(KEY, 88.0, samples)
        assert fit.kind is FitKind.LINEAR


class TestOnlineUpdate:
    """Algorithm 1 lines 8-10."""

    def test_feedback_sharpens_fit(self):
        rng = np.random.default_rng(0)
        true = lambda p: -2.0 * p * p + 600.0 * p - 20000.0  # noqa: E731
        db = ProfilingDatabase()
        # Noisy, clustered training run (top of the range only).
        train = [(p, true(p) * (1 + 0.05 * rng.standard_normal())) for p in (135, 140, 145, 148, 150)]
        db.ingest_training_run(KEY, 88.0, train)
        initial_err = abs(db.projection(KEY).predict(105.0) - true(105.0))
        # Online feedback at the low-power operating points.
        for p in np.linspace(100, 150, 40):
            db.add_sample(KEY, float(p), true(float(p)))
        db.refit(KEY)
        final_err = abs(db.projection(KEY).predict(105.0) - true(105.0))
        assert final_err < initial_err

    def test_max_power_widens_with_feedback(self):
        db = ProfilingDatabase()
        db.ingest_training_run(KEY, 88.0, quad_samples())
        db.add_sample(KEY, 160.0, 25000.0)
        fit = db.refit(KEY)
        assert fit.max_power_w == pytest.approx(160.0)

    def test_min_power_narrows_with_feedback(self):
        db = ProfilingDatabase()
        db.ingest_training_run(KEY, 88.0, quad_samples())
        db.add_sample(KEY, 96.0, 2000.0)
        fit = db.refit(KEY)
        assert fit.min_power_w == pytest.approx(96.0)

    def test_zero_perf_samples_do_not_move_boundaries(self):
        db = ProfilingDatabase()
        db.ingest_training_run(KEY, 88.0, quad_samples())
        db.add_sample(KEY, 50.0, 0.0)
        fit = db.refit(KEY)
        assert fit.min_power_w == pytest.approx(100.0)

    def test_zero_perf_samples_do_not_enter_the_fit(self):
        with_zeros, without = ProfilingDatabase(), ProfilingDatabase()
        for db in (with_zeros, without):
            db.ingest_training_run(KEY, 88.0, quad_samples())
        with_zeros.add_sample(KEY, 50.0, 0.0)
        with_zeros.add_sample(KEY, 70.0, 0.0)
        assert with_zeros.refit(KEY) == without.refit(KEY)
        assert with_zeros.refit(KEY).n_samples == 5

    def test_ring_buffer_caps_history(self):
        db = ProfilingDatabase(max_samples=10)
        db.ingest_training_run(KEY, 88.0, quad_samples())
        for i in range(50):
            db.add_sample(KEY, 120.0 + i * 0.1, 15000.0)
        assert db.sample_count(KEY) == 10

    def test_block_append_equals_single_appends(self):
        one, block = ProfilingDatabase(max_samples=8), ProfilingDatabase(max_samples=8)
        for db in (one, block):
            db.ingest_training_run(KEY, 88.0, quad_samples())
        powers = [96.0, 160.0, 50.0, 120.5, 131.0, 99.0, 141.0]
        perfs = [2000.0, 25000.0, 0.0, 15000.0, 18000.0, 0.0, 21000.0]
        for power_w, perf in zip(powers, perfs):
            one.add_sample(KEY, power_w, perf)
        block.add_samples(KEY, powers, perfs)
        # The window wrapped; both envelope edges moved, zero perf did not.
        assert record(block) == record(one)
        assert record(block)["min_active_power_w"] == 96.0
        assert record(block)["max_power_w"] == 160.0
        assert block.refit(KEY) == one.refit(KEY)

    def test_block_validated_whole(self):
        db = ProfilingDatabase()
        db.ingest_training_run(KEY, 88.0, quad_samples())
        before = record(db)
        with pytest.raises(ConfigurationError):
            db.add_samples(KEY, [120.0, 125.0, -1.0], [15000.0, 16000.0, 10.0])
        with pytest.raises(ConfigurationError):
            db.add_samples(KEY, [120.0, 125.0], [15000.0])
        assert record(db) == before

    def test_sample_to_unknown_key_rejected(self):
        db = ProfilingDatabase()
        with pytest.raises(DatabaseMissError):
            db.add_sample(("x", "y"), 100.0, 10.0)

    def test_negative_sample_rejected(self):
        db = ProfilingDatabase()
        db.ingest_training_run(KEY, 88.0, quad_samples())
        with pytest.raises(ConfigurationError):
            db.add_sample(KEY, -1.0, 10.0)

    @pytest.mark.parametrize("power_w,perf", [
        (float("nan"), 1200.0), (125.0, float("nan")),
        (float("inf"), 1200.0), (125.0, float("inf")), (125.0, float("-inf")),
    ])
    def test_non_finite_sample_rejected(self, power_w, perf):
        db = ProfilingDatabase()
        db.ingest_training_run(KEY, 88.0, quad_samples())
        before = record(db)
        with pytest.raises(ConfigurationError):
            db.add_sample(KEY, power_w, perf)
        assert record(db) == before
        assert np.all(np.isfinite(db.refit(KEY).coefficients))


class TestQueries:
    def test_keys_and_len(self):
        db = ProfilingDatabase()
        db.ingest_training_run(KEY, 88.0, quad_samples())
        db.ingest_training_run(("i5-4460", "SPECjbb"), 47.0, quad_samples(powers=(55, 60, 70, 75, 79)))
        assert len(db) == 2
        assert KEY in db.keys()

    def test_efficiency_query(self):
        db = ProfilingDatabase()
        db.ingest_training_run(KEY, 88.0, quad_samples())
        fit = db.projection(KEY)
        assert db.efficiency(KEY) == pytest.approx(fit.efficiency())

    def test_fit_kinds(self):
        for kind in FitKind:
            db = ProfilingDatabase(fit_kind=kind)
            fit = db.ingest_training_run(KEY, 88.0, quad_samples())
            assert len(fit.coefficients) == kind.value + 1

    def test_bad_max_samples_rejected(self):
        with pytest.raises(ConfigurationError):
            ProfilingDatabase(max_samples=2)

    def test_ensure_entry_validates_envelope(self):
        db = ProfilingDatabase()
        with pytest.raises(ConfigurationError):
            db.ensure_entry(KEY, idle_power_w=100.0, max_power_w=90.0)


class TestSnapshotApi:
    """The checkpoint surface: ``state_dict`` / ``load_state_dict``."""

    @pytest.fixture
    def db(self):
        out = ProfilingDatabase()
        out.ingest_training_run(KEY, 88.0, quad_samples())
        out.ingest_training_run(
            ("i5-4460", "SPECjbb"), 47.0,
            [(55.0, 7300.0), (67.0, 12800.0), (80.0, 16600.0)],
        )
        return out

    def test_state_dict_is_a_copy(self, db):
        rec = record(db)
        assert rec["idle_power_w"] == 88.0
        assert rec["powers"] == [p for p, _ in quad_samples()]
        rec["powers"].append(1.0)
        rec["fit"]["coefficients"][0] = 0.0
        assert record(db)["powers"] == [p for p, _ in quad_samples()]
        assert db.projection(KEY).coefficients[0] != 0.0

    def test_snapshot_insertion_order(self, db):
        keys = [(r["platform"], r["workload"]) for r in db.state_dict()["entries"]]
        assert keys == [KEY, ("i5-4460", "SPECjbb")]

    def test_restore_entry_round_trip(self, db):
        fresh = ProfilingDatabase()
        fresh.load_state_dict(db.state_dict())
        assert fresh.state_dict() == db.state_dict()
        # The fit is installed verbatim, not refitted.
        assert fresh.projection(KEY) == db.projection(KEY)

    def test_restore_entry_replaces_existing(self, db):
        state = db.state_dict()
        db.ingest_training_run(KEY, 88.0, quad_samples(powers=(101, 111, 121)))
        assert db.state_dict() != state
        db.load_state_dict(state)
        assert db.state_dict() == state

    def test_restore_rejects_bad_envelope(self, db):
        with pytest.raises(ConfigurationError):
            ProfilingDatabase().load_state_dict(state_with(db, max_power_w=10.0))

    def test_restore_rejects_mismatched_samples(self, db):
        with pytest.raises(ConfigurationError):
            ProfilingDatabase().load_state_dict(state_with(db, perfs=[1.0]))

    @pytest.mark.parametrize("column", ["powers", "perfs"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_restore_rejects_bad_sample(self, db, column, bad):
        values = record(db)[column]
        values[2] = bad
        with pytest.raises(ConfigurationError):
            ProfilingDatabase().load_state_dict(state_with(db, **{column: values}))

    def test_restore_rejects_non_finite_envelope(self, db):
        with pytest.raises(ConfigurationError):
            ProfilingDatabase().load_state_dict(state_with(db, max_power_w=float("inf")))

    @pytest.mark.parametrize("bad", [-5.0, float("nan"), float("inf")])
    def test_restore_rejects_bad_min_active_power(self, db, bad):
        with pytest.raises(ConfigurationError, match="min_active_power_w"):
            ProfilingDatabase().load_state_dict(state_with(db, min_active_power_w=bad))

    def test_restore_rejects_more_samples_than_the_window(self, db):
        state = db.state_dict()
        state["max_samples"] = 4
        with pytest.raises(ConfigurationError):
            ProfilingDatabase().load_state_dict(state)

    def test_restored_entry_keeps_learning(self, db):
        fresh = ProfilingDatabase()
        fresh.load_state_dict(db.state_dict())
        fresh.add_sample(KEY, 140.0, 23000.0)
        assert len(record(fresh)["powers"]) == len(record(db)["powers"]) + 1
