"""The database's centred moment fit against least-squares references.

The fit is checked on every window the live system refits during one
lap of each seed-2021 ``sim-day`` and ``shift-day`` scenario (scenario
seeds 8084-8087, the benchmark's lap rotation), on synthetic degenerate
windows, and across a checkpoint restore.
"""

import math
import warnings

import numpy as np
import pytest

from repro import ExperimentConfig, run_experiment
from repro.core import database as database_module
from repro.core.database import FitKind, ProfilingDatabase
from repro.core.persistence import load_database, save_database
from repro.shift.bench import run_shift_bench

SCENARIOS = (8084, 8085, 8086, 8087)
KEY = ("E5-2620", "SPECjbb")
POINTS = 50


def window(db, key):
    """The pair's retained (powers, perfs), read from ``db.state_dict()``."""
    record = next(
        r for r in db.state_dict()["entries"] if (r["platform"], r["workload"]) == key
    )
    return record["powers"], record["perfs"]


def polyfit_degree(x, fit_kind):
    """The degree rule the fit keeps: distinct 1e-6 W levels, less one."""
    return min(fit_kind.value, max(1, len(np.unique(np.round(x, 6))) - 1))


def centred_lstsq(x, y, degree):
    """Reference projection: ``np.linalg.lstsq`` on centred, scaled abscissae."""
    mu = x.mean()
    scale = np.abs(x - mu).max() or 1.0
    coeffs, *_ = np.linalg.lstsq(np.vander((x - mu) / scale, degree + 1), y, rcond=None)
    return lambda p: np.polyval(coeffs, (p - mu) / scale)


def polyfit(x, y, degree):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # RankWarning on clustered windows
        return np.polyfit(x, y, degree)


def active(powers, perfs):
    x, y = np.asarray(powers), np.asarray(perfs)
    return x[y > 0], y[y > 0]


def assert_projection_close(fit, reference, rel):
    """The projection within ``rel`` of ``reference`` across the fit's power
    box (``np.polyval`` is bit-identical to ``fit.raw``)."""
    grid = np.linspace(fit.min_power_w, fit.max_power_w, POINTS)
    got, want = np.polyval(fit.coefficients, grid), reference(grid)
    bound = np.maximum(rel * np.maximum(np.abs(got), np.abs(want)), 1e-12)
    assert np.all(np.abs(got - want) <= bound), (fit, np.max(np.abs(got - want) / bound))


@pytest.fixture(scope="module")
def live_windows():
    """(fit_kind, powers, perfs, fit) for every refit of the reference laps."""
    captured = []
    refit = ProfilingDatabase.refit

    def capturing(self, key):
        powers, perfs = window(self, key)
        fit = refit(self, key)
        captured.append((self.fit_kind, powers, perfs, fit))
        return fit

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ProfilingDatabase, "refit", capturing)
        for seed in SCENARIOS:
            run_experiment(
                ExperimentConfig.fig8_default(days=3.0, policies=("GreenHetero",), seed=seed)
            )
        sim_day = len(captured)
        for seed in SCENARIOS:
            run_shift_bench(days=1.0, seed=seed, horizon=8, n_jobs=6)
    assert sim_day > 1000 and len(captured) - sim_day > 500
    return captured


class TestLiveWindows:
    def test_matches_centred_lstsq(self, live_windows):
        for fit_kind, powers, perfs, fit in live_windows:
            x, y = active(powers, perfs)
            reference = centred_lstsq(x, y, len(fit.coefficients) - 1)
            assert_projection_close(fit, reference, 1e-9)

    def test_matches_polyfit(self, live_windows):
        for fit_kind, powers, perfs, fit in live_windows:
            x, y = active(powers, perfs)
            degree = polyfit_degree(x, fit_kind)
            assert fit.kind is FitKind(degree)
            assert len(fit.coefficients) == degree + 1
            assert fit.n_samples == len(x)
            coefficients = polyfit(x, y, degree)
            assert_projection_close(fit, lambda p: np.polyval(coefficients, p), 2e-9)


def sum_sq_residuals(coefficients, x, y):
    return float(np.sum((np.polyval(coefficients, x) - y) ** 2))


def degenerate_windows():
    rng = np.random.default_rng(11)
    n = 60
    perf = lambda p: -2.0 * p * p + 600.0 * p - 20000.0  # noqa: E731
    one = np.full(n, 120.0)
    yield "one level", one, perf(one) * (1 + 0.03 * rng.standard_normal(n))
    for noise in (0.02, 1e-5):  # meter noise (the Monitor's default), and near-silent
        two = np.repeat([100.0, 140.0], n // 2) * (1 + noise * rng.standard_normal(n))
        yield f"two levels, noise {noise}", two, perf(two) * (1 + 0.03 * rng.standard_normal(n))


class TestDegenerateWindows:
    @pytest.mark.parametrize("fit_kind", list(FitKind))
    @pytest.mark.parametrize("name,x,y", list(degenerate_windows()))
    def test_finite_silent_and_least_squares(self, fit_kind, name, x, y):
        db = ProfilingDatabase(fit_kind=fit_kind)
        db.ensure_entry(KEY, idle_power_w=80.0, max_power_w=150.0)
        for p, q in zip(x, y):
            db.add_samples(KEY, (float(p),), (float(q),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = db.refit(KEY)
        assert all(math.isfinite(c) for c in fit.coefficients)
        assert fit.kind is FitKind(polyfit_degree(x, fit_kind))
        reference = polyfit(x, y, len(fit.coefficients) - 1)
        assert sum_sq_residuals(fit.coefficients, x, y) <= (
            sum_sq_residuals(reference, x, y) * (1 + 1e-9)
        ), name

    def test_one_level_fits_the_mean(self):
        db = ProfilingDatabase()
        db.ensure_entry(KEY, idle_power_w=80.0, max_power_w=150.0)
        for perf in (100.0, 110.0, 120.0):
            db.add_samples(KEY, (120.0,), (perf,))
        fit = db.refit(KEY)
        assert fit.kind is FitKind.LINEAR
        assert fit.coefficients == (0.0, pytest.approx(110.0, rel=1e-15))

    def test_singular_block_is_refused(self):
        # Three exact levels u = -1, 0, 1: u³ = u on the window, so a
        # 4×4 block is singular and the 3×3 one is not.
        gram = [[3.0, 0.0, 2.0, 0.0, 9.0], [0.0, 2.0, 0.0, 2.0, 1.0],
                [2.0, 0.0, 2.0, 0.0, 7.0], [0.0, 2.0, 0.0, 2.0, 1.0]]
        assert database_module._solve(gram, 4) is None
        assert database_module._solve(gram, 3) == pytest.approx([2.0, 0.5, 1.5])

    def test_elimination_pivots(self):
        # Without the row swap, the 1e-20 pivot's multiplier wipes out x0.
        gram = [[1e-20, 1.0, 1.0], [1.0, 1.0, 2.0]]
        assert database_module._solve(gram, 2) == pytest.approx([1.0, 1.0])

    @pytest.mark.parametrize("fit_kind,levels", [
        (FitKind.QUADRATIC, (100.0, 140.0)),
    ])
    def test_singular_window_drops_one_degree(self, fit_kind, levels):
        # Levels jittered by 5e-7 W count as distinct at the 1e-6 W
        # resolution, but the top power is a combination of the lower
        # ones to working precision: the fit is the next degree down.
        rng = np.random.default_rng(0)
        x = np.repeat(levels, 30) + 5e-7 * rng.standard_normal(30 * len(levels))
        y = np.repeat(levels, 30) * 100.0 * (1 + 0.03 * rng.standard_normal(len(x)))
        db = ProfilingDatabase(fit_kind=fit_kind)
        db.ensure_entry(KEY, idle_power_w=80.0, max_power_w=150.0)
        for p, q in zip(x, y):
            db.add_samples(KEY, (float(p),), (float(q),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = db.refit(KEY)
        assert fit.kind is fit_kind
        assert fit.coefficients[0] == 0.0
        assert all(math.isfinite(c) for c in fit.coefficients)
        lower = polyfit(x, y, fit_kind.value - 1)
        assert sum_sq_residuals(fit.coefficients, x, y) <= (
            sum_sq_residuals(lower, x, y) * (1 + 1e-9)
        )


class TestDistinctLevels:
    @pytest.mark.parametrize("values", [
        [120.0] * 5,
        [120.0, 120.0000004, 120.0000006, 120.0000015],
        [0.0000005, 0.0000015, 0.0000025, 1e-7],
        [100.0, 100.0, 100.0, 100.0, 130.0, 150.0, 170.0],
        list(np.random.default_rng(3).uniform(50.0, 300.0, 40)),
    ])
    def test_matches_numpy_rounding(self, values):
        x = np.asarray(values)
        for cap in (2, 3, 4):
            want = min(cap, len(np.unique(np.round(x, 6))))
            assert database_module._distinct_levels(x, cap) == want


def wrapped_database(max_samples):
    rng = np.random.default_rng(max_samples)
    db = ProfilingDatabase(max_samples=max_samples)
    db.ensure_entry(KEY, idle_power_w=80.0, max_power_w=150.0)
    for p in rng.uniform(90.0, 150.0, 3 * max_samples + 7):
        perf = (-2.0 * p * p + 600.0 * p - 20000.0) * (1 + 0.03 * rng.standard_normal())
        db.add_samples(KEY, (float(p),), (float(perf),))
    db.refit(KEY)
    return db


def assert_refits_identically(live, restored, rng):
    assert restored.refit(KEY).coefficients == live.refit(KEY).coefficients
    for p in rng.uniform(90.0, 150.0, 25):
        for db in (live, restored):
            db.add_samples(KEY, (float(p),), (float(150.0 * p - 5000.0),))
        assert restored.refit(KEY) == live.refit(KEY)
    assert restored.state_dict() == live.state_dict()


class TestRestoreExactness:
    """A restored database refits bit for bit like the live one."""

    @pytest.mark.parametrize("max_samples", [16, 256])
    def test_restore_entry(self, max_samples):
        live = wrapped_database(max_samples)
        restored = ProfilingDatabase()
        restored.load_state_dict(live.state_dict())
        assert restored.state_dict() == live.state_dict()
        assert_refits_identically(live, restored, np.random.default_rng(1))

    @pytest.mark.parametrize("max_samples", [16, 256])
    def test_save_and_load(self, max_samples, tmp_path):
        live = wrapped_database(max_samples)
        save_database(live, tmp_path / "db.json")
        restored = load_database(tmp_path / "db.json")
        assert restored.state_dict() == live.state_dict()
        assert_refits_identically(live, restored, np.random.default_rng(2))
