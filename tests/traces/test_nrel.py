"""Synthetic NREL-style irradiance traces."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.traces.nrel import (
    _CLOUDS,
    GHI_PEAK,
    SAMPLE_INTERVAL_S,
    IrradianceTrace,
    Weather,
    clear_sky_irradiance,
    load_irradiance_csv,
    synthesize_irradiance,
)
from repro.units import SECONDS_PER_DAY, hours


class TestClearSky:
    def test_zero_at_night(self):
        assert clear_sky_irradiance(hours(0)) == 0.0
        assert clear_sky_irradiance(hours(5.9)) == 0.0
        assert clear_sky_irradiance(hours(18.1)) == 0.0

    def test_peak_at_noon(self):
        noon = clear_sky_irradiance(hours(12))
        assert noon == pytest.approx(GHI_PEAK)
        assert clear_sky_irradiance(hours(9)) < noon
        assert clear_sky_irradiance(hours(15)) < noon

    def test_symmetric_about_noon(self):
        assert clear_sky_irradiance(hours(10)) == pytest.approx(
            clear_sky_irradiance(hours(14))
        )

    def test_wraps_daily(self):
        assert clear_sky_irradiance(hours(12)) == pytest.approx(
            clear_sky_irradiance(hours(36))
        )


class TestSynthesis:
    def test_deterministic_per_seed(self):
        a = synthesize_irradiance(days=1, seed=42)
        b = synthesize_irradiance(days=1, seed=42)
        assert np.array_equal(a.values_w_m2, b.values_w_m2)

    def test_seeds_differ(self):
        a = synthesize_irradiance(days=1, seed=1)
        b = synthesize_irradiance(days=1, seed=2)
        assert not np.array_equal(a.values_w_m2, b.values_w_m2)

    def test_one_week_at_15_minutes(self):
        trace = synthesize_irradiance(days=7)
        assert len(trace.times_s) == 7 * 96
        assert trace.interval_s == 900.0

    def test_never_exceeds_clear_sky(self):
        trace = synthesize_irradiance(days=3, weather=Weather.HIGH, seed=3)
        for t, v in zip(trace.times_s, trace.values_w_m2):
            assert v <= clear_sky_irradiance(t) + 1e-9

    def test_high_outproduces_low(self):
        high = synthesize_irradiance(days=7, weather=Weather.HIGH, seed=4)
        low = synthesize_irradiance(days=7, weather=Weather.LOW, seed=4)
        assert high.mean_w_m2() > 1.3 * low.mean_w_m2()

    def test_low_trace_more_variable(self):
        # Fig. 11: "the power supply ... becomes more fluctuated".
        high = synthesize_irradiance(days=7, weather=Weather.HIGH, seed=4)
        low = synthesize_irradiance(days=7, weather=Weather.LOW, seed=4)

        def daytime_cv(trace):
            day = trace.values_w_m2[trace.values_w_m2 > 1.0]
            clear = np.array(
                [clear_sky_irradiance(t) for t, v in zip(trace.times_s, trace.values_w_m2) if v > 1.0]
            )
            ratio = day / clear
            return ratio.std()

        assert daytime_cv(low) > daytime_cv(high)

    def test_bad_days_rejected(self):
        with pytest.raises(TraceError):
            synthesize_irradiance(days=0)


def scalar_synthesis(days, weather, seed):
    """The synthesis with one noise draw per sample and the clear-sky
    curve evaluated on numpy scalars: the loop the one-draw version
    must reproduce bit for bit."""
    params = _CLOUDS[weather]
    rng = np.random.default_rng(seed)
    n = int(days * SECONDS_PER_DAY // SAMPLE_INTERVAL_S)
    times = np.arange(n, dtype=float) * SAMPLE_INTERVAL_S
    clearness = np.empty(n)
    x = params.mean_clearness
    for i in range(n):
        x += params.reversion * (params.mean_clearness - x)
        x += params.sigma * rng.standard_normal()
        x = min(max(x, 0.05), 1.0)
        clearness[i] = x
    for _ in range(rng.poisson(params.event_rate_per_day * days)):
        start = rng.uniform(0.0, days * SECONDS_PER_DAY)
        duration = rng.uniform(*params.event_duration_s)
        depth = rng.uniform(*params.event_depth)
        lo = int(start // SAMPLE_INTERVAL_S)
        hi = int((start + duration) // SAMPLE_INTERVAL_S) + 1
        clearness[lo:hi] *= 1.0 - depth
    return times, np.array([clear_sky_irradiance(t) for t in times]) * clearness


@pytest.mark.parametrize("weather", list(Weather))
@pytest.mark.parametrize("days", [0.5, 1, 7, 7.3, 10])
def test_one_draw_synthesis_matches_scalar_loop(weather, days):
    for seed in range(60):
        trace = synthesize_irradiance(days=days, weather=weather, seed=seed)
        times, values = scalar_synthesis(days, weather, seed)
        assert trace.times_s.tobytes() == times.tobytes()
        assert trace.values_w_m2.tobytes() == values.tobytes(), seed


class TestTraceContainer:
    def test_at_zero_order_hold(self):
        trace = synthesize_irradiance(days=1, seed=9)
        assert trace.at(0.0) == trace.values_w_m2[0]
        assert trace.at(450.0) == trace.values_w_m2[0]
        assert trace.at(900.0) == trace.values_w_m2[1]

    def test_at_wraps_past_end(self):
        trace = synthesize_irradiance(days=1, seed=9)
        assert trace.at(SECONDS_PER_DAY + 450.0) == trace.at(450.0)

    def test_at_wraps_negative(self):
        trace = synthesize_irradiance(days=1, seed=9)
        assert trace.at(-900.0) == trace.at(SECONDS_PER_DAY - 900.0)

    def test_at_matches_the_numpy_scalar_formula(self):
        # ``at`` reads cached Python floats; it must answer exactly what
        # the formula on the trace's numpy arrays answers, wrap included.
        def reference(trace, time_s):
            times, values = trace.times_s, trace.values_w_m2
            wrapped = (time_s - times[0]) % trace.duration_s + times[0]
            idx = int((wrapped - times[0]) // trace.interval_s)
            return float(values[min(idx, len(values) - 1)])

        week = synthesize_irradiance(days=7, seed=3)
        day2 = synthesize_irradiance(days=3, seed=4).window(
            SECONDS_PER_DAY, 2 * SECONDS_PER_DAY)  # starts at 86,400 s
        odd = IrradianceTrace(37.5 + 60.0 * np.arange(500), np.linspace(0.0, 900.0, 500))
        rng = np.random.default_rng(2021)
        for trace in (week, day2, odd):
            span = trace.duration_s
            # Sample edges and their float neighbours, where the wrap's
            # rounding decides the index.
            grid = trace.times_s[0] + trace.interval_s * np.arange(-2000, 2000)
            times = [
                *rng.uniform(-3 * span, 4 * span, 60_000).tolist(),
                *grid.tolist(),
                *np.nextafter(grid, -np.inf).tolist(),
                *np.nextafter(grid, np.inf).tolist(),
                *(k * 150.0 for k in range(-1000, 4000)),  # substep reads
                -0.0, 1e-300, -1e-300, 1e12, -1e12,
            ]
            for t in times:
                assert trace.at(t) == reference(trace, t), t

    def test_arrays_are_read_only(self):
        trace = synthesize_irradiance(days=1, seed=9)
        with pytest.raises(ValueError):
            trace.values_w_m2[0] = 1.0
        with pytest.raises(ValueError):
            trace.times_s[0] = 1.0

    def test_window(self):
        trace = synthesize_irradiance(days=2, seed=9)
        day2 = trace.window(SECONDS_PER_DAY, 2 * SECONDS_PER_DAY)
        assert len(day2.times_s) == 96

    def test_window_too_small_rejected(self):
        trace = synthesize_irradiance(days=1, seed=9)
        with pytest.raises(TraceError):
            trace.window(0.0, 900.0)

    def test_validation_irregular_sampling(self):
        with pytest.raises(TraceError):
            IrradianceTrace(np.array([0.0, 900.0, 2000.0]), np.zeros(3))

    def test_validation_negative_values(self):
        with pytest.raises(TraceError):
            IrradianceTrace(np.array([0.0, 900.0]), np.array([1.0, -1.0]))

    def test_validation_too_short(self):
        with pytest.raises(TraceError):
            IrradianceTrace(np.array([0.0]), np.array([1.0]))

    def test_validation_non_increasing(self):
        with pytest.raises(TraceError):
            IrradianceTrace(np.array([900.0, 0.0]), np.array([1.0, 1.0]))


class TestCsvRoundTrip:
    def test_save_and_load(self, tmp_path):
        trace = synthesize_irradiance(days=1, seed=11)
        path = tmp_path / "trace.csv"
        trace.save_csv(path)
        loaded = load_irradiance_csv(path)
        assert np.allclose(loaded.values_w_m2, trace.values_w_m2, atol=1e-3)
        assert loaded.name == "trace"

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(TraceError):
            load_irradiance_csv(path)

    def test_bad_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,ghi_w_m2\n0,x\n")
        with pytest.raises(TraceError):
            load_irradiance_csv(path)


class TestMidcFormat:
    """Parsing real NREL MIDC exports (the paper's data source)."""

    def _write_midc(self, path, rows, ghi_header="Global Horizontal [W/m^2]"):
        lines = [f"DATE (MM/DD/YYYY),MST,{ghi_header}"]
        lines += [",".join(str(v) for v in row) for row in rows]
        path.write_text("\n".join(lines) + "\n")

    def test_parses_midc_export(self, tmp_path):
        from repro.traces.nrel import load_midc_csv

        path = tmp_path / "midc.csv"
        self._write_midc(
            path,
            [
                ("07/01/2020", "10:00", 650.2),
                ("07/01/2020", "10:15", 675.9),
                ("07/01/2020", "10:30", 640.1),
            ],
        )
        trace = load_midc_csv(path)
        assert trace.interval_s == 900.0
        assert trace.at(0.0) == pytest.approx(650.2)
        assert trace.name == "midc"

    def test_clamps_negative_night_readings(self, tmp_path):
        from repro.traces.nrel import load_midc_csv

        path = tmp_path / "midc.csv"
        self._write_midc(
            path,
            [
                ("07/01/2020", "02:00", -1.8),
                ("07/01/2020", "02:15", -2.1),
            ],
        )
        trace = load_midc_csv(path)
        assert trace.at(0.0) == 0.0

    def test_crosses_midnight(self, tmp_path):
        from repro.traces.nrel import load_midc_csv

        path = tmp_path / "midc.csv"
        self._write_midc(
            path,
            [
                ("07/01/2020", "23:45", 0.0),
                ("07/02/2020", "00:00", 0.0),
                ("07/02/2020", "00:15", 0.0),
            ],
        )
        trace = load_midc_csv(path)
        assert trace.interval_s == 900.0

    def test_missing_ghi_column_rejected(self, tmp_path):
        from repro.traces.nrel import load_midc_csv

        path = tmp_path / "midc.csv"
        self._write_midc(path, [("07/01/2020", "10:00", 1.0)], ghi_header="Diffuse")
        with pytest.raises(TraceError):
            load_midc_csv(path)

    def test_bad_row_rejected(self, tmp_path):
        from repro.traces.nrel import load_midc_csv

        path = tmp_path / "midc.csv"
        self._write_midc(path, [("07/01/2020", "oops", 1.0), ("07/01/2020", "10:15", 2.0)])
        with pytest.raises(TraceError):
            load_midc_csv(path)

    def test_loaded_trace_drives_a_farm(self, tmp_path):
        from repro.power.solar import SolarFarm
        from repro.traces.nrel import load_midc_csv

        path = tmp_path / "midc.csv"
        self._write_midc(
            path,
            [("07/01/2020", f"{10 + i // 4:02d}:{(i % 4) * 15:02d}", 500.0 + i)
             for i in range(8)],
        )
        farm = SolarFarm.sized_for(load_midc_csv(path), peak_power_w=1500.0)
        assert farm.power_at(0.0) > 0.0
