"""Offered-load generation."""

import pytest

from repro.errors import ConfigurationError
from repro.workloads import generator
from repro.workloads.catalog import get_workload
from repro.workloads.generator import LoadGenerator


def half_sine(t):
    # A simple valid pattern in [0, 1].
    return 0.5


class TestBatch:
    def test_batch_always_full_load(self):
        gen = LoadGenerator(get_workload("Streamcluster"), pattern=half_sine)
        for t in (0.0, 3600.0, 86400.0):
            assert gen.at(t).fraction == 1.0

    def test_no_pattern_means_full_load(self):
        gen = LoadGenerator(get_workload("SPECjbb"), pattern=None)
        assert gen.at(100.0).fraction == 1.0


class TestInteractive:
    def test_follows_pattern(self, monkeypatch):
        monkeypatch.setattr(generator, "LOAD_JITTER", 0.0)
        gen = LoadGenerator(get_workload("SPECjbb"), pattern=half_sine)
        assert gen.at(0.0).fraction == pytest.approx(0.5)

    def test_jitter_is_seeded(self):
        g1 = LoadGenerator(get_workload("SPECjbb"), pattern=half_sine, seed=7)
        g2 = LoadGenerator(get_workload("SPECjbb"), pattern=half_sine, seed=7)
        assert [g1.at(t).fraction for t in range(5)] == [
            g2.at(t).fraction for t in range(5)
        ]

    def test_different_seeds_differ(self):
        g1 = LoadGenerator(get_workload("SPECjbb"), pattern=half_sine, seed=1)
        g2 = LoadGenerator(get_workload("SPECjbb"), pattern=half_sine, seed=2)
        assert g1.at(0.0).fraction != g2.at(0.0).fraction

    def test_clamped_to_unit_interval(self, monkeypatch):
        monkeypatch.setattr(generator, "LOAD_JITTER", 0.5)
        gen = LoadGenerator(get_workload("SPECjbb"), pattern=lambda t: 1.0, seed=3)
        for t in range(50):
            assert 0.0 <= gen.at(float(t)).fraction <= 1.0

    def test_bad_pattern_value_rejected(self):
        gen = LoadGenerator(get_workload("SPECjbb"), pattern=lambda t: 1.5)
        with pytest.raises(ConfigurationError):
            gen.at(0.0)

    def test_series(self, monkeypatch):
        monkeypatch.setattr(generator, "LOAD_JITTER", 0.0)
        gen = LoadGenerator(get_workload("SPECjbb"), pattern=half_sine)
        loads = [gen.at(t) for t in (0.0, 60.0, 120.0)]
        assert len(loads) == 3
        assert [l.time_s for l in loads] == [0.0, 60.0, 120.0]
