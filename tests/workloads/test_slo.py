"""Latency-SLO constrained throughput model."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.workloads.slo import LatencySLO, slo_constrained_throughput


class TestLatencySLO:
    def test_headroom_formula(self):
        slo = LatencySLO(percentile=0.99, bound_s=0.5)
        assert slo.headroom_ops == pytest.approx(math.log(100) / 0.5)

    def test_tighter_bound_more_headroom(self):
        loose = LatencySLO(0.95, 0.5)
        tight = LatencySLO(0.95, 0.01)
        assert tight.headroom_ops > loose.headroom_ops

    def test_higher_percentile_more_headroom(self):
        p90 = LatencySLO(0.90, 0.5)
        p99 = LatencySLO(0.99, 0.5)
        assert p99.headroom_ops > p90.headroom_ops

    def test_describe(self):
        assert LatencySLO(0.99, 0.5).describe() == "99%-ile 500ms"

    @pytest.mark.parametrize("pct", [0.0, 1.0, -0.1, 1.5])
    def test_bad_percentile_rejected(self, pct):
        with pytest.raises(ConfigurationError):
            LatencySLO(pct, 0.5)

    def test_bad_bound_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencySLO(0.99, 0.0)


class TestConstrainedThroughput:
    def test_none_slo_passes_capacity_through(self):
        assert slo_constrained_throughput(1234.0, None) == 1234.0

    def test_subtracts_headroom(self):
        slo = LatencySLO(0.99, 0.5)
        assert slo_constrained_throughput(1000.0, slo) == pytest.approx(
            1000.0 - slo.headroom_ops
        )

    def test_floors_at_zero(self):
        slo = LatencySLO(0.99, 0.001)  # enormous headroom
        assert slo_constrained_throughput(10.0, slo) == 0.0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            slo_constrained_throughput(-1.0, None)
