"""Rack structure and power envelopes."""

import pytest

from repro.errors import ConfigurationError, IncompatibleWorkloadError
from repro.servers.rack import Rack


@pytest.fixture
def fig8_rack():
    """The paper's standard 10-server rack (Comb1)."""
    return Rack([("E5-2620", 5), ("i5-4460", 5)], "SPECjbb")


class TestConstruction:
    def test_groups(self, fig8_rack):
        assert len(fig8_rack) == 2
        assert fig8_rack.n_servers == 10
        assert fig8_rack.platform_names == ("E5-2620", "i5-4460")

    def test_empty_rack_rejected(self):
        with pytest.raises(ConfigurationError):
            Rack([], "SPECjbb")

    def test_duplicate_platform_rejected(self):
        with pytest.raises(ConfigurationError):
            Rack([("E5-2620", 2), ("E5-2620", 3)], "SPECjbb")

    def test_zero_count_rejected(self):
        with pytest.raises(ConfigurationError):
            Rack([("E5-2620", 0)], "SPECjbb")

    def test_incompatible_workload_rejected(self):
        with pytest.raises(IncompatibleWorkloadError):
            Rack([("TitanXp", 5)], "SPECjbb")

    def test_per_group_workloads(self):
        rack = Rack(
            [("E5-2620", 5), ("TitanXp", 5)], ["Srad_v1", "Srad_v1"]
        )
        assert all(g.workload.name == "Srad_v1" for g in rack.groups)

    def test_per_group_workload_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            Rack([("E5-2620", 5)], ["SPECjbb", "Mcf"])

    def test_group_key(self, fig8_rack):
        assert fig8_rack.groups[0].key == ("E5-2620", "SPECjbb")


class TestEnvelope:
    def test_envelope_is_platform_peaks(self, fig8_rack):
        assert fig8_rack.envelope_w == pytest.approx(5 * 178 + 5 * 96)

    def test_max_draw_below_envelope(self, fig8_rack):
        assert fig8_rack.max_draw_w < fig8_rack.envelope_w

    def test_idle_power(self, fig8_rack):
        assert fig8_rack.idle_power_w == pytest.approx(5 * 88 + 5 * 47)

    def test_min_active_power_is_cheapest_server(self, fig8_rack):
        i5 = fig8_rack.curve(1)
        assert fig8_rack.min_active_power_w == pytest.approx(i5.min_active_power_w)

    def test_demand_scales_with_load(self, fig8_rack):
        low = fig8_rack.demand_at_load(0.2)
        high = fig8_rack.demand_at_load(1.0)
        assert low < high
        # The SLO headroom keeps utilisation epsilon below 1 at full
        # offered load, so full-load demand sits just under max draw.
        assert high == pytest.approx(fig8_rack.max_draw_w, rel=0.01)

    def test_max_throughput_positive(self, fig8_rack):
        assert fig8_rack.max_throughput > 0


class TestServers:
    def test_describe_mentions_platforms(self, fig8_rack):
        text = fig8_rack.describe()
        assert "E5-2620" in text and "i5-4460" in text and "SPECjbb" in text
