"""Server platform registry (paper Table II)."""

import pytest

from repro.errors import ConfigurationError, UnknownPlatformError
from repro.servers.platform import (
    GOOGLE_DC_CONFIG_COUNTS,
    PLATFORMS,
    DeviceClass,
    ServerSpec,
    get_platform,
    platform_names,
    register_platform,
)


class TestTableII:
    """The six rows of Table II must be encoded exactly."""

    def test_six_platforms(self):
        assert len(platform_names()) >= 6

    @pytest.mark.parametrize(
        "name,freq_ghz,sockets,cores,peak,idle",
        [
            ("E5-2620", 2.0, 2, 12, 178.0, 88.0),
            ("E5-2650", 2.0, 1, 8, 112.0, 66.0),
            ("E5-2603", 1.8, 1, 4, 79.0, 58.0),
            ("i7-8700K", 3.7, 1, 6, 88.0, 39.0),
            ("i5-4460", 3.2, 1, 4, 96.0, 47.0),
            ("TitanXp", 1.582, 1, 3840, 411.0, 149.0),
        ],
    )
    def test_spec_values(self, name, freq_ghz, sockets, cores, peak, idle):
        spec = get_platform(name)
        assert spec.base_frequency_hz == pytest.approx(freq_ghz * 1e9)
        assert spec.sockets == sockets
        assert spec.cores == cores
        assert spec.peak_power_w == peak
        assert spec.idle_power_w == idle

    def test_only_titan_is_gpu(self):
        gpus = [s for s in PLATFORMS.values() if s.device_class is DeviceClass.GPU]
        assert [g.name for g in gpus] == ["TitanXp"]

    def test_dynamic_range(self):
        assert get_platform("E5-2620").dynamic_range_w == pytest.approx(90.0)

    def test_is_gpu_flag(self):
        assert get_platform("TitanXp").device_class is DeviceClass.GPU
        assert get_platform("i5-4460").device_class is not DeviceClass.GPU


class TestLookup:
    def test_case_insensitive(self):
        assert get_platform("e5-2620").name == "E5-2620"

    def test_aliases(self):
        assert get_platform("i5").name == "i5-4460"
        assert get_platform("Titan Xp").name == "TitanXp"
        assert get_platform("Xeon E5-2650").name == "E5-2650"

    def test_unknown_raises_with_known_list(self):
        with pytest.raises(UnknownPlatformError) as info:
            get_platform("Epyc-7742")
        assert "Epyc-7742" in str(info.value)
        assert "E5-2620" in str(info.value)


class TestSpecValidation:
    def _spec(self, **overrides):
        base = dict(
            name="test-box",
            device_class=DeviceClass.CPU,
            base_frequency_hz=2.0e9,
            sockets=1,
            cores=4,
            peak_power_w=100.0,
            idle_power_w=40.0,
        )
        base.update(overrides)
        return ServerSpec(**base)

    def test_valid_spec(self):
        spec = self._spec()
        assert spec.dynamic_range_w == 60.0

    def test_peak_must_exceed_idle(self):
        with pytest.raises(ConfigurationError):
            self._spec(peak_power_w=40.0, idle_power_w=40.0)

    def test_negative_idle_rejected(self):
        with pytest.raises(ConfigurationError):
            self._spec(idle_power_w=-1.0, peak_power_w=100.0)

    def test_zero_cores_rejected(self):
        with pytest.raises(ConfigurationError):
            self._spec(cores=0)

    def test_too_few_dvfs_levels_rejected(self):
        with pytest.raises(ConfigurationError):
            self._spec(dvfs_levels=1)

    def test_min_frequency_defaults_to_40_percent(self):
        spec = self._spec()
        assert spec.min_frequency_hz == pytest.approx(0.8e9)

    def test_min_frequency_must_be_below_base(self):
        with pytest.raises(ConfigurationError):
            self._spec(min_frequency_hz=3.0e9)


class TestGoogleData:
    """Fig. 1 motivation data."""

    def test_ten_datacenters(self):
        assert len(GOOGLE_DC_CONFIG_COUNTS) == 10

    def test_counts_range_two_to_five(self):
        assert min(GOOGLE_DC_CONFIG_COUNTS) == 2
        assert max(GOOGLE_DC_CONFIG_COUNTS) == 5

    def test_eighty_percent_run_two_or_three(self):
        # Section IV-B.3: "80% of datacenters consist of two and three
        # types of server configurations".
        small = sum(1 for c in GOOGLE_DC_CONFIG_COUNTS if c in (2, 3))
        assert small / len(GOOGLE_DC_CONFIG_COUNTS) == pytest.approx(0.8)


class TestRegistration:
    def test_register_and_lookup(self):
        spec = ServerSpec(
            name="test-reg-box",
            device_class=DeviceClass.CPU,
            base_frequency_hz=2.4e9,
            sockets=1,
            cores=8,
            peak_power_w=150.0,
            idle_power_w=60.0,
        )
        register_platform(spec, aliases=("my box",))
        try:
            assert get_platform("test-reg-box") is spec
            assert get_platform("My Box") is spec
        finally:
            del PLATFORMS["test-reg-box"]

    def test_duplicate_name_rejected(self):
        with pytest.raises(ConfigurationError):
            register_platform(get_platform("E5-2620"))
