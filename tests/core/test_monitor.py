"""Monitor: seeded noisy sensing."""

import numpy as np
import pytest

from repro.core.monitor import Monitor
from repro.errors import ConfigurationError
from repro.servers.power_model import ServerSample


def sample(power=100.0, perf=5000.0):
    return ServerSample(power_w=power, throughput=perf, state_index=5, utilization=0.8)


class TestNoise:
    def test_deterministic_per_seed(self):
        m1, m2 = Monitor(seed=3), Monitor(seed=3)
        assert m1.observe_server(sample()) == m2.observe_server(sample())

    def test_different_seeds_differ(self):
        p1, _ = Monitor(seed=1).observe_server(sample())
        p2, _ = Monitor(seed=2).observe_server(sample())
        assert p1 != p2

    def test_zero_noise_is_exact(self):
        m = Monitor(power_noise=0.0, perf_noise=0.0, renewable_noise=0.0)
        assert m.observe_server(sample()) == (100.0, 5000.0)
        assert m.observe_renewable(750.0) == 750.0
        assert m.observe_demand(900.0) == 900.0

    def test_noise_centered_on_truth(self):
        m = Monitor(power_noise=0.05, seed=0)
        readings = [m.observe_server(sample())[0] for _ in range(500)]
        assert np.mean(readings) == pytest.approx(100.0, rel=0.02)
        assert np.std(readings) == pytest.approx(5.0, rel=0.25)

    def test_never_negative(self):
        m = Monitor(power_noise=1.0, perf_noise=1.0, seed=0)  # huge noise
        for _ in range(200):
            power_w, throughput = m.observe_server(sample())
            assert power_w >= 0.0
            assert throughput >= 0.0

    def test_zero_value_stays_zero(self):
        m = Monitor(seed=0)
        assert m.observe_server(ServerSample(0.0, 0.0, 0, 0.0)) == (0.0, 0.0)

    def test_power_read_before_throughput(self):
        """Two draws, power first: the stream of the scalar meters."""
        m, ref = Monitor(seed=0), Monitor(seed=0)
        assert m.observe_server(sample()) == (
            ref._jitter(100.0, ref.power_noise), ref._jitter(5000.0, ref.perf_noise)
        )
        assert m.state_dict() == ref.state_dict()

    def test_observe_throughput(self):
        m = Monitor(perf_noise=0.0)
        assert m.observe_throughputs([42.0, 0.0]) == [42.0, 0.0]
        # One draw over the non-zero figures: the stream of the scalar
        # meter called on each figure in turn.
        m, ref = Monitor(seed=0), Monitor(seed=0)
        figures = [42.0, 0.0, 5000.0, 17.5]
        assert m.observe_throughputs(figures) == [
            ref._jitter(value, ref.perf_noise) for value in figures
        ]
        assert m.state_dict() == ref.state_dict()

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigurationError):
            Monitor(power_noise=-0.1)


class TestEpochMeter:
    """One noise draw per epoch reads exactly what the scalar meters read."""

    SIGMAS = [
        dict(),
        dict(power_noise=0.0),
        dict(perf_noise=0.0),
        dict(renewable_noise=0.0),
        dict(power_noise=0.0, perf_noise=0.0, renewable_noise=0.0),
    ]
    SAMPLES = [
        sample(120.0, 17000.0),
        ServerSample(0.0, 0.0, 0, 0.0),  # an off group
        sample(3.0, 0.0),  # asleep: power but no throughput
        sample(65.0, 9000.0),
    ]
    RENEWABLE_W = [0.0, 412.5, 980.0, 0.0, 1310.25, 0.0]  # PV zero at night

    @staticmethod
    def scalar_epoch(m, samples, renewable_w):
        powers = [[] for _ in samples]
        perfs = [[] for _ in samples]
        renewables = []
        for power_w in renewable_w:
            for g, s in enumerate(samples):
                powers[g].append(m._jitter(s.power_w, m.power_noise))
                perfs[g].append(m._jitter(s.throughput, m.perf_noise))
            renewables.append(m._jitter(power_w, m.renewable_noise))
        return powers, perfs, renewables

    @pytest.mark.parametrize("sigmas", SIGMAS)
    @pytest.mark.parametrize("seed", [0, 1, 7, 2021, 8084])
    def test_equals_scalar_jitter_sequence(self, seed, sigmas):
        batched, scalar = Monitor(seed=seed, **sigmas), Monitor(seed=seed, **sigmas)
        for _ in range(3):  # later epochs continue the same stream
            got = batched.observe_epoch(self.SAMPLES, self.RENEWABLE_W)
            want = self.scalar_epoch(scalar, self.SAMPLES, self.RENEWABLE_W)
            assert got == want
            assert batched.state_dict() == scalar.state_dict()

    def test_all_zero_draws_nothing(self):
        m = Monitor(seed=3)
        before = m.state_dict()
        off = ServerSample(0.0, 0.0, 0, 0.0)
        powers, perfs, renewables = m.observe_epoch([off, off], [0.0] * 6)
        assert powers == perfs == [[0.0] * 6, [0.0] * 6]
        assert renewables == [0.0] * 6
        assert m.state_dict() == before

    def test_readings_per_group_and_substep(self):
        m = Monitor(seed=4)
        powers, perfs, renewables = m.observe_epoch(self.SAMPLES, self.RENEWABLE_W)
        assert [len(p) for p in powers] == [len(self.RENEWABLE_W)] * len(self.SAMPLES)
        assert [len(p) for p in perfs] == [len(self.RENEWABLE_W)] * len(self.SAMPLES)
        assert len(renewables) == len(self.RENEWABLE_W)
