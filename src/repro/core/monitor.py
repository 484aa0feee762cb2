"""The Monitor module (paper Fig. 4, left).

The Monitor is the controller's sensing layer: it reads the distributed
power sensors (renewable generation, battery discharge current) and the
per-server power meters and performance counters, and reports them to
the scheduler.  Real sensors are noisy, and that noise is load-bearing
here — it is why the profiling database's online re-fitting
(GreenHetero) beats the one-shot fit (GreenHetero-a).

All noise is multiplicative Gaussian with per-channel sigmas, generated
from a seeded RNG so runs are reproducible.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import load_rng_state
from repro.servers.power_model import ServerSample


class Monitor:
    """Seeded, noisy sensing of power and performance.

    Parameters
    ----------
    power_noise:
        Relative sigma of the external power meter (paper's ZH-101-class
        meters are ~1-3% accurate).
    perf_noise:
        Relative sigma of throughput measurements (run-to-run variance).
    renewable_noise:
        Relative sigma of the PV generation sensor.
    seed:
        RNG seed.
    """

    def __init__(
        self,
        power_noise: float = 0.02,
        perf_noise: float = 0.03,
        renewable_noise: float = 0.01,
        seed: int = 0,
    ) -> None:
        for name, value in (
            ("power_noise", power_noise),
            ("perf_noise", perf_noise),
            ("renewable_noise", renewable_noise),
        ):
            if value < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        self.power_noise = power_noise
        self.perf_noise = perf_noise
        self.renewable_noise = renewable_noise
        self._rng = np.random.default_rng(seed)

    def state_dict(self) -> dict[str, Any]:
        """The noise RNG's bit-generator state (the sigmas are config)."""
        return self._rng.bit_generator.state

    def load_state_dict(self, state: dict[str, Any]) -> None:
        """Install a :meth:`state_dict` capture."""
        load_rng_state(self._rng, state)

    def _jitter(self, value: float, sigma: float) -> float:
        if sigma == 0.0 or value == 0.0:
            return value
        return max(0.0, value * (1.0 + sigma * float(self._rng.standard_normal())))

    def _jitter_all(self, channels: list[tuple[float, float]]) -> list[float]:
        """:meth:`_jitter` on each ``(value, sigma)`` in order, from one draw.

        One ``standard_normal(k)`` call returns the stream of ``k`` scalar
        calls, so the readings and the RNG state afterwards are those of
        calling :meth:`_jitter` on each channel in turn.
        """
        k = sum(1 for value, sigma in channels if value != 0.0 and sigma != 0.0)
        if not k:
            return [value for value, _ in channels]
        noise = iter(self._rng.standard_normal(k).tolist())
        return [
            value if sigma == 0.0 or value == 0.0
            else max(0.0, value * (1.0 + sigma * next(noise)))
            for value, sigma in channels
        ]

    def observe_epoch(
        self, samples: Sequence[ServerSample], renewable_w: Sequence[float]
    ) -> tuple[list[list[float]], list[list[float]], list[float]]:
        """Meter one epoch's substeps: each group's operating point, then the PV.

        ``samples`` holds each group's operating point, which holds for
        the whole epoch; ``renewable_w`` holds the PV output at each
        substep.  The readings equal those of the scalar meters called in
        substep order (for each substep, every group's power then
        throughput as :meth:`observe_server` reads them, then
        :meth:`observe_renewable`), and so does the RNG state afterwards:
        the noise comes from one draw, and a zero value or a zero sigma
        consumes none.

        Returns ``(powers, throughputs, renewables)``: ``powers[g]`` and
        ``throughputs[g]`` are group ``g``'s readings, one per substep,
        and ``renewables`` the PV readings.
        """
        point: list[tuple[float, float]] = []
        for sample in samples:
            point.append((sample.power_w, self.power_noise))
            point.append((sample.throughput, self.perf_noise))
        channels: list[tuple[float, float]] = []
        for power_w in renewable_w:
            channels += point
            channels.append((power_w, self.renewable_noise))
        readings = self._jitter_all(channels)
        stride = len(point) + 1
        return (
            [readings[2 * g::stride] for g in range(len(samples))],
            [readings[2 * g + 1::stride] for g in range(len(samples))],
            readings[stride - 1::stride],
        )

    def observe_server(self, sample: ServerSample) -> tuple[float, float]:
        """Meter one server's operating point: ``(power_w, throughput)``,
        the power read first."""
        return (
            self._jitter(sample.power_w, self.power_noise),
            self._jitter(sample.throughput, self.perf_noise),
        )

    def observe_renewable(self, power_w: float) -> float:
        """Meter the PV array's instantaneous output."""
        return self._jitter(power_w, self.renewable_noise)

    def observe_throughputs(self, throughputs: Sequence[float]) -> list[float]:
        """Meter aggregate throughput figures (e.g. Manual's trial runs),
        each on its own, in order, from one noise draw."""
        return self._jitter_all([(value, self.perf_noise) for value in throughputs])

    def observe_demand(self, power_w: float) -> float:
        """Meter the rack's aggregate power demand."""
        return self._jitter(power_w, self.power_noise)
