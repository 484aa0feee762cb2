"""Telemetry: the per-epoch record log and its analysis views.

:class:`TelemetryLog` accumulates :class:`~repro.core.controller.EpochRecord`
objects and exposes the numpy series the figures need (throughput, EPU,
PAR, battery activity, ...), plus masks for the supply regimes the paper
slices its analysis by, and a CSV export for external tooling.
"""

from __future__ import annotations

import csv
import dataclasses
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from repro.core.controller import EpochRecord
from repro.core.sources import PowerCase
from repro.errors import SimulationError

#: ``EpochRecord``'s field names in declaration order, resolved once.
_RECORD_FIELDS = tuple(field.name for field in dataclasses.fields(EpochRecord))


def record_to_dict(record: EpochRecord) -> dict[str, Any]:
    """One :class:`EpochRecord` as a JSON-ready dictionary.

    Enums become their string values and tuples become lists; this is
    the event format of the :mod:`repro.serve` daemon's audit stream.
    """
    data = {name: getattr(record, name) for name in _RECORD_FIELDS}
    data["case"] = record.case.value
    data["charge_source"] = record.charge_source.value
    data["ratios"] = list(record.ratios)
    data["group_budgets_w"] = list(record.group_budgets_w)
    data["state_indices"] = list(record.state_indices)
    data["trained_pairs"] = [list(pair) for pair in record.trained_pairs]
    if record.powered_counts is not None:
        data["powered_counts"] = list(record.powered_counts)
    return data


class TelemetryLog:
    """Ordered log of epoch records for one policy run."""

    def __init__(self) -> None:
        self._records: list[EpochRecord] = []

    def append(self, record: EpochRecord) -> None:
        if self._records and record.time_s <= self._records[-1].time_s:
            raise SimulationError("epoch records must arrive in time order")
        self._records.append(record)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[EpochRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> EpochRecord:
        return self._records[index]

    # ------------------------------------------------------------------
    # Series
    # ------------------------------------------------------------------
    def _require_nonempty(self) -> None:
        if not self._records:
            raise SimulationError("telemetry log is empty")

    def series(self, field: str) -> np.ndarray:
        """Any scalar EpochRecord field as a float array."""
        self._require_nonempty()
        return np.array([float(getattr(r, field)) for r in self._records])

    @property
    def times_s(self) -> np.ndarray:
        return self.series("time_s")

    @property
    def throughputs(self) -> np.ndarray:
        return self.series("throughput")

    @property
    def epus(self) -> np.ndarray:
        return self.series("epu")

    @property
    def demands_w(self) -> np.ndarray:
        return self.series("demand_w")

    @property
    def pars(self) -> np.ndarray:
        """First group's PAR (the paper's x%-to-Server-A convention)."""
        self._require_nonempty()
        return np.array([r.ratios[0] for r in self._records])

    @property
    def battery_soc_wh(self) -> np.ndarray:
        return self.series("battery_soc_wh")

    @property
    def cases(self) -> list[PowerCase]:
        self._require_nonempty()
        return [r.case for r in self._records]

    # ------------------------------------------------------------------
    # Regime masks (the paper analyses insufficient-supply epochs)
    # ------------------------------------------------------------------
    def insufficient_mask(self) -> np.ndarray:
        """True where the renewable supply fell short of demand.

        The paper's analysis regime: "when the renewable power supply is
        insufficient (i.e., Case B and C)".  The regime is a property of
        the traces, so it is (nearly) policy-independent and safe to use
        as a shared mask across policy runs.
        """
        self._require_nonempty()
        return ~self.case_mask(PowerCase.A)

    def case_mask(self, *cases: PowerCase) -> np.ndarray:
        self._require_nonempty()
        wanted = set(cases)
        return np.array([r.case in wanted for r in self._records])

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def mean_throughput(self, mask: np.ndarray | None = None) -> float:
        return self._masked_mean(self.throughputs, mask)

    def mean_epu(self, mask: np.ndarray | None = None) -> float:
        return self._masked_mean(self.epus, mask)

    def mean_par(self, mask: np.ndarray | None = None) -> float:
        return self._masked_mean(self.pars, mask)

    def grid_energy_wh(self, epoch_s: float) -> float:
        """Total grid energy over the run (load + charging), Wh."""
        self._require_nonempty()
        grid_w = self.series("grid_to_load_w") + np.array(
            [
                r.charge_w if r.charge_source.value == "grid" else 0.0
                for r in self._records
            ]
        )
        return float(grid_w.sum() * epoch_s / 3600.0)

    def discharge_hours(self, epoch_s: float) -> float:
        """Hours during which the battery was discharging to the load."""
        self._require_nonempty()
        discharging = self.series("battery_to_load_w") > 1e-6
        return float(discharging.sum() * epoch_s / 3600.0)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_csv(self, path: str | Path) -> None:
        """Write the full epoch log as CSV for external analysis/plotting.

        One row per epoch; PAR ratios are exploded into ``par_0..par_k``
        columns, the power case and charge source as their string names.
        """
        self._require_nonempty()
        n_groups = len(self._records[0].ratios)
        scalar_fields = [
            "time_s", "budget_w", "demand_w", "renewable_w", "load_fraction",
            "throughput", "epu", "useful_power_w", "renewable_to_load_w",
            "battery_to_load_w", "grid_to_load_w", "charge_w",
            "battery_soc_wh", "curtailed_w",
        ]
        header = (
            ["case"]
            + scalar_fields
            + [f"par_{i}" for i in range(n_groups)]
            + ["charge_source", "brownout"]
        )
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(header)
            for r in self._records:
                row = [r.case.value]
                row += [f"{getattr(r, name):.6g}" for name in scalar_fields]
                row += [f"{ratio:.6g}" for ratio in r.ratios]
                row += [r.charge_source.value, int(r.brownout)]
                writer.writerow(row)

    @staticmethod
    def _masked_mean(values: np.ndarray, mask: np.ndarray | None) -> float:
        if mask is not None:
            if mask.shape != values.shape:
                raise SimulationError("mask shape does not match series")
            values = values[mask]
        if len(values) == 0:
            return 0.0
        return float(values.mean())
