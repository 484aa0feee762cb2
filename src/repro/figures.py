"""Figure-data regeneration pipeline.

Writes the data series behind every figure of the paper's evaluation as
plain CSV files, one per figure, so they can be plotted with any tool:

====================  =====================================================
file                  contents
====================  =====================================================
fig03_case_study.csv  PAR sweep: EPU and performance at each split
fig08_timeline.csv    24-h High-trace run: per-epoch series, GH vs Uniform
fig09_perf.csv        13 workloads x 5 policies, perf normalized to Uniform
fig10_epu.csv         same runs, EPU normalized to Uniform
fig11_timeline.csv    24-h Low-trace run
fig12_grid_budget.csv grid-budget sweep
fig13_combinations.csv  Table IV CPU combinations
fig14_gpu.csv         Comb6 GPU rack workloads
====================  =====================================================

The benches in ``benchmarks/`` assert the *shapes*; this module produces
the raw numbers.  ``quick=True`` shrinks runs for smoke tests.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Sequence

from repro.servers.platform import get_platform
from repro.servers.power_model import ResponseCurve, case_study_sweep
from repro.sim.experiment import COMBINATIONS, ExperimentConfig
from repro.sim.runner import run_experiment
from repro.workloads.catalog import FIG9_WORKLOADS

POLICIES = ("Uniform", "Manual", "GreenHetero-p", "GreenHetero-a", "GreenHetero")


def _write(path: Path, header: list[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def fig03(out: Path) -> Path:
    rows = case_study_sweep(
        ResponseCurve(get_platform("E5-2620"), "SPECjbb"),
        ResponseCurve(get_platform("i5-4460"), "SPECjbb"),
        220.0,
    )
    path = out / "fig03_case_study.csv"
    _write(path, ["par_pct", "epu", "perf_jops"], rows)
    return path


def _timeline(out: Path, name: str, config: ExperimentConfig) -> Path:
    result = run_experiment(config)
    gh, uniform = result.log("GreenHetero"), result.log("Uniform")
    rows = []
    for r_gh, r_u in zip(gh, uniform):
        rows.append(
            [
                f"{r_gh.time_s:.0f}",
                r_gh.case.value,
                f"{r_gh.renewable_w:.1f}",
                f"{r_gh.budget_w:.1f}",
                f"{r_gh.throughput:.1f}",
                f"{r_u.throughput:.1f}",
                f"{r_gh.ratios[0]:.3f}",
                f"{r_gh.battery_soc_wh:.0f}",
                f"{r_gh.battery_to_load_w:.1f}",
                f"{r_gh.grid_to_load_w:.1f}",
                f"{r_gh.charge_w:.1f}",
            ]
        )
    path = out / name
    _write(
        path,
        [
            "time_s", "case", "renewable_w", "budget_w",
            "greenhetero_perf", "uniform_perf", "par",
            "battery_soc_wh", "battery_to_load_w", "grid_to_load_w", "charge_w",
        ],
        rows,
    )
    return path


def fig08(out: Path, quick: bool = False) -> Path:
    config = ExperimentConfig(
        days=0.25 if quick else 1.0, policies=("Uniform", "GreenHetero")
    )
    return _timeline(out, "fig08_timeline.csv", config)


def fig11(out: Path, quick: bool = False) -> Path:
    config = ExperimentConfig.fig11_low_trace(
        days=0.25 if quick else 1.0, policies=("Uniform", "GreenHetero")
    )
    return _timeline(out, "fig11_timeline.csv", config)


def fig09_fig10(out: Path, quick: bool = False) -> tuple[Path, Path]:
    workloads = FIG9_WORKLOADS[:3] if quick else FIG9_WORKLOADS
    policies = ("Uniform", "GreenHetero") if quick else POLICIES
    perf_rows, epu_rows = [], []
    for workload in workloads:
        result = run_experiment(
            ExperimentConfig.insufficient_supply(
                workload, days=0.25 if quick else 0.5, policies=policies
            )
        )
        perf_rows.append([workload] + [f"{result.gain(p):.4f}" for p in policies])
        epu_rows.append(
            [workload] + [f"{result.gain(p, 'epu'):.4f}" for p in policies]
        )
    perf_path = out / "fig09_perf.csv"
    epu_path = out / "fig10_epu.csv"
    _write(perf_path, ["workload"] + list(policies), perf_rows)
    _write(epu_path, ["workload"] + list(policies), epu_rows)
    return perf_path, epu_path


def fig12(out: Path, quick: bool = False) -> Path:
    budgets = (800.0, 1200.0) if quick else (600.0, 800.0, 1000.0, 1200.0, 1400.0)
    rows = []
    for budget in budgets:
        result = run_experiment(
            ExperimentConfig(
                days=0.25 if quick else 1.0,
                grid_budget_w=budget,
                policies=("Uniform", "GreenHetero"),
            )
        )
        rows.append(
            [
                f"{budget:.0f}",
                f"{result.log('Uniform').mean_throughput():.1f}",
                f"{result.log('GreenHetero').mean_throughput():.1f}",
            ]
        )
    path = out / "fig12_grid_budget.csv"
    _write(path, ["grid_budget_w", "uniform_perf", "greenhetero_perf"], rows)
    return path


def fig13(out: Path, quick: bool = False) -> Path:
    combos = ("Comb1", "Comb2") if quick else ("Comb1", "Comb2", "Comb3", "Comb4", "Comb5")
    rows = []
    for name in combos:
        result = run_experiment(
            ExperimentConfig.combination_sweep(
                name, "SPECjbb",
                days=0.25 if quick else 0.5,
                policies=("Uniform", "GreenHetero"),
            )
        )
        platforms = "+".join(p for p, _ in COMBINATIONS[name])
        rows.append([name, platforms, f"{result.gain('GreenHetero'):.4f}"])
    path = out / "fig13_combinations.csv"
    _write(path, ["combination", "platforms", "greenhetero_gain"], rows)
    return path


def fig14(out: Path, quick: bool = False) -> Path:
    workloads = ("Srad_v1", "Cfd") if quick else ("Streamcluster", "Srad_v1", "Particlefilter", "Cfd")
    rows = []
    for workload in workloads:
        result = run_experiment(
            ExperimentConfig.combination_sweep(
                "Comb6", workload,
                days=0.25 if quick else 0.5,
                policies=("Uniform", "GreenHetero"),
            )
        )
        rows.append([workload, f"{result.gain('GreenHetero'):.4f}"])
    path = out / "fig14_gpu.csv"
    _write(path, ["workload", "greenhetero_gain"], rows)
    return path


def generate_all(out_dir: str | Path, quick: bool = False) -> list[Path]:
    """Regenerate every figure's data into ``out_dir``; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [fig03(out), fig08(out, quick), fig11(out, quick)]
    paths += list(fig09_fig10(out, quick))
    paths += [fig12(out, quick), fig13(out, quick), fig14(out, quick)]
    return paths
