"""Markdown experiment reports."""

import pytest

from repro.analysis.report import experiment_report, save_experiment_report
from repro.errors import ConfigurationError
from repro.sim.experiment import ExperimentConfig, ExperimentResult
from repro.sim.runner import run_experiment


@pytest.fixture(scope="module")
def result():
    return run_experiment(
        ExperimentConfig(days=0.25, policies=("Uniform", "GreenHetero"))
    )


class TestReport:
    def test_contains_all_sections(self, result):
        text = experiment_report(result)
        for heading in ("# GreenHetero", "## Configuration", "## Policies",
                        "## Energy and carbon", "## Timeline"):
            assert heading in text

    def test_policy_rows_present(self, result):
        text = experiment_report(result)
        assert "| Uniform |" in text
        assert "| GreenHetero |" in text

    def test_baseline_gain_is_one(self, result):
        text = experiment_report(result)
        uniform_row = next(l for l in text.splitlines() if l.startswith("| Uniform"))
        assert "1.00x" in uniform_row

    def test_custom_title_and_baseline(self, result):
        text = experiment_report(result, title="My study", baseline="GreenHetero")
        assert text.startswith("# My study")

    def test_unknown_baseline_rejected(self, result):
        with pytest.raises(ConfigurationError):
            experiment_report(result, baseline="Manual")

    def test_empty_result_rejected(self):
        empty = ExperimentResult(config=ExperimentConfig())
        with pytest.raises(ConfigurationError):
            experiment_report(empty)

    def test_save_to_file(self, result, tmp_path):
        path = tmp_path / "report.md"
        save_experiment_report(result, path)
        assert path.read_text().startswith("# GreenHetero")

    def test_constrained_sweep_noted(self):
        res = run_experiment(
            ExperimentConfig.insufficient_supply(
                "Streamcluster", days=0.1, policies=("Uniform", "GreenHetero")
            )
        )
        assert "constrained supply sweep" in experiment_report(res)


class TestCliIntegration:
    def test_run_report_flag(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "report.md"
        code = main(
            [
                "run", "--days", "0.125",
                "--policies", "Uniform", "GreenHetero",
                "--report", str(path),
            ]
        )
        assert code == 0
        assert "## Policies" in path.read_text()
