"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--policies", "RoundRobin"])


class TestRun:
    def test_run_prints_policy_table(self, capsys):
        code = main(
            [
                "run", "--days", "0.125",
                "--policies", "Uniform", "GreenHetero",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "GreenHetero" in out
        assert "gain" in out

    def test_run_with_sustainability(self, capsys):
        code = main(
            [
                "run", "--days", "0.125",
                "--policies", "GreenHetero", "--sustainability",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "CO2" in out

    def test_run_custom_platforms(self, capsys):
        code = main(
            [
                "run", "--days", "0.125", "--platforms", "E5-2650:2,i7-8700K:2",
                "--policies", "Uniform", "GreenHetero", "--workload", "Canneal",
            ]
        )
        assert code == 0

    def test_bad_platform_is_clean_error(self, capsys):
        code = main(
            ["run", "--days", "0.125", "--platforms", "Epyc:2",
             "--policies", "Uniform"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err


class TestSweep:
    def test_sweep_two_workloads(self, capsys):
        code = main(
            [
                "sweep", "--workloads", "Memcached", "Streamcluster",
                "--policies", "Uniform", "GreenHetero",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Memcached" in out and "Streamcluster" in out


class TestCaseStudy:
    def test_default_case_study(self, capsys):
        code = main(["case-study", "--step", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "optimal PAR" in out
        assert "E5-2620" in out

    @pytest.mark.parametrize(
        "args,name",
        [
            (["--budget", "0"], "budget_w"),
            (["--budget", "-5"], "budget_w"),
            (["--budget", "nan"], "budget_w"),
            (["--budget", "inf"], "budget_w"),
            (["--step", "0"], "step_pct"),
            (["--step", "-5"], "step_pct"),
            (["--step", "101"], "step_pct"),
        ],
    )
    def test_bad_input_is_clean_error(self, capsys, args, name):
        code = main(["case-study", *args])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:") and name in captured.err
        assert captured.out == ""


class TestCombos:
    def test_single_combo(self, capsys):
        code = main(["combos", "--names", "Comb2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Comb2" in out

    def test_unknown_combo_is_clean_error(self, capsys):
        code = main(["combos", "--names", "Comb17"])
        assert code == 2


class TestTrace:
    def test_writes_csv(self, tmp_path, capsys):
        out_file = tmp_path / "trace.csv"
        code = main(["trace", "--days", "1", "--out", str(out_file)])
        assert code == 0
        assert out_file.exists()
        header = out_file.read_text().splitlines()[0]
        assert header == "time_s,ghi_w_m2"


class TestValidate:
    def test_all_anchors_hold(self, capsys):
        code = main(["validate"])
        out = capsys.readouterr().out
        assert code == 0
        assert "7/7 anchors hold" in out
        assert "FAIL" not in out


class TestExport:
    def test_run_exports_csv(self, tmp_path, capsys):
        out_file = tmp_path / "telemetry.csv"
        code = main(
            [
                "run", "--days", "0.125", "--policies", "Uniform", "GreenHetero",
                "--export", str(out_file),
            ]
        )
        assert code == 0
        assert out_file.exists()
        assert "case" in out_file.read_text().splitlines()[0]


class TestExtensionPolicies:
    def test_extension_policies_selectable(self, capsys):
        code = main(
            [
                "run", "--days", "0.125",
                "--policies", "Uniform", "GreenHetero+", "OnOff",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "GreenHetero+" in out
        assert "OnOff" in out


class TestServeCommands:
    def test_serve_args_parse(self):
        args = build_parser().parse_args(
            [
                "serve", "--port", "0", "--racks", "2",
                "--checkpoint", "/tmp/ckpt", "--shared-grid-w", "1500",
            ]
        )
        assert args.port == 0
        assert args.racks == 2
        assert args.shared_grid == 1500.0
        assert args.func.__name__ == "cmd_serve"

    def test_serve_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--policy", "RoundRobin"])


class TestVerify:
    def test_verify_passes(self, capsys):
        code = main(
            ["verify", "--cases", "5", "--fuzz-cases", "2", "--epochs", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "verify: PASS" in out
        assert "reference[default]" in out
        assert "reference[supply_fractions]" in out
        assert "differential" in out
        assert "differential[live]" in out
        assert "fuzz" in out

    def test_verify_fails_on_a_failed_gate(self, capsys, monkeypatch):
        import repro.verify
        from repro.verify import CaseOutcome, DifferentialReport

        failed = CaseOutcome(
            case_seed=7, n_groups=2, budget_w=300.0, perf=(),
            failures=("kkt infeasible",),
        )
        monkeypatch.setattr(
            repro.verify,
            "run_differential",
            lambda n_cases, seed: DifferentialReport(
                n_cases=n_cases, seed=seed, failures=(failed,)
            ),
        )
        code = main(
            ["verify", "--cases", "5", "--fuzz-cases", "2", "--epochs", "3"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "differential: 1/5 cases FAILED" in out
        assert "verify: FAIL" in out

    def test_verify_args_parse(self):
        args = build_parser().parse_args(
            ["verify", "--cases", "10", "--fuzz-cases", "3", "--seed", "9"]
        )
        assert args.cases == 10
        assert args.fuzz_cases == 3
        assert args.seed == 9
        assert args.func.__name__ == "cmd_verify"

    def test_run_accepts_strict(self, capsys):
        code = main(
            [
                "run", "--days", "0.125",
                "--policies", "GreenHetero", "--strict",
            ]
        )
        assert code == 0

    def test_sweep_accepts_strict(self):
        args = build_parser().parse_args(["sweep", "--strict"])
        assert args.strict is True
