"""Command-line interface.

These subcommands cover the workflows a user of the paper's system needs:

``repro run``
    Replay a full trace-driven experiment (the Fig. 8/11 methodology)
    for any rack, workload, weather and policy set; prints the policy
    comparison and, optionally, the sustainability rollup.

``repro sweep``
    The constrained-supply sweep (Fig. 9/10 methodology) across one or
    more workloads.

``repro case-study``
    The Section III-B fixed-budget PAR sweep for any two platforms.

``repro combos``
    The Table IV server-combination comparison (Fig. 13).

``repro figures``
    Regenerate every figure's data series as CSV.

``repro validate``
    Self-check the substrate against the paper's anchors.

``repro serve``
    Run the control-plane daemon: rack controllers behind a streaming
    NDJSON-over-TCP allocation API, with checkpoint/restore.

``repro shift``
    Run the renewable-aware temporal-shifting benchmark (deferrable
    jobs under the receding-horizon planner vs. a run-immediately
    baseline) and write ``BENCH_shift.json``.

``repro verify``
    Run the correctness harness (:mod:`repro.verify`): strict-audit
    reference simulations, the differential solver corpus, the programs
    of a live Fig. 8 lap, and the checkpoint round-trip fuzzer.  Exits 1
    when any gate fails.

``repro trace``
    Synthesize a High/Low NREL-style irradiance trace to CSV.

Every command is deterministic for a given ``--seed``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis.reporting import format_table
from repro.analysis.sustainability import sustainability_report
from repro.core.policies import POLICY_NAMES
from repro.errors import ReproError
from repro.servers.platform import get_platform
from repro.servers.power_model import ResponseCurve, case_study_sweep
from repro.sim.experiment import COMBINATIONS, ExperimentConfig
from repro.sim.runner import run_experiment, run_experiments
from repro.traces.nrel import Weather, synthesize_irradiance


def _weather(name: str) -> Weather:
    return Weather.HIGH if name.lower() == "high" else Weather.LOW


def _parse_platforms(spec: str) -> tuple[tuple[str, int], ...]:
    """Parse ``"E5-2620:5,i5-4460:5"`` into rack groups."""
    groups = []
    for part in spec.split(","):
        name, _, count = part.partition(":")
        groups.append((name.strip(), int(count) if count else 5))
    return tuple(groups)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def cmd_run(args: argparse.Namespace) -> int:
    config = ExperimentConfig(
        platforms=_parse_platforms(args.platforms),
        workload=args.workload,
        weather=_weather(args.weather),
        days=args.days,
        grid_budget_w=args.grid_budget,
        policies=tuple(args.policies),
        seed=args.seed,
        faults=tuple(args.fault),
        strict=args.strict,
    )
    result = run_experiment(config, jobs=args.jobs)
    baseline = "Uniform" if "Uniform" in config.policies else config.policies[0]
    rows = []
    for name in config.policies:
        summary = result.summary(name)
        rows.append(
            [
                name,
                f"{summary.mean_throughput:,.0f}",
                f"{result.gain(name, baseline=baseline):.2f}x",
                f"{result.gain(name, 'epu', baseline=baseline):.2f}x",
                f"{summary.mean_par:.0%}",
                f"{summary.grid_energy_wh / 1000:.2f}",
            ]
        )
    print(
        format_table(
            ["policy", "mean perf", "gain", "EPU gain", "PAR", "grid kWh"],
            rows,
            title=f"{args.workload} x {args.days:g} day(s), {args.weather} trace",
        )
    )
    if args.sustainability:
        print()
        for name in config.policies:
            report = sustainability_report(result.log(name), config.epoch_s)
            print(
                f"{name}: {report.renewable_fraction:.0%} renewable, "
                f"{report.co2_kg:.2f} kg CO2, ${report.grid_cost_usd:.2f} grid cost"
            )
    if args.export:
        result.log(config.policies[-1]).to_csv(args.export)
        print(f"\nwrote {config.policies[-1]} telemetry to {args.export}")
    if args.report:
        from repro.analysis.report import save_experiment_report

        save_experiment_report(result, args.report)
        print(f"wrote markdown report to {args.report}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    configs = [
        ExperimentConfig.insufficient_supply(
            workload,
            platforms=_parse_platforms(args.platforms),
            policies=tuple(args.policies),
            seed=args.seed,
            faults=tuple(args.fault),
            strict=args.strict,
        )
        for workload in args.workloads
    ]
    # One batch: every (workload, policy) pair fans out together.
    results = run_experiments(configs, jobs=args.jobs)
    rows = []
    for workload, config, result in zip(args.workloads, configs, results):
        baseline = "Uniform" if "Uniform" in config.policies else config.policies[0]
        rows.append(
            [workload]
            + [
                f"{result.gain(name, baseline=baseline):.2f}x"
                for name in config.policies
            ]
        )
    print(
        format_table(
            ["workload"] + list(args.policies),
            rows,
            title="constrained-supply sweep: gains vs Uniform",
        )
    )
    return 0


def cmd_case_study(args: argparse.Namespace) -> int:
    a = ResponseCurve(get_platform(args.server_a), args.workload)
    b = ResponseCurve(get_platform(args.server_b), args.workload)
    sweep = case_study_sweep(a, b, args.budget, args.step)
    print(
        format_table(
            ["PAR", "EPU", "perf"],
            [[f"{pct}%", f"{epu:.2f}", f"{perf:,.0f}"] for pct, epu, perf in sweep],
            title=(
                f"{args.budget:.0f} W split between {a.spec.name} (A) and "
                f"{b.spec.name} (B), {args.workload}"
            ),
        )
    )
    best_pct = max(sweep, key=lambda row: row[2])[0]
    print(f"\noptimal PAR: {best_pct}% to {a.spec.name}")
    return 0


def cmd_combos(args: argparse.Namespace) -> int:
    configs = [
        ExperimentConfig.combination_sweep(
            name, args.workload, policies=("Uniform", "GreenHetero"), seed=args.seed
        )
        for name in args.names
    ]
    results = run_experiments(configs, jobs=args.jobs)
    rows = []
    for name, result in zip(args.names, results):
        platforms = "+".join(p for p, _ in COMBINATIONS[name])
        rows.append([name, platforms, f"{result.gain('GreenHetero'):.2f}x"])
    print(
        format_table(
            ["combination", "platforms", "GreenHetero gain"],
            rows,
            title=f"Table IV combinations, {args.workload}",
        )
    )
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    from repro.figures import generate_all

    paths = generate_all(args.out, quick=args.quick)
    for path in paths:
        print(f"wrote {path}")
    print(f"\n{len(paths)} figure datasets regenerated into {args.out}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    """Quick self-check that the substrate still matches the paper anchors."""
    checks: list[tuple[str, bool, str]] = []

    # Fig. 3 anchors: optimum PAR and the EPU corners.
    sweep = case_study_sweep(
        ResponseCurve(get_platform("E5-2620"), "SPECjbb"),
        ResponseCurve(get_platform("i5-4460"), "SPECjbb"),
        220.0,
    )
    best_par = max(sweep, key=lambda row: row[2])[0]
    epus = {pct: epu for pct, epu, _ in sweep}
    checks.append(
        ("case-study optimum PAR ~65%", 60 <= best_par <= 70, f"{best_par}%")
    )
    checks.append(
        ("case-study uniform EPU ~86%", abs(epus[50] - 0.86) < 0.05, f"{epus[50]:.0%}")
    )
    checks.append(
        ("case-study one-server EPU ~37%", abs(epus[0] - 0.37) < 0.05, f"{epus[0]:.0%}")
    )

    # A fast dynamic run: GreenHetero beats Uniform under scarcity.
    result = run_experiment(
        ExperimentConfig(days=0.5, policies=("Uniform", "GreenHetero"), seed=args.seed)
    )
    gain = result.gain("GreenHetero")
    checks.append(("24h-run gain in Cases B/C > 1.1x", gain > 1.1, f"{gain:.2f}x"))

    # Workload ordering: Streamcluster >> Memcached.
    gains = {}
    for workload in ("Streamcluster", "Memcached"):
        sweep = run_experiment(
            ExperimentConfig.insufficient_supply(
                workload, policies=("Uniform", "GreenHetero"), seed=args.seed
            )
        )
        gains[workload] = sweep.gain("GreenHetero")
    checks.append(
        (
            "Streamcluster gain > Memcached gain",
            gains["Streamcluster"] > gains["Memcached"],
            f"{gains['Streamcluster']:.2f}x vs {gains['Memcached']:.2f}x",
        )
    )

    # Heterogeneity ordering across server combinations (Fig. 13).
    comb_gains = {}
    for comb in ("Comb1", "Comb4"):
        res = run_experiment(
            ExperimentConfig.combination_sweep(
                comb, days=0.25, policies=("Uniform", "GreenHetero"), seed=args.seed
            )
        )
        comb_gains[comb] = res.gain("GreenHetero")
    checks.append(
        (
            "homogeneous-like Comb4 ~1.0x, heterogeneous Comb1 gains",
            abs(comb_gains["Comb4"] - 1.0) < 0.15 and comb_gains["Comb1"] > 1.2,
            f"Comb4 {comb_gains['Comb4']:.2f}x, Comb1 {comb_gains['Comb1']:.2f}x",
        )
    )

    # GPU rack ordering (Fig. 14).
    gpu_gains = {}
    for workload in ("Srad_v1", "Cfd"):
        res = run_experiment(
            ExperimentConfig.combination_sweep(
                "Comb6", workload, days=0.25,
                policies=("Uniform", "GreenHetero"), seed=args.seed,
            )
        )
        gpu_gains[workload] = res.gain("GreenHetero")
    checks.append(
        (
            "GPU rack: Srad_v1 gain > Cfd gain",
            gpu_gains["Srad_v1"] > gpu_gains["Cfd"],
            f"{gpu_gains['Srad_v1']:.2f}x vs {gpu_gains['Cfd']:.2f}x",
        )
    )

    failed = 0
    for label, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        if not ok:
            failed += 1
        print(f"[{status}] {label}: {detail}")
    print(f"\n{len(checks) - failed}/{len(checks)} anchors hold")
    return 0 if failed == 0 else 1


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import AllocationDaemon, ServeConfig, ServeState

    config = ServeConfig(
        platforms=_parse_platforms(args.platforms),
        workload=args.workload,
        policy=args.policy,
        n_racks=args.racks,
        weather=_weather(args.weather),
        seed=args.seed,
        shared_grid_w=args.shared_grid,
        shift_horizon=args.shift_horizon,
    )
    if args.trace_log is not None:
        from repro.obs import set_trace_sink

        set_trace_sink(args.trace_log)
    state = ServeState.build(config, checkpoint_dir=args.checkpoint)
    daemon = AllocationDaemon(
        state,
        host=args.host,
        port=args.port,
        audit_log=args.audit_log,
        metrics_interval_s=args.metrics_interval,
    )

    async def serve() -> None:
        await daemon.start()
        restored = " (restored from checkpoint)" if state.restored else ""
        # Flushed readiness line: supervisors (and the CI smoke tests)
        # wait for it before sending requests.
        print(
            f"serving {len(state.racks)} rack(s) on "
            f"{daemon.host}:{daemon.port}{restored}",
            flush=True,
        )
        await daemon.run_until_stopped()

    asyncio.run(serve())
    print("daemon stopped", flush=True)
    return 0


def cmd_shift(args: argparse.Namespace) -> int:
    from repro.shift.bench import format_shift_summary, run_shift_bench

    payload = run_shift_bench(
        days=args.days,
        seed=args.seed,
        horizon=args.horizon,
        n_jobs=args.jobs,
        weather=_weather(args.weather),
        faults=tuple(args.fault),
        out=args.out,
    )
    print(format_shift_summary(payload))
    if args.out:
        print(f"\nwrote benchmark record to {args.out}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    # Lazy: reference reaches into the engine, which imports repro.verify.
    from repro.verify import (
        fuzz_round_trips, run_differential, run_live, run_strict_reference,
    )

    ok = True

    results = run_strict_reference(n_epochs=args.epochs, seed=args.seed)
    for result in results:
        print(result.summary())
        ok = ok and result.passed

    diff = run_differential(n_cases=args.cases, seed=args.seed)
    print(diff.summary())
    ok = ok and diff.passed

    live = run_live()
    print(live.summary())
    ok = ok and live.passed

    fuzz = fuzz_round_trips(n_cases=args.fuzz_cases, seed=args.seed)
    print(fuzz.summary())
    ok = ok and fuzz.passed

    print("verify: PASS" if ok else "verify: FAIL")
    return 0 if ok else 1


def cmd_trace(args: argparse.Namespace) -> int:
    trace = synthesize_irradiance(
        days=args.days, weather=_weather(args.weather), seed=args.seed
    )
    trace.save_csv(args.out)
    print(
        f"wrote {len(trace.times_s)} samples ({args.days:g} days, "
        f"{args.weather} weather) to {args.out}"
    )
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GreenHetero: adaptive power allocation for heterogeneous green datacenters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    all_policies = list(POLICY_NAMES) + ["OnOff", "GreenHetero+"]

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=2021)
        p.add_argument(
            "--jobs", type=int, default=1,
            help="worker processes for the policy fan-out (1 = serial, "
            "0 or negative is rejected); results are identical at any value",
        )
        p.add_argument(
            "--platforms",
            default="E5-2620:5,i5-4460:5",
            help="rack groups, e.g. 'E5-2620:5,i5-4460:5'",
        )
        p.add_argument(
            "--policies", nargs="+", default=list(POLICY_NAMES),
            choices=all_policies,
            help="Table III policies plus the OnOff and GreenHetero+ extensions",
        )
        p.add_argument(
            "--fault", action="append", default=[], metavar="SPEC",
            help="inject a supply fault, e.g. 'renewable:0.0:28800:36000' "
            "(kind:scale:start_s:end_s); repeatable",
        )
        p.add_argument(
            "--strict", action="store_true",
            help="audit every epoch's physics invariants and abort on "
            "the first violation (see `repro verify`)",
        )

    run_p = sub.add_parser("run", help="trace-driven experiment (Fig. 8/11 methodology)")
    common(run_p)
    run_p.add_argument("--workload", default="SPECjbb")
    run_p.add_argument("--weather", choices=("high", "low"), default="high")
    run_p.add_argument("--days", type=float, default=1.0)
    run_p.add_argument("--grid-budget", type=float, default=1000.0)
    run_p.add_argument(
        "--sustainability", action="store_true",
        help="append the carbon/cost rollup per policy",
    )
    run_p.add_argument(
        "--export", metavar="FILE",
        help="write the last policy's epoch telemetry as CSV",
    )
    run_p.add_argument(
        "--report", metavar="FILE",
        help="write a markdown experiment report",
    )
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="constrained-supply sweep (Fig. 9/10 methodology)")
    common(sweep_p)
    sweep_p.add_argument("--workloads", nargs="+", default=["SPECjbb"])
    sweep_p.set_defaults(func=cmd_sweep)

    case_p = sub.add_parser("case-study", help="fixed-budget PAR sweep (Fig. 3)")
    case_p.add_argument("--server-a", default="E5-2620")
    case_p.add_argument("--server-b", default="i5-4460")
    case_p.add_argument("--workload", default="SPECjbb")
    case_p.add_argument("--budget", type=float, default=220.0)
    case_p.add_argument("--step", type=int, default=5)
    case_p.set_defaults(func=cmd_case_study)

    combos_p = sub.add_parser("combos", help="Table IV server combinations (Fig. 13)")
    combos_p.add_argument("--names", nargs="+", default=[f"Comb{i}" for i in range(1, 6)])
    combos_p.add_argument("--workload", default="SPECjbb")
    combos_p.add_argument("--seed", type=int, default=2021)
    combos_p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the combination fan-out (1 = serial)",
    )
    combos_p.set_defaults(func=cmd_combos)

    figures_p = sub.add_parser(
        "figures", help="regenerate every figure's data series as CSV"
    )
    figures_p.add_argument("--out", required=True, help="output directory")
    figures_p.add_argument(
        "--quick", action="store_true", help="shrunken runs for smoke testing"
    )
    figures_p.set_defaults(func=cmd_figures)

    validate_p = sub.add_parser(
        "validate", help="self-check the substrate against the paper anchors"
    )
    validate_p.add_argument("--seed", type=int, default=2021)
    validate_p.set_defaults(func=cmd_validate)

    serve_p = sub.add_parser(
        "serve", help="run the control-plane allocation daemon"
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=7313,
                         help="listening port (0 lets the OS pick)")
    serve_p.add_argument(
        "--platforms",
        default="E5-2620:5,i5-4460:5",
        help="rack groups, e.g. 'E5-2620:5,i5-4460:5'",
    )
    serve_p.add_argument("--workload", default="SPECjbb")
    serve_p.add_argument(
        "--policy", default="GreenHetero", choices=all_policies,
    )
    serve_p.add_argument("--racks", type=int, default=1,
                         help="identical racks to host (seeded seed+i)")
    serve_p.add_argument("--weather", choices=("high", "low"), default="high")
    serve_p.add_argument("--seed", type=int, default=2021)
    serve_p.add_argument(
        "--checkpoint", metavar="DIR",
        help="checkpoint directory; restored on boot when it holds a "
        "checkpoint.json, written on SIGTERM/shutdown",
    )
    serve_p.add_argument(
        "--audit-log", metavar="FILE",
        help="append a JSONL event stream (epochs, checkpoints) here",
    )
    serve_p.add_argument(
        "--metrics-interval", type=float, default=None, metavar="SECONDS",
        help="dump a metrics snapshot into the audit log every SECONDS "
        "(requires --audit-log); the 'metrics' verb serves scrapes either way",
    )
    serve_p.add_argument(
        "--trace-log", metavar="FILE",
        help="append finished observability spans as JSONL here",
    )
    serve_p.add_argument(
        "--shared-grid-w", dest="shared_grid", type=float, default=None,
        help="coordinate racks against this shared grid budget",
    )
    serve_p.add_argument(
        "--shift-horizon", type=int, default=8,
        help="lookahead window (epochs) of each rack's shifting planner",
    )
    serve_p.set_defaults(func=cmd_serve)

    shift_p = sub.add_parser(
        "shift",
        help="temporal-shifting benchmark: planner vs run-immediately "
        "baseline (writes BENCH_shift.json)",
    )
    shift_p.add_argument("--days", type=float, default=1.0)
    shift_p.add_argument("--seed", type=int, default=2021)
    shift_p.add_argument(
        "--horizon", type=int, default=8,
        help="planner lookahead window in epochs",
    )
    shift_p.add_argument(
        "--jobs", type=int, default=6,
        help="deferrable jobs submitted over the run",
    )
    shift_p.add_argument("--weather", choices=("high", "low"), default="high")
    shift_p.add_argument(
        "--fault", action="append", default=[], metavar="SPEC",
        help="inject a supply fault into both arms, e.g. "
        "'renewable:0.0:28800:36000'; repeatable",
    )
    shift_p.add_argument("--out", metavar="FILE",
                         help="write the benchmark record as JSON")
    shift_p.set_defaults(func=cmd_shift)

    verify_p = sub.add_parser(
        "verify",
        help="run the correctness harness: strict-audit reference sims, "
        "the differential solver corpus, the live Fig. 8 programs, and "
        "checkpoint round-trip fuzzing",
    )
    verify_p.add_argument(
        "--cases", type=int, default=200,
        help="randomized solver programs in the differential corpus",
    )
    verify_p.add_argument(
        "--fuzz-cases", type=int, default=50,
        help="iterations of the checkpoint round-trip fuzzer",
    )
    verify_p.add_argument(
        "--epochs", type=int, default=16,
        help="length of each strict-audit reference simulation",
    )
    verify_p.add_argument("--seed", type=int, default=0)
    verify_p.set_defaults(func=cmd_verify)

    trace_p = sub.add_parser("trace", help="synthesize an irradiance trace to CSV")
    trace_p.add_argument("--weather", choices=("high", "low"), default="high")
    trace_p.add_argument("--days", type=float, default=7.0)
    trace_p.add_argument("--seed", type=int, default=2021)
    trace_p.add_argument("--out", required=True)
    trace_p.set_defaults(func=cmd_trace)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
