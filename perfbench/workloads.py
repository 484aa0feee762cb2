"""The four workloads, each in an untimed-reference, timed and traced form.

Every workload returns an :class:`Outcome`: the tally of attempted and
failed operations, the metrics of its mode (end-to-end untraced, per
layer traced) and human-readable extras.  End-to-end numbers always come
from runs with no wrapper installed.
"""

from __future__ import annotations

import os
import resource
import select
import signal
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Any, Callable

from perfbench import checks, layers
from perfbench.checks import Tally
from perfbench.stats import percentile
from perfbench.tracer import LayerTracer

NPROC = os.cpu_count() or 1
ROOT = Path(__file__).resolve().parent.parent

#: Simulated days per sim-day lap (288 epochs of 15 minutes).
SIM_DAY_DAYS = 3.0
#: Simulated days per shift-day lap (the bundled scenario's job set spans one day).
SHIFT_DAY_DAYS = 1.0
SHIFT_HORIZON = 8
SHIFT_JOBS = 6
#: Scenarios (seeds) one run of a simulated workload rotates through.
LAP_SEEDS = 4
#: Scenario seeds each policy-sweep sweep runs both of its configs at.
SWEEP_SEEDS = 2
#: Fewest sweeps one run times, however slow the host.
MIN_SWEEPS = 10

SERVE_RACKS = 4
#: Below the four racks' summed default grid budgets (~4.1 kW), so the
#: shortfall split binds.
SERVE_SHARED_GRID_W = 2000.0
#: Fixed what-if budgets every round queries on every rack.
SERVE_WHATIF_W = (400.0, 700.0, 1000.0)
SERVE_CONNECTIONS = min(2, NPROC)
#: Daemon boots per run; the median is ``setup_s`` and the last one serves.
SERVE_BOOTS = 5
SERVE_BOOT_TIMEOUT_S = 60.0


@dataclass
class Outcome:
    tally: Tally
    metrics: dict[str, tuple[float, str]]
    info: dict[str, Any] = field(default_factory=dict)


def _rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _e2e(setup: list[float], rss_mb: float, ops_per_s: float, op_ms: float | None) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics; ``setup_s`` is the median of the set-ups."""
    if op_ms is None:
        raise RuntimeError("too few timed operations for a median")
    return {
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ops_per_s": (ops_per_s, "1/s"),
        "op_ms_p50": (op_ms, "ms"),
    }


def _ms_or_none(samples: list[float], q: float) -> float | None:
    value = percentile(samples, q)
    return None if value is None else value * 1e3


# ----------------------------------------------------------------------
# Simulated laps (sim-day, shift-day)
# ----------------------------------------------------------------------
def _step_lap(sim: Any, epoch_s: list[float]) -> None:
    while len(sim.log) < sim.clock.n_epochs:
        start = perf_counter()
        sim.step()
        epoch_s.append(perf_counter() - start)


def lap_seeds(seed: int) -> list[int]:
    """The :data:`LAP_SEEDS` scenario seeds one run of ``seed`` rotates through.

    Distinct base seeds never share a scenario seed.
    """
    return [seed * LAP_SEEDS + k for k in range(LAP_SEEDS)]


@dataclass
class _LapWorkload:
    """A simulated workload run as laps, each checked on its own.

    Laps rotate through :func:`lap_seeds`, so one run averages several
    scenarios (traces, noise streams) instead of resting on one; laps of
    the same scenario replay identical epochs.
    """

    name: str
    build: Callable[[int], Any]
    reference: Callable[[int], dict[str, Any]]
    summarize: Callable[[Any], dict[str, float]]

    def references(self, seed: int) -> dict[str, Any]:
        return {str(sub): self.reference(sub) for sub in lap_seeds(seed)}

    def _want(self, seed: int, tally: Tally) -> dict[str, Any]:
        want = self.references(seed)
        checks.check_committed(tally, seed, self.name, want)
        return want

    def _lap(self, sub: int, tally: Tally, want: dict[str, Any]) -> tuple[float, list[float]]:
        """Build and step one lap of scenario ``sub``: (set-up s, epoch times)."""
        start = perf_counter()
        sim = self.build(sub)
        setup_s = perf_counter() - start
        lap_s: list[float] = []
        _step_lap(sim, lap_s)
        checks.check_trajectory(
            tally, f"{self.name} scenario {sub}",
            checks.log_digests(sim.log), self.summarize(sim), want[str(sub)],
        )
        return setup_s, lap_s

    def run(self, seed: int, seconds: float) -> Outcome:
        """Time epochs by the interleaved min-of-N estimator.

        Each epoch's time is its fastest across the laps of its scenario,
        which strips one-sided interference.  ``op_ms_p50`` is the median
        of those times over all scenarios' epochs, ``ops_per_s`` their
        count over their sum.
        """
        tally = Tally()
        want = self._want(seed, tally)
        subs = lap_seeds(seed)
        setup: list[float] = []
        laps: dict[int, list[list[float]]] = {sub: [] for sub in subs}
        deadline = perf_counter() + seconds
        i = 0
        while i < 2 * len(subs) or perf_counter() < deadline:
            sub = subs[i % len(subs)]
            setup_s, lap_s = self._lap(sub, tally, want)
            setup.append(setup_s)
            laps[sub].append(lap_s)
            i += 1
        fastest = [min(times) for runs in laps.values() for times in zip(*runs)]
        metrics = _e2e(setup, _rss_mb(), len(fastest) / sum(fastest), _ms_or_none(fastest, 50))
        every = [t for runs in laps.values() for lap_s in runs for t in lap_s]
        info = {"laps": i, "scenarios": subs, "epochs": len(every),
                "epochs_per_s_all": len(every) / sum(every),
                "epoch_ms_p50_all": _ms_or_none(every, 50),
                "epoch_ms_p99_all": _ms_or_none(every, 99)}
        return Outcome(tally, metrics, info)

    def run_traced(self, seed: int, seconds: float) -> Outcome:
        """Alternate untraced and traced laps; per-layer numbers from the latter."""
        tally = Tally()
        want = self._want(seed, tally)
        subs = lap_seeds(seed)
        tracer = LayerTracer()
        busy = {False: 0.0, True: 0.0}
        epochs = {False: 0, True: 0}
        methods: dict[str, float] = {}
        solvers: list[Any] = []
        deadline = perf_counter() + seconds
        lap = 0
        while lap < 2 * len(subs) or perf_counter() < deadline:
            traced = lap % 2 == 1
            if traced:
                found = layers.install(tracer)
                before = layers.solver_method_counts()
            try:
                _, lap_s = self._lap(subs[(lap // 2) % len(subs)], tally, want)
            finally:
                if traced:
                    tracer.unwrap_all()
            if traced:
                solvers.extend(found)
                layers.add_method_delta(methods, before)
            busy[traced] += sum(lap_s)
            epochs[traced] += len(lap_s)
            lap += 1
        metrics = layers.layer_metrics(
            tracer, stacks=lap // 2, cache=layers.cache_counts(solvers, {}), methods=methods
        )
        metrics.update(_overhead(epochs[True] / busy[True], epochs[False] / busy[False]))
        return Outcome(tally, metrics, {"trace_tables": layers.report_tables(tracer)})


def _overhead(traced_rate: float, untraced_rate: float) -> dict[str, tuple[float, str]]:
    return {
        "trace.overhead_ratio": (traced_rate / untraced_rate, "ratio"),
        "trace.traced_rate": (traced_rate, "1/s"),
        "trace.untraced_rate": (untraced_rate, "1/s"),
    }


def _sim_day_config(seed: int) -> Any:
    from repro.sim.experiment import ExperimentConfig

    return ExperimentConfig.fig8_default(
        days=SIM_DAY_DAYS, policies=("GreenHetero",), seed=seed
    )


def _sim_day_build(seed: int) -> Any:
    from repro.core.policies import make_policy
    from repro.sim.engine import Simulation

    config = _sim_day_config(seed)
    return Simulation.assemble(
        policy=make_policy("GreenHetero"),
        rack=config.build_rack(),
        weather=config.weather,
        clock=config.build_clock(),
        solar_scale=config.solar_scale,
        grid_budget_w=config.grid_budget_w,
        seed=seed,
    )


def _sim_day_summary(sim: Any) -> dict[str, float]:
    return checks.log_summary(sim.log, sim.clock.epoch_s)


def _sim_day_reference(seed: int) -> dict[str, Any]:
    """The same day through the experiment runner's call path."""
    from repro.sim.runner import run_experiment

    config = _sim_day_config(seed)
    log = run_experiment(config, jobs=1).log("GreenHetero")
    return checks.trajectory(checks.log_digests(log), checks.log_summary(log, config.epoch_s))


def _shift_clock() -> Any:
    from repro.sim.clock import SimClock
    from repro.units import SECONDS_PER_DAY

    return SimClock(start_s=SECONDS_PER_DAY, duration_s=SHIFT_DAY_DAYS * SECONDS_PER_DAY)


def _shift_day_build(seed: int) -> Any:
    """The ``shift`` arm of the bundled :mod:`repro.shift.bench` scenario."""
    from repro.core.policies import make_policy
    from repro.power.battery import BatteryBank
    from repro.shift import bench
    from repro.shift.planner import ShiftPlanner
    from repro.shift.runtime import ShiftRuntime
    from repro.sim.engine import Simulation
    from repro.traces.nrel import Weather

    clock = _shift_clock()
    sim = Simulation.assemble(
        policy=make_policy("GreenHetero"),
        rack=bench.build_bench_rack(),
        weather=Weather.HIGH,
        clock=clock,
        seed=seed,
        battery=BatteryBank(count=bench.BENCH_BATTERY_COUNT),
    )
    runtime = ShiftRuntime(
        planner=ShiftPlanner(
            horizon=SHIFT_HORIZON,
            policy="shift",
            grid_penalty_per_kwh=bench.BENCH_GRID_PENALTY_PER_KWH,
            battery_penalty_per_kwh=bench.BENCH_BATTERY_PENALTY_PER_KWH,
        )
    )
    for job in bench.bench_jobs(clock, runtime.batch_capacity_w(sim.controller), SHIFT_JOBS):
        runtime.submit(job)
    sim.shift = runtime
    return sim


def _shift_day_summary(sim: Any) -> dict[str, float]:
    return {
        "grid_kwh": sim.log.grid_energy_wh(sim.clock.epoch_s) / 1000.0,
        "mean_epu": sim.log.mean_epu(),
        "deadline_misses": float(sim.shift.summary()["deadline_misses"]),
    }


def _shift_day_reference(seed: int) -> dict[str, Any]:
    """One untimed lap, its summary cross-checked against ``run_shift_bench``."""
    from repro.shift.bench import run_shift_bench

    sim = _shift_day_build(seed)
    sim.run()
    summary = _shift_day_summary(sim)
    comparison = run_shift_bench(
        days=SHIFT_DAY_DAYS, seed=seed, horizon=SHIFT_HORIZON, n_jobs=SHIFT_JOBS
    )["comparison"]
    bench_summary = {
        "grid_kwh": comparison["grid_kwh"]["shift"],
        "mean_epu": comparison["epu"]["shift"],
        "deadline_misses": float(comparison["deadline_misses"]["shift"]),
    }
    if not checks.summary_matches(summary, bench_summary):
        raise RuntimeError(f"shift lap {summary} disagrees with run_shift_bench {bench_summary}")
    return checks.trajectory(checks.log_digests(sim.log), summary)


SIM_DAY = _LapWorkload("sim-day", _sim_day_build, _sim_day_reference, _sim_day_summary)
SHIFT_DAY = _LapWorkload("shift-day", _shift_day_build, _shift_day_reference, _shift_day_summary)


# ----------------------------------------------------------------------
# policy-sweep
# ----------------------------------------------------------------------
def _sweep_configs(seed: int) -> list[Any]:
    """Both rack/supply configs at each of :data:`SWEEP_SEEDS` scenario seeds."""
    from repro.sim.experiment import ExperimentConfig

    return [
        config
        for sub in range(seed * SWEEP_SEEDS, (seed + 1) * SWEEP_SEEDS)
        for config in (
            ExperimentConfig.insufficient_supply("SPECjbb", seed=sub),
            ExperimentConfig.combination_sweep("Comb5", seed=sub),
        )
    ]


def _sweep_setup(seed: int) -> list[Any]:
    """Config and irradiance-trace build: what a sweep needs before fan-out."""
    from repro.sim.engine import Simulation

    configs = _sweep_configs(seed)
    for config in configs:
        Simulation.default_trace(config.build_clock(), config.weather, config.seed)
    return configs


def _sweep_digests(results: list[Any]) -> dict[str, Any]:
    out = {}
    for i, result in enumerate(results):
        for policy, log in result.logs.items():
            out[f"{i}/{policy}"] = checks.trajectory(
                checks.log_digests(log), checks.log_summary(log, result.config.epoch_s)
            )
    return out


def _sweep_reference(seed: int) -> dict[str, Any]:
    from repro.sim.runner import run_experiments

    return _sweep_digests(run_experiments(_sweep_configs(seed), jobs=1))


def _check_sweep(tally: Tally, results: list[Any], want: dict[str, Any], label: str) -> int:
    """Check every policy log of one sweep; returns the policy-epochs run."""
    got = _sweep_digests(results)
    if got.keys() != want.keys():
        tally.record(False, f"{label}: ran {sorted(got)}, expected {sorted(want)}")
    epochs = 0
    for key in sorted(got.keys() & want.keys()):
        entry = got[key]
        checks.check_trajectory(
            tally, f"{label} {key}", [tuple(e) for e in entry["epochs"]], entry["summary"], want[key]
        )
        epochs += len(entry["epochs"])
    return epochs


def _sweep_want(seed: int, tally: Tally) -> dict[str, Any]:
    want = _sweep_reference(seed)
    checks.check_committed(tally, seed, "policy-sweep", want)
    return want


def run_policy_sweep(seed: int, seconds: float) -> Outcome:
    """Identical sweeps; the metrics take the fastest (min-of-N), which
    strips one-sided interference from other work on the host."""
    from repro.sim.runner import run_experiments

    tally = Tally()
    want = _sweep_want(seed, tally)
    setup: list[float] = []
    sweep_s: list[float] = []
    epochs = 0
    deadline = perf_counter() + seconds
    while len(sweep_s) < MIN_SWEEPS or perf_counter() < deadline:
        start = perf_counter()
        configs = _sweep_setup(seed)
        setup.append(perf_counter() - start)
        start = perf_counter()
        results = run_experiments(configs, jobs=NPROC)
        sweep_s.append(perf_counter() - start)
        epochs = _check_sweep(tally, results, want, f"sweep {len(sweep_s)}")
    fastest = min(sweep_s)
    metrics = _e2e(setup, _rss_mb(resource.RUSAGE_CHILDREN), epochs / fastest, fastest * 1e3)
    return Outcome(tally, metrics, {
        "sweeps": len(sweep_s), "jobs": NPROC, "policy_epochs_per_sweep": epochs,
        "sweep_ms_p50_all": median(sweep_s) * 1e3,
    })


def run_policy_sweep_traced(seed: int, seconds: float) -> Outcome:
    """Rounds of: a serial pass timing only the runner's tasks, a parallel
    pass with nothing wrapped, and a serial pass with every layer wrapped."""
    from repro.sim.runner import run_experiments

    tally = Tally()
    want = _sweep_want(seed, tally)
    task_tracer = LayerTracer()
    tracer = LayerTracer()
    solvers: list[Any] = []
    methods: dict[str, float] = {}
    task_wall = traced_wall = 0.0
    parallel_s: list[float] = []
    rounds = 0
    epochs = 0
    deadline = perf_counter() + seconds
    while rounds == 0 or perf_counter() < deadline:
        task_tracer.wrap_all(layers.runner_layers())
        try:
            start = perf_counter()
            results = run_experiments(_sweep_configs(seed), jobs=1)
            task_wall += perf_counter() - start
        finally:
            task_tracer.unwrap_all()
        epochs += _check_sweep(tally, results, want, f"task pass {rounds}")

        start = perf_counter()
        results = run_experiments(_sweep_configs(seed), jobs=NPROC)
        parallel_s.append(perf_counter() - start)
        _check_sweep(tally, results, want, f"parallel pass {rounds}")

        found = layers.install(tracer, runner=True)
        before = layers.solver_method_counts()
        try:
            start = perf_counter()
            results = run_experiments(_sweep_configs(seed), jobs=1)
            traced_wall += perf_counter() - start
        finally:
            tracer.unwrap_all()
        solvers.extend(found)
        layers.add_method_delta(methods, before)
        _check_sweep(tally, results, want, f"traced pass {rounds}")
        rounds += 1

    task_s = sum(
        task_tracer.total(name).total_s for name in ("runner.assemble", "runner.run")
    ) / rounds
    metrics = layers.layer_metrics(
        tracer, stacks=tracer.total("runner.assemble").calls,
        cache=layers.cache_counts(solvers, {}), methods=methods,
    )
    metrics["runner.task_s"] = (task_s, "s")
    metrics["runner.jobs"] = (NPROC, "count")
    metrics["runner.parallel_wall_s"] = (median(parallel_s), "s")
    metrics["runner.parallel_efficiency"] = (task_s / (NPROC * median(parallel_s)), "ratio")
    metrics.update(_overhead(epochs / traced_wall, epochs / task_wall))
    return Outcome(tally, metrics, {"trace_tables": layers.report_tables(tracer)})


# ----------------------------------------------------------------------
# serve-fleet
# ----------------------------------------------------------------------
def _serve_config(seed: int) -> Any:
    from repro.serve import ServeConfig

    return ServeConfig(n_racks=SERVE_RACKS, seed=seed, shared_grid_w=SERVE_SHARED_GRID_W)


def _drive(
    client: Any, racks: list[str], deadline: float, with_step: bool
) -> tuple[Tally, dict[str, list[float]]]:
    """One closed-loop connection: each request waits for the previous reply.

    Returns the tally and the latencies of completed requests by op.
    """
    from repro.serve.client import ServeError

    tally = Tally()
    latency: dict[str, list[float]] = {"allocate": [], "forecast": [], "step": []}

    def call(op: str, check: Callable[[dict[str, Any]], None], *args: Any) -> None:
        start = perf_counter()
        try:
            result = getattr(client, op)(*args)
        except ServeError as exc:
            tally.record(False, f"{op}{args}: {exc}")
            return
        latency[op].append(perf_counter() - start)
        check(result)

    def ok(_: dict[str, Any]) -> None:
        tally.record(True)

    while perf_counter() < deadline:
        for rack in racks:
            call("allocate", lambda r: checks.check_allocation(tally, r, None), rack)
            for budget in SERVE_WHATIF_W:
                call("allocate", lambda r, b=budget: checks.check_allocation(tally, r, b), rack, budget)
            call("forecast", ok, rack)
        if with_step:
            call("step", lambda r: checks.check_step(tally, r))
    return tally, latency


@dataclass
class _Loop:
    """What one closed-loop drive produced, merged over its connections."""

    tally: Tally
    latency: dict[str, list[float]]
    start: float
    end: float

    @property
    def completed(self) -> int:
        return sum(len(samples) for samples in self.latency.values())

    @property
    def qps(self) -> float:
        return self.completed / (self.end - self.start)


def _closed_loop(port: int, racks: list[str], seconds: float) -> _Loop:
    """Drive the daemon over :data:`SERVE_CONNECTIONS` connections for ``seconds``.

    Only the first connection sends the coordinated cluster ``step``.
    """
    from repro.serve.client import ServeClient

    clients = [ServeClient(port=port) for _ in range(SERVE_CONNECTIONS)]
    try:
        start = perf_counter()
        deadline = start + seconds
        with ThreadPoolExecutor(max_workers=len(clients)) as pool:
            futures = [
                pool.submit(_drive, client, racks, deadline, i == 0)
                for i, client in enumerate(clients)
            ]
            parts = [future.result() for future in futures]
        end = perf_counter()
    finally:
        for client in clients:
            client.close()
    loop = _Loop(Tally(), {}, start, end)
    for part, latency in parts:
        loop.tally.merge(part)
        for op, samples in latency.items():
            loop.latency.setdefault(op, []).extend(samples)
    return loop


def _boot_daemon(seed: int) -> tuple[subprocess.Popen, int, float]:
    """Start ``repro serve``; returns it, its port, and seconds until a ping answered."""
    from repro.serve.client import ServeClient

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    command = [
        sys.executable, "-m", "repro.cli", "serve",
        "--racks", str(SERVE_RACKS), "--shared-grid-w", str(SERVE_SHARED_GRID_W),
        "--seed", str(seed), "--port", "0",
    ]
    start = perf_counter()
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], SERVE_BOOT_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        if not line.startswith("serving"):
            raise RuntimeError(f"daemon did not come up: {line!r}")
        port = int(line.split(":")[-1].split()[0])
        with ServeClient(port=port) as client:
            client.ping()
        return proc, port, perf_counter() - start
    except BaseException:
        _stop_daemon(proc)
        raise


def _stop_daemon(proc: subprocess.Popen) -> str:
    """SIGTERM (graceful shutdown), wait, and return the daemon's stderr."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        _, err = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
    return err or ""


def _peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def _warm_up(port: int, racks: list[str], tally: Tally) -> None:
    """One untimed round, so first-query solves do not count as latency."""
    from repro.serve.client import ServeClient

    with ServeClient(port=port) as client:
        for rack in racks:
            checks.check_allocation(tally, client.allocate(rack), None)


def run_serve_fleet(seed: int, seconds: float) -> Outcome:
    setup: list[float] = []
    proc = None
    try:
        for boot in range(SERVE_BOOTS):
            proc, port, boot_s = _boot_daemon(seed)
            setup.append(boot_s)
            if boot < SERVE_BOOTS - 1:
                _stop_daemon(proc)
                proc = None
        racks = [f"rack{i}" for i in range(SERVE_RACKS)]
        tally = Tally()
        _warm_up(port, racks, tally)
        loop = _closed_loop(port, racks, seconds)
        rss = _peak_rss_mb(proc.pid)
    finally:
        if proc is not None:
            stderr = _stop_daemon(proc)
    if proc.returncode != 0:
        tally.record(False, f"daemon exited {proc.returncode}: {stderr[-500:]}")
    tally.merge(loop.tally)
    latency = loop.latency
    metrics = _e2e(setup, rss, loop.qps, _ms_or_none(latency["allocate"], 50))
    info = {
        "serve.allocate_ms_p50": _ms_or_none(latency["allocate"], 50),
        "serve.allocate_ms_p99": _ms_or_none(latency["allocate"], 99),
        "serve.step_ms_p50": _ms_or_none(latency["step"], 50),
        "serve.forecast_ms_p50": _ms_or_none(latency["forecast"], 50),
        "samples": {op: len(samples) for op, samples in latency.items()},
        "connections": SERVE_CONNECTIONS,
    }
    return Outcome(tally, metrics, info)


def run_serve_fleet_traced(seed: int, seconds: float) -> Outcome:
    """The daemon hosted in-process, so the wrappers see its calls.

    Phases alternate unwrapped and wrapped; the wrapped ones give the
    per-layer numbers, both together the tracing overhead.
    """
    from repro.serve import AllocationDaemon, ServeClient, ServeState

    tracer = LayerTracer()
    layers.install(tracer)
    try:
        state = ServeState.build(_serve_config(seed))
    finally:
        tracer.unwrap_all()
    stacks = len(state.racks)
    solvers = [host.solver for host in state.racks.values()]
    daemon = AllocationDaemon(state, port=0)
    thread = daemon.run_in_thread()
    racks = state.rack_names()
    tally = Tally()
    qps = {False: [], True: []}
    allocate_s: list[float] = []
    methods: dict[str, float] = {}
    hits = lookups = coalesced = allocates = 0
    try:
        _warm_up(daemon.port, racks, tally)
        with ServeClient(port=daemon.port) as admin:
            for phase in range(4):
                traced = phase % 2 == 1
                if traced:
                    layers.install(tracer)
                    before = layers.solver_method_counts()
                    cache_before = layers.cache_baseline(solvers)
                    stats_before = admin.cache_stats()
                    ops_before = admin.status()["ops"].get("allocate", 0)
                try:
                    loop = _closed_loop(daemon.port, racks, seconds / 4)
                finally:
                    if traced:
                        tracer.unwrap_all()
                tally.merge(loop.tally)
                qps[traced].append(loop.qps)
                if traced:
                    allocate_s.extend(loop.latency["allocate"])
                    layers.add_method_delta(methods, before)
                    h, n = layers.cache_counts(solvers, cache_before)
                    hits += h
                    lookups += n
                    coalesced += admin.cache_stats()["coalesced"] - stats_before["coalesced"]
                    allocates += admin.status()["ops"].get("allocate", 0) - ops_before
    finally:
        daemon.stop_from_thread()
        thread.join(timeout=30)
    if thread.is_alive():
        raise RuntimeError("in-process daemon did not stop")

    metrics = layers.layer_metrics(tracer, stacks=stacks, cache=(hits, lookups), methods=methods)
    handler = percentile(tracer.durations.get("serve.allocate", []), 50)
    client_p50 = percentile(allocate_s, 50)
    metrics["serve.handler_ms_p50.allocate"] = (0.0 if handler is None else handler * 1e3, "ms")
    metrics["serve.transport_ms_p50"] = (
        0.0 if handler is None or client_p50 is None else (client_p50 - handler) * 1e3, "ms")
    metrics["serve.coalesced_ratio"] = (coalesced / allocates if allocates else 0.0, "ratio")
    metrics["serve.allocate_requests"] = (allocates, "count")
    metrics.update(_overhead(median(qps[True]), median(qps[False])))
    return Outcome(tally, metrics, {"trace_tables": layers.report_tables(tracer)})


# ----------------------------------------------------------------------
WORKLOADS: dict[str, tuple[Callable[[int, float], Outcome], Callable[[int, float], Outcome]]] = {
    "sim-day": (SIM_DAY.run, SIM_DAY.run_traced),
    "policy-sweep": (run_policy_sweep, run_policy_sweep_traced),
    "serve-fleet": (run_serve_fleet, run_serve_fleet_traced),
    "shift-day": (SHIFT_DAY.run, SHIFT_DAY.run_traced),
}


def record_references(seed: int) -> Path:
    """Write the simulated workloads' reference trajectories for ``seed``."""
    checks.store_reference(seed, "sim-day", SIM_DAY.references(seed))
    checks.store_reference(seed, "shift-day", SHIFT_DAY.references(seed))
    return checks.store_reference(seed, "policy-sweep", _sweep_reference(seed))
