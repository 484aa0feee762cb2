"""API-contract tests: the documented public surface must exist.

Guards against accidental breakage of the names README, the tutorial,
and the examples rely on.
"""

import importlib

import pytest

import repro

TOP_LEVEL = [
    "ExperimentConfig",
    "ExperimentResult",
    "GreenHeteroController",
    "HoltPredictor",
    "PARSolver",
    "Policy",
    "ProfilingDatabase",
    "Simulation",
    "UniformPolicy",
    "effective_power_utilization",
    "make_policy",
    "run_experiment",
    "run_experiments",
]

SUBPACKAGE_SURFACE = {
    "repro.core": [
        "ClusterCoordinator", "FitKind", "GridSplit",
        "HoltPredictor", "Monitor", "PARSolver", "PerfPowerFit",
        "PowerCase", "PowerSourceController", "ProfilingDatabase",
        "ServerPowerController", "SourceSelector",
        "load_database", "save_database",
    ],
    "repro.power": [
        "BatteryBank", "GridSource", "HybridRenewable", "PDU",
        "SolarFarm", "WindFarm",
    ],
    "repro.servers": [
        "PLATFORMS", "PowerStateSet", "Rack", "ResponseCurve",
        "ServerSpec", "get_platform", "register_platform",
    ],
    "repro.workloads": [
        "WORKLOADS", "LatencySLO", "Workload", "get_workload",
        "response_for",
    ],
    "repro.sim": [
        "ExperimentConfig", "FaultInjector", "SimClock", "Simulation",
        "TelemetryLog", "WorkloadSchedule", "run_experiment",
        "run_experiments",
    ],
    "repro.analysis": [
        "GainStatistics", "SustainabilityReport",
        "format_table", "gain_statistics", "geometric_mean",
        "seed_sweep", "sparkline",
        "sustainability_report",
    ],
    "repro.traces": [
        "DiurnalLoadPattern", "IrradianceTrace", "Weather",
        "synthesize_irradiance",
    ],
}


class TestTopLevel:
    @pytest.mark.parametrize("name", TOP_LEVEL)
    def test_exported(self, name):
        assert hasattr(repro, name), name
        assert name in repro.__all__

    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)


class TestSubpackages:
    @pytest.mark.parametrize(
        "module,name",
        [(m, n) for m, names in SUBPACKAGE_SURFACE.items() for n in names],
    )
    def test_surface(self, module, name):
        mod = importlib.import_module(module)
        assert hasattr(mod, name), f"{module}.{name}"

    @pytest.mark.parametrize("module", list(SUBPACKAGE_SURFACE))
    def test_all_is_sorted_and_valid(self, module):
        mod = importlib.import_module(module)
        assert hasattr(mod, "__all__")
        for name in mod.__all__:
            assert hasattr(mod, name), f"{module}.__all__ lists missing {name}"


class TestDocstrings:
    @pytest.mark.parametrize(
        "module",
        [
            "repro", "repro.core.controller", "repro.core.solver",
            "repro.core.database", "repro.core.predictor",
            "repro.core.policies", "repro.core.sources",
            "repro.power.battery", "repro.power.pdu",
            "repro.servers.power_model", "repro.sim.engine",
        ],
    )
    def test_module_documented(self, module):
        mod = importlib.import_module(module)
        assert mod.__doc__ and len(mod.__doc__) > 80

    def test_public_classes_documented(self):
        from repro.core.controller import GreenHeteroController
        from repro.core.solver import PARSolver, PartialGroupSolver

        for cls in (GreenHeteroController, PARSolver, PartialGroupSolver):
            assert cls.__doc__ and len(cls.__doc__) > 80
            for name, member in vars(cls).items():
                if callable(member) and not name.startswith("_"):
                    assert member.__doc__, f"{cls.__name__}.{name} undocumented"
