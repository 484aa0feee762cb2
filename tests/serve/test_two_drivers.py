"""One epoch under two drivers: a served rack steps as the offline stack.

The daemon's rack and the experiment runner's stack are assembled by
different callers (:meth:`ServeState.build` and the runner's
:meth:`Simulation.assemble` call), and the served one carries a
pass-through shift runtime.  Built from the same config, they must
produce the same records.
"""

from repro.core.policies import make_policy
from repro.serve.state import ServeConfig, ServeState
from repro.sim.engine import Simulation
from repro.sim.experiment import ExperimentConfig


def offline_sim(config: ExperimentConfig) -> Simulation:
    """The runner's assembly of ``config``'s one policy."""
    (policy,) = config.policies
    return Simulation.assemble(
        policy=make_policy(policy),
        rack=config.build_rack(),
        weather=config.weather,
        clock=config.build_clock(),
        solar_scale=config.solar_scale,
        grid_budget_w=config.grid_budget_w,
        diurnal_load=config.diurnal_load,
        seed=config.seed,
        fit_kind=config.fit_kind,
    )


def test_served_rack_equals_the_offline_stack():
    served = ServeState.build(ServeConfig(n_racks=1, seed=2021)).rack("rack0")
    sim = offline_sim(
        ExperimentConfig(grid_budget_w=None, policies=("GreenHetero",), seed=2021)
    )
    # A served rack profiles at boot, before its first request.
    sim.controller.ensure_profiled()
    assert sim.clock.n_epochs == 96
    served_records = [served.step() for _ in range(96)]
    offline_records = [sim.step() for _ in range(96)]
    assert served_records == offline_records
    assert served.status()["audit"]["violations"] == 0
