"""repro.verify: the correctness layer.

Four complementary harnesses:

* :mod:`repro.verify.auditor` — per-epoch invariant auditing of the
  simulation's power accounting (wired into
  :class:`~repro.sim.engine.Simulation`; ``Simulation.assemble(strict=)``
  and ``--strict`` make its auditor raise);
* :mod:`repro.verify.differential` — checking every PAR solve against
  a reference grid sweep and a weak-duality bound, which proves the
  answer globally optimal on concave programs, on a seeded randomized
  corpus and on the programs of a live Fig. 8 lap;
* :mod:`repro.verify.fuzz` — checkpoint round-trip fuzzing for
  serve/shift state;
* :mod:`repro.verify.reference` — strict-mode end-to-end reference
  simulations (the CI acceptance gate).

``fuzz`` and ``reference`` are loaded lazily: they reach into the serve
stack and the engine, which themselves import this package.
"""

from __future__ import annotations

from repro.verify.auditor import (
    DEFAULT_CHECKS,
    AuditContext,
    InvariantAuditor,
    Violation,
)
from repro.verify.differential import (
    CaseOutcome,
    DifferentialReport,
    run_differential,
    run_live,
)

__all__ = [
    "AuditContext",
    "CaseOutcome",
    "DEFAULT_CHECKS",
    "DifferentialReport",
    "InvariantAuditor",
    "Violation",
    "run_differential",
    "run_live",
    "FuzzReport",
    "fuzz_round_trips",
    "ReferenceResult",
    "run_strict_reference",
]

_LAZY = {
    "FuzzReport": ("repro.verify.fuzz", "FuzzReport"),
    "fuzz_round_trips": ("repro.verify.fuzz", "fuzz_round_trips"),
    "ReferenceResult": ("repro.verify.reference", "ReferenceResult"),
    "run_strict_reference": ("repro.verify.reference", "run_strict_reference"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
