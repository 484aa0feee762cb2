#!/usr/bin/env python3
"""End-to-end smoke test of the correctness harness (run by CI).

Three gates, in the order a regression would surface:

1. **Strict reference simulations**: the paper's standard stack, run
   end-to-end with the invariant auditor in strict mode, once under the
   default grid-backed supply and once in the constrained-supply
   (``supply_fractions``) regime.  Zero violations required.
2. **Differential solver corpus**: 200 seeded randomized PAR programs
   solved the production way and with each mechanism forced (KKT /
   grid / SLSQP), cross-checked for feasibility and for no reference
   beating the exact solve.
3. **Checkpoint round-trip fuzzing**: serve/shift state documents must
   be serialization fixed points under randomized state.

Writes ``BENCH_verify.json`` for CI to archive.  Exit status is
non-zero on any failure.  Usage:

    python tools/verify_smoke.py [--out BENCH_verify.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_verify.json",
                        help="benchmark record path")
    parser.add_argument("--cases", type=int, default=200,
                        help="differential corpus size")
    parser.add_argument("--fuzz-cases", type=int, default=50,
                        help="round-trip fuzzer iterations")
    parser.add_argument("--epochs", type=int, default=16,
                        help="epochs per strict reference simulation")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    from repro.verify import (
        fuzz_round_trips,
        run_differential,
        run_strict_reference,
    )

    failures: list[str] = []
    payload: dict = {"gates": {}}

    start = time.perf_counter()
    references = run_strict_reference(n_epochs=args.epochs, seed=args.seed)
    payload["gates"]["reference"] = {
        "elapsed_s": round(time.perf_counter() - start, 3),
        "modes": {r.mode: r.audit for r in references},
    }
    for result in references:
        print(result.summary())
        if not result.passed:
            failures.append(result.summary())

    start = time.perf_counter()
    diff = run_differential(n_cases=args.cases, seed=args.seed)
    payload["gates"]["differential"] = {
        "elapsed_s": round(time.perf_counter() - start, 3),
        "n_cases": diff.n_cases,
        "n_failures": len(diff.failures),
    }
    print(diff.summary())
    if not diff.passed:
        failures.append(diff.summary())

    start = time.perf_counter()
    fuzz = fuzz_round_trips(n_cases=args.fuzz_cases, seed=args.seed)
    payload["gates"]["fuzz"] = {
        "elapsed_s": round(time.perf_counter() - start, 3),
        "n_round_trips": fuzz.n_cases,
        "n_failures": len(fuzz.failures),
    }
    print(fuzz.summary())
    if not fuzz.passed:
        failures.append(fuzz.summary())

    payload["passed"] = not failures
    Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(f"wrote benchmark record to {args.out}")

    if failures:
        raise SystemExit("verify smoke FAILED:\n" + "\n".join(failures))
    print("verify smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
