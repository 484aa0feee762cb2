"""Importing the package, the CLI and the daemon loads no scipy module.

scipy costs ~0.8 s to import, which is most of a cold ``repro serve``
boot.  Only a Holt fit (``scipy.optimize``) and a confidence interval
(``scipy.stats``) need it, and each imports it where it is used.  Each check runs in a fresh interpreter, because this
one has long since loaded scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent

REPORT_SCIPY = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""


def run_fresh(body: str) -> list[str]:
    """Run ``body`` in a new interpreter; it prints ``scipy_modules()`` as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", REPORT_SCIPY + body],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout)


def test_imports_load_no_scipy():
    loaded = run_fresh(
        "import repro, repro.cli, repro.serve.daemon\n"
        "print(json.dumps(scipy_modules()))\n"
    )
    assert loaded == []


def test_serve_build_loads_no_scipy_stats():
    loaded = run_fresh(
        "from repro.serve import ServeConfig, ServeState\n"
        "ServeState.build(ServeConfig(n_racks=1))\n"
        "print(json.dumps(scipy_modules()))\n"
    )
    # Pretraining the Holt predictors needs scipy.optimize, nothing more.
    assert "scipy.optimize" in loaded
    assert "scipy.stats" not in loaded


def test_differential_corpus_loads_no_scipy():
    # The solver and both of the corpus's references are numpy alone.
    loaded = run_fresh(
        "from repro.verify import run_differential\n"
        "assert run_differential(20).passed\n"
        "print(json.dumps(scipy_modules()))\n"
    )
    assert loaded == []
