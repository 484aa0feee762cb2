#!/usr/bin/env python3
"""List the functions under ``src/repro`` that no program path calls.

Runs every program path of the repository as a subprocess with a
profile hook installed, then prints each function or method defined
under ``src/repro`` whose code never ran.  The program paths are:

* each ``repro`` CLI subcommand (``run`` also with ``--fault``,
  ``--export``, ``--report``, ``--strict`` and ``--sustainability``, and
  with ``--jobs 2``; ``serve`` through the smoke tools);
* every tool in ``tools/`` but this one;
* the examples in ``examples/``;
* the four ``perfbench`` workloads, traced and untraced;
* ``pytest benchmarks/`` with ``--benchmark-disable``.

The hook is a ``sitecustomize`` module in a temporary directory put at
the front of ``PYTHONPATH``, so every interpreter the paths start loads
it: the daemons the smoke tools boot and the forked pool workers
included.  It installs ``sys.setprofile`` and ``threading.setprofile``
and writes the code objects it saw from ``atexit`` and from
``os._exit``, the exit a forked ``multiprocessing`` worker takes.

Three things bend the count if they are missed:

* pytest-benchmark sets the profile hook to ``None`` around every timed
  call, so the benchmarks run with ``--benchmark-disable``;
* under ``--benchmark-disable`` a test that reads ``benchmark.stats``
  fails because ``stats`` is ``None``; only reach is measured here, so a
  path's exit status is printed and not acted on;
* ``tools/obs_smoke.py``'s 5% overhead gate can fail under the hook,
  which slows the traced arm more than the untraced one; the gate is
  its last check, so its reach is complete either way;
* the paths that write a committed file (``BENCH_shift.json``,
  ``BENCH_parallel_runner.json``, ``docs/api.md``) get it restored
  afterwards, and the tools with an ``--out`` write into the temporary
  directory.

A function defined in ``src/repro`` is matched to its code object by
file and first line (the first decorator's line when decorated); its
size is counted from the ``def`` line to its last line, decorators
left out.  Lambdas and comprehensions are not listed.

    python tools/reachability.py            # ~2 min on 2 vCPUs
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: Files a program path rewrites in the checkout; restored after the run.
PRESERVED = ("BENCH_parallel_runner.json", "BENCH_shift.json", "docs/api.md")

#: The ``sitecustomize`` every traced interpreter loads.  It keeps each
#: code object it sees by ``id`` (hashing a code object hashes its
#: bytecode, far too slow per call) and writes the ones defined under
#: ``REACH_SRC`` as ``file<TAB>first line`` to a file per process.
HOOK = '''\
import atexit, os, sys, threading

_OUT = os.environ["REACH_OUT"]
_SRC = os.environ["REACH_SRC"]
_seen = {}


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if id(code) not in _seen:
            _seen[id(code)] = code


def _dump():
    path = os.path.join(_OUT, f"{os.getpid()}-{os.urandom(6).hex()}.txt")
    with open(path, "w") as out:
        for code in list(_seen.values()):
            if code.co_filename.startswith(_SRC):
                out.write(f"{code.co_filename}\\t{code.co_firstlineno}\\n")


_real_exit = os._exit


def _exit(status):
    _dump()
    _real_exit(status)


os._exit = _exit
atexit.register(_dump)
sys.setprofile(_hook)
threading.setprofile(_hook)
'''


@dataclass(frozen=True)
class Function:
    """One ``def`` under the traced tree."""

    path: Path
    line: int
    qualname: str
    lines: int

    def __str__(self) -> str:
        return f"{self.path}:{self.line} {self.qualname} ({self.lines} lines)"


def enumerate_functions(root: Path) -> list[Function]:
    """Every function and method defined in the ``.py`` files under
    ``root``, nested ones included, keyed by the line its code object
    reports as ``co_firstlineno``."""
    found: list[Function] = []

    def walk(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                start = min([child.lineno] + [d.lineno for d in child.decorator_list])
                qualname = prefix + child.name
                found.append(Function(path, start, qualname, child.end_lineno - child.lineno + 1))
                walk(child, path, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(root.rglob("*.py")):
        walk(ast.parse(path.read_text(), str(path)), path.resolve(), "")
    return found


def unreached(functions: Iterable[Function], called: set[tuple[Path, int]]) -> list[Function]:
    """The functions whose ``(path, line)`` is not in ``called``."""
    return [f for f in functions if (f.path, f.line) not in called]


def trace(
    commands: Sequence[Sequence[str]], root: Path, cwd: Path, scratch: Path
) -> tuple[set[tuple[Path, int]], list[tuple[str, int]]]:
    """Run ``commands`` under the hook and return the ``(path, line)`` of
    every code object under ``root`` that ran, with each command that
    exited non-zero and its status."""
    hook_dir = scratch / "hook"
    out_dir = scratch / "records"
    hook_dir.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    (hook_dir / "sitecustomize.py").write_text(HOOK)
    env = {
        **os.environ,
        "REACH_OUT": str(out_dir),
        "REACH_SRC": str(root.resolve()),
        "PYTHONPATH": os.pathsep.join(
            p for p in (str(hook_dir), str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        ),
    }
    failed = []
    for command in commands:
        started = time.perf_counter()
        status = subprocess.run(
            command, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        ).returncode
        print(f"[{time.perf_counter() - started:6.1f} s] exit {status}: {' '.join(command)}",
              file=sys.stderr)
        if status != 0:
            failed.append((" ".join(command), status))
    called = set()
    for record in out_dir.iterdir():
        for row in record.read_text().splitlines():
            path, line = row.split("\t")
            called.add((Path(path), int(line)))
    return called, failed


def program_paths(tmp: Path) -> Iterator[list[str]]:
    """The commands that make up the repository's program paths."""
    py = sys.executable
    repro = [py, "-m", "repro.cli"]
    yield repro + ["run", "--fault", "renewable:0.0:28800:36000", "--export",
                   str(tmp / "run.csv"), "--report", str(tmp / "report.md"),
                   "--strict", "--sustainability",
                   "--policies", "Uniform", "GreenHetero", "OnOff", "GreenHetero+"]
    yield repro + ["run", "--days", "0.25", "--jobs", "2"]
    yield repro + ["run"]
    for command in (["sweep"], ["case-study"], ["combos"], ["validate"], ["verify"],
                    ["shift", "--out", str(tmp / "shift.json")],
                    ["trace", "--out", str(tmp / "trace.csv")],
                    ["figures", "--out", str(tmp / "figures")]):
        yield repro + command
    yield [py, "tools/gen_api_docs.py"]
    yield [py, "tools/json_close.py", "WORK_COUNTS.json", "WORK_COUNTS.json"]
    yield [py, "tools/work_counts.py", "--out", str(tmp / "work_counts.json")]
    yield [py, "tools/serve_smoke.py"]
    yield [py, "tools/shift_smoke.py", "--out", str(tmp / "bench_shift.json")]
    yield [py, "tools/obs_smoke.py", "--out", str(tmp / "bench_obs.json")]
    for example in sorted((ROOT / "examples").glob("*.py")):
        yield [py, str(example.relative_to(ROOT))]
    for workload in ("sim-day", "policy-sweep", "serve-fleet", "shift-day"):
        for traced in ("0", "1"):
            yield [py, "perfbench/run.py", "--workload", workload,
                   "--seconds", "1", "--trace", traced]
    yield [py, "-m", "pytest", "benchmarks/", "--benchmark-disable", "-q",
           "-p", "no:cacheprovider"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    saved = {name: (ROOT / name).read_bytes() for name in PRESERVED}
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        try:
            called, failed = trace(list(program_paths(Path(tmp))), SRC, ROOT, Path(tmp))
        finally:
            for name, data in saved.items():
                (ROOT / name).write_bytes(data)
    functions = enumerate_functions(SRC)
    missing = unreached(functions, called)
    for function in missing:
        print(f"{function.path.relative_to(ROOT)}:{function.line} "
              f"{function.qualname} ({function.lines} lines)")
    print(f"{len(missing)} of {len(functions)} functions in src/repro never called "
          f"({sum(f.lines for f in missing)} lines)")
    for command, status in failed:
        print(f"note: exit {status}: {command}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
