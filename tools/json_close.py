#!/usr/bin/env python3
"""Compare two JSON documents, allowing float rounding noise.

Keys, list lengths, strings, booleans, nulls and integers must match
exactly, and so must each value's JSON type.  Floats must agree within a
relative tolerance (default 1e-9), so output regenerated under another
Python or numpy version still compares equal when only the last bits of
a float moved.  Every difference is printed with its JSON path; the exit
status is 1 if there is any.  ``-`` reads a document from standard input.

    python tools/json_close.py EXPECTED.json ACTUAL.json [--rel 1e-9]
    git show HEAD:BENCH_shift.json | python tools/json_close.py - BENCH_shift.json
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Iterator


def differences(want: Any, got: Any, rel: float, path: str = "$") -> Iterator[str]:
    """Yield one message per difference between ``want`` and ``got``."""
    if type(want) is not type(got):
        yield f"{path}: {type(want).__name__} {want!r} != {type(got).__name__} {got!r}"
    elif isinstance(want, dict):
        if want.keys() != got.keys():
            missing = sorted(want.keys() - got.keys())
            extra = sorted(got.keys() - want.keys())
            yield f"{path}: keys differ (missing {missing}, extra {extra})"
        for key in sorted(want.keys() & got.keys()):
            yield from differences(want[key], got[key], rel, f"{path}.{key}")
    elif isinstance(want, list):
        if len(want) != len(got):
            yield f"{path}: length {len(want)} != {len(got)}"
        for i, (a, b) in enumerate(zip(want, got)):
            yield from differences(a, b, rel, f"{path}[{i}]")
    elif isinstance(want, float):
        same_nan = math.isnan(want) and math.isnan(got)
        if not same_nan and not math.isclose(want, got, rel_tol=rel, abs_tol=0.0):
            yield f"{path}: {want!r} != {got!r} (rel tol {rel:g})"
    elif want != got:
        yield f"{path}: {want!r} != {got!r}"


def _load(name: str) -> Any:
    if name == "-":
        return json.load(sys.stdin)
    with open(name, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("expected", help="reference document ('-' for stdin)")
    parser.add_argument("actual", help="document to check ('-' for stdin)")
    parser.add_argument("--rel", type=float, default=1e-9,
                        help="relative float tolerance (default 1e-9)")
    args = parser.parse_args(argv)
    if args.expected == "-" and args.actual == "-":
        parser.error("only one document can come from stdin")
    found = list(differences(_load(args.expected), _load(args.actual), args.rel))
    for line in found:
        print(line)
    print(f"{len(found)} difference(s): {args.expected} vs {args.actual}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
