"""The checkpoint file format: versioned JSON documents.

Every stateful component owns its state through one protocol: an
in-place ``state_dict()`` that returns JSON-ready values and a
``load_state_dict(state)`` that installs them (see DESIGN.md §9).  This
module is the file side of that protocol: it stamps a state with
:data:`FORMAT_VERSION` on write and checks the stamp on read, in one
place, so each file carries exactly one version.

The paper's database "provides the power consumption and throughput
projection for all workloads and server configurations *it has ever
executed*" — knowledge that must survive controller restarts, or every
reboot pays the training-run cost again for every pair.
:func:`save_database` / :func:`load_database` write and read the same
document a serve checkpoint holds under each rack's ``database`` key.

The format is deliberately plain JSON, written compact with sorted
keys: operators can inspect and diff the learned projections (``python
-m json.tool`` re-indents a file), and foreign tools can consume them.

What a loader accepts is declared here too: each component names its
fields once as :class:`Field` values, and :func:`check` validates a
state against them, raising a :class:`ConfigurationError` that names
the field's path (``racks.rack0.battery.soc_wh``).
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
import typing
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Mapping

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.core.database import ProfilingDatabase

#: Format version written into every document; bump on breaking changes.
FORMAT_VERSION = 2


def write_document(path: str | Path, state: dict[str, Any]) -> None:
    """Write ``state`` stamped with the format version, atomically.

    The document goes to a temp file that is fsynced and renamed over
    ``path``; the directory is fsynced last.  The rename is the commit
    point: a crash before it leaves the previous document, and the data
    reaches the disk before the name does.  The JSON is compact (no
    indentation, no spaces after separators): in a fleet checkpoint
    indentation would be over 40% of the bytes written and fsynced.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    document = {"format_version": FORMAT_VERSION, **state}
    with open(tmp, "w") as f:
        f.write(json.dumps(document, sort_keys=True, separators=(",", ":")))
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def read_document(path: str | Path, what: str) -> dict[str, Any]:
    """Read a :func:`write_document` file and return its state.

    Raises
    ------
    ConfigurationError
        If the file is unreadable, not a JSON object, or stamped with
        another format version.
    """
    try:
        document = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # JSON and UTF-8 decode errors
        raise ConfigurationError(f"cannot read {what} from {path}: {exc}") from exc
    if not isinstance(document, dict):
        raise ConfigurationError(f"{path} does not contain a {what} document")
    version = document.pop("format_version", None)
    if version != FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported {what} format version {version} "
            f"(this build reads {FORMAT_VERSION})"
        )
    return document


def save_database(db: ProfilingDatabase, path: str | Path) -> None:
    """Write ``db`` as a JSON document at ``path``."""
    write_document(path, db.state_dict())


def load_database(path: str | Path) -> ProfilingDatabase:
    """Read a database document from ``path``.

    Raises
    ------
    ConfigurationError
        If the file is not valid JSON or not a database document.
    """
    from repro.core.database import ProfilingDatabase

    db = ProfilingDatabase()
    db.load_state_dict(read_document(path, "database"))
    return db


# ----------------------------------------------------------------------
# One schema: the fields a loader accepts (DESIGN.md §9)
# ----------------------------------------------------------------------
def field_error(path: str, problem: str) -> ConfigurationError:
    """A :class:`ConfigurationError` naming ``path``, kept for :func:`within`."""
    error = ConfigurationError(f"{path or 'state'} {problem}")
    error.field_path, error.problem = path, problem
    return error


_KINDS = {float: "a number", int: "an integer", bool: "a boolean", str: "a string",
          list: "a list", dict: "an object"}


@dataclass(frozen=True)
class Field:
    """One declared field of a checkpointed state.

    Its ``kind`` is one of :data:`_KINDS` (a bool is never a number, and
    an integral float reads as an ``int``); then whether a number must be
    finite, its range ``[lo, hi]``, whether it may be null, the strings
    allowed, and whether the value is a list of such values."""

    kind: type = float
    lo: float = -math.inf
    hi: float = math.inf
    finite: bool = True
    nullable: bool = False
    choices: tuple[str, ...] = ()
    many: bool = False

    def parse(self, value: Any, path: str) -> Any:
        """``value`` checked, with numbers as ``float`` or ``int``."""
        if self.many:
            if not isinstance(value, list):
                raise field_error(path, f"must be a list, got {value!r}")
            one = dataclasses.replace(self, many=False)
            return [one.parse(item, f"{path}.{i}") for i, item in enumerate(value)]
        if value is None and self.nullable:
            return None
        number = self.kind in (float, int)
        # bool subclasses int, so only this first test keeps ``true`` out.
        if isinstance(value, bool) != (self.kind is bool) or not isinstance(
            value, numbers.Real if number else self.kind
        ):
            raise field_error(path, f"must be {_KINDS[self.kind]}, got {value!r}")
        if self.choices and value not in self.choices:
            raise field_error(path, f"must be one of {list(self.choices)}, got {value!r}")
        if not number:
            return value
        if self.kind is int:
            if not (isinstance(value, numbers.Integral) or float(value).is_integer()):
                raise field_error(path, f"must be an integer, got {value!r}")
            value = int(value)
        elif self.finite and not math.isfinite(value):
            raise field_error(path, f"must be finite, got {value!r}")
        # NaN fails neither test: it gets here only when ``finite`` is off.
        if value < self.lo or value > self.hi:
            raise field_error(path, f"must be in [{self.lo}, {self.hi}], got {value!r}")
        return value if self.kind is int else float(value)


def check(state: Any, fields: Mapping[str, Field], path: str = "") -> dict[str, Any]:
    """The declared ``fields`` of ``state``, checked and normalized.

    Keys not declared are not read.  A :class:`ConfigurationError` names
    ``path.key`` of the first field that is missing or invalid."""
    if not isinstance(state, dict):
        raise field_error(path, f"must be an object, got {state!r}")
    values = {}
    for name, field in fields.items():
        where = f"{path}.{name}" if path else name
        if name not in state:
            raise field_error(where, "is missing")
        values[name] = field.parse(state[name], where)
    return values


def check_rows(rows: list, fields: Mapping[str, Field], path: str) -> list[tuple]:
    """Each row of ``rows`` (a list such as ``[platform, count]``) checked.

    A row holds the ``fields`` in order; each comes back as a tuple."""
    values = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != len(fields):
            raise field_error(f"{path}.{i}", f"must be a list of {list(fields)}, got {row!r}")
        values.append(tuple(check(dict(zip(fields, row)), fields, f"{path}.{i}").values()))
    return values


def dataclass_fields(cls: type, **overrides: Field) -> dict[str, Field]:
    """A :class:`Field` per scalar attribute of dataclass ``cls``.

    Each kind is read from the annotation; ``overrides`` replace fields
    or add others."""
    hints = typing.get_type_hints(cls)
    scalars = {f.name: Field(hints[f.name]) for f in dataclasses.fields(cls)
               if hints[f.name] in (float, int, bool, str)}
    return {**scalars, **overrides}


def dump(obj: Any, fields: Mapping[str, Field]) -> dict[str, Any]:
    """The scalar ``fields`` of ``obj``, each cast to its kind for JSON."""
    return {name: field.kind(getattr(obj, name)) for name, field in fields.items()}


@contextmanager
def within(path: str) -> Iterator[None]:
    """Prefix ``path`` to any :class:`ConfigurationError` raised inside.

    So an error in a nested component's state names its full path."""
    try:
        yield
    except ConfigurationError as exc:
        inner = getattr(exc, "field_path", "")
        problem = getattr(exc, "problem", f"is rejected: {exc}")
        raise field_error(f"{path}.{inner}" if inner else path, problem) from exc
