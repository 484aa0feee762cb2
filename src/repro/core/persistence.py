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
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from repro.core.database import ProfilingDatabase
from repro.errors import ConfigurationError

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
    db = ProfilingDatabase()
    db.load_state_dict(read_document(path, "database"))
    return db
