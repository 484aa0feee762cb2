"""``tools/reachability.py``: which functions no program path calls."""

import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "reachability.py"
_SPEC = importlib.util.spec_from_file_location("reachability", _PATH)
reachability = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = reachability  # its dataclass looks the module up
_SPEC.loader.exec_module(reachability)

FIXTURE = '''\
import functools


def called():
    return helper()


def helper():
    return 1


def uncalled():
    return 2


class Box:
    @functools.lru_cache
    def cached(self):
        return 3

    @property
    def never(self):
        return 4
'''


def fixture_package(tmp_path):
    root = (tmp_path / "pkg").resolve()
    root.mkdir()
    (root / "fixture_mod.py").write_text(FIXTURE)
    return root


def run(root, scratch, body):
    """Trace one interpreter that imports the fixture and runs ``body``."""
    code = f"import sys; sys.path.insert(0, {str(root)!r}); import fixture_mod; {body}"
    return reachability.trace([[sys.executable, "-c", code]], root, root, scratch)


def names(functions):
    return sorted(f.qualname for f in functions)


def test_enumerator_lists_every_def_by_its_first_line(tmp_path):
    root = fixture_package(tmp_path)
    functions = reachability.enumerate_functions(root)
    assert names(functions) == ["Box.cached", "Box.never", "called", "helper", "uncalled"]
    by_name = {f.qualname: f for f in functions}
    # A decorated def is keyed by its first decorator, as co_firstlineno is.
    assert by_name["Box.cached"].line == FIXTURE.splitlines().index("    @functools.lru_cache") + 1
    assert by_name["Box.cached"].lines == 2
    assert by_name["uncalled"].lines == 2


def test_one_called_and_one_uncalled_function(tmp_path):
    root = fixture_package(tmp_path)
    called, failed = run(root, tmp_path / "trace", "fixture_mod.called()")
    assert failed == []
    missing = reachability.unreached(reachability.enumerate_functions(root), called)
    assert names(missing) == ["Box.cached", "Box.never", "uncalled"]


def test_records_are_written_on_os_exit(tmp_path):
    # A forked pool worker leaves through os._exit, which skips atexit.
    root = fixture_package(tmp_path)
    called, failed = run(
        root, tmp_path / "trace", "fixture_mod.Box().cached(); import os; os._exit(3)"
    )
    assert [status for _, status in failed] == [3]
    missing = reachability.unreached(reachability.enumerate_functions(root), called)
    assert names(missing) == ["Box.never", "called", "helper", "uncalled"]
