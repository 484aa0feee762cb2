"""``tools/json_close.py``: the float-tolerant JSON comparator CI runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "json_close.py"
_SPEC = importlib.util.spec_from_file_location("json_close", _PATH)
json_close = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(json_close)


def diffs(want, got, rel=1e-9):
    return list(json_close.differences(want, got, rel))


def test_identical_documents_match():
    doc = {"a": [1, 2.5, "x", None, True], "b": {"c": -0.0}}
    assert diffs(doc, json.loads(json.dumps(doc))) == []


def test_float_noise_within_tolerance_matches():
    assert diffs({"x": 1.0}, {"x": 1.0 + 1e-12}) == []
    assert diffs([float("nan")], [float("nan")]) == []


@pytest.mark.parametrize(
    "want, got, where",
    [
        ({"x": 1.0}, {"x": 1.0 + 1e-6}, "$.x"),
        ({"x": 0.0}, {"x": 1e-300}, "$.x"),
        ({"n": 3}, {"n": 3.0}, "$.n"),
        ({"n": 3}, {"n": 4}, "$.n"),
        ({"b": True}, {"b": 1}, "$.b"),
        ({"s": "a"}, {"s": "b"}, "$.s"),
        ({"l": [1, 2]}, {"l": [1]}, "$.l"),
        ({"k": 1}, {"j": 1}, "$"),
    ],
)
def test_exact_parts_and_large_float_moves_differ(want, got, where):
    found = diffs(want, got)
    assert found and found[0].startswith(where + ":")


def test_exit_status(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"x": [1.0, 2]}))
    b.write_text(json.dumps({"x": [1.0, 2]}))
    assert json_close.main([str(a), str(b)]) == 0
    b.write_text(json.dumps({"x": [1.5, 2]}))
    assert json_close.main([str(a), str(b)]) == 1
    assert "$.x[0]" in capsys.readouterr().out
