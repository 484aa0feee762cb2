"""``tools/gen_api_docs.py``: each member is listed where it is defined."""

import importlib
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "gen_api_docs.py"
_SPEC = importlib.util.spec_from_file_location("gen_api_docs", _PATH)
gen_api_docs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gen_api_docs)


def names(module_name):
    module = importlib.import_module(module_name)
    return [name for name, _ in gen_api_docs.public_members(module)]


def test_module_lists_only_what_it_defines():
    # The scheduler imports HoltPredictor and ConfigurationError; neither
    # is its own.
    listed = names("repro.core.scheduler")
    assert "AdaptiveScheduler" in listed
    assert "HoltPredictor" not in listed
    assert "ConfigurationError" not in listed
    assert "HoltPredictor" in names("repro.core.predictor")


def test_package_lists_its_reexports():
    assert "HoltPredictor" in names("repro.core")
    assert "ResponseCurve" in names("repro.servers")
