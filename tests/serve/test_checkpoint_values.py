"""Bad values in a fleet checkpoint are refused at restore, by field path.

One leaf per class of hole the schema closes: a non-finite integer, a
seed numpy refuses, ``true`` for a number, a non-bool flag, a non-string
name, a null that fails the first step, and an RNG field numpy accepts.
"""

import json
import math
import re

import pytest

from repro.errors import ConfigurationError
from repro.serve.state import CHECKPOINT_NAME, ServeConfig, ServeState

CONFIG = ServeConfig(
    platforms=(("E5-2620", 1), ("i5-4460", 1)),
    workload="Streamcluster",
    n_racks=2,
    shared_grid_w=900.0,
)


@pytest.fixture(scope="module")
def document(tmp_path_factory):
    state = ServeState.build(CONFIG, checkpoint_dir=tmp_path_factory.mktemp("base"))
    for i, host in enumerate(state.racks.values()):
        host.submit({
            "job_id": f"job-{i}", "energy_wh": 60.0, "power_w": 40.0,
            "earliest_start_s": 0.0, "deadline_s": 86400.0, "value": 1.0,
        })
    for _ in range(3):
        state.step_cluster()
    return json.loads((state.checkpoint() / CHECKPOINT_NAME).read_text())


def restore_with(document, tmp_path, path, value):
    document = json.loads(json.dumps(document))
    node = document
    keys = [int(k) if k.isdigit() else k for k in path.split(".")]
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    (tmp_path / CHECKPOINT_NAME).write_text(json.dumps(document))
    return ServeState.build(checkpoint_dir=tmp_path)


@pytest.mark.parametrize(
    "path, value",
    [
        # int(inf) raised a bare OverflowError.
        ("racks.rack0.epoch_index", math.inf),
        ("cluster_epochs", math.inf),
        ("racks.rack0.database.entries.0.fit.n_samples", math.inf),
        # numpy raised a bare ValueError for the negative seed.
        ("config.seed", -1),
        # Each of these loaded, coerced to another value.
        ("racks.rack0.battery.soc_wh", True),
        ("racks.rack0.renewable_predictor.nonnegative", "x"),
        ("racks.rack0.database.entries.0.platform", math.nan),
        ("racks.rack0.renewable_predictor.nonnegative", None),
        ("racks.rack0.monitor.has_uint32", -1),
        # numpy raised a bare OverflowError.
        ("racks.rack0.load_generator.state.inc", -1),
        # Loaded, then the first step's forecast failed.
        ("racks.rack0.demand_predictor.level", None),
    ],
)
def test_bad_value_rejected_naming_its_path(document, tmp_path, path, value):
    with pytest.raises(ConfigurationError, match=f"^{re.escape(path)} "):
        restore_with(document, tmp_path, path, value)


def test_the_unmutated_checkpoint_restores(document, tmp_path):
    level = document["racks"]["rack0"]["demand_predictor"]["level"]
    state = restore_with(document, tmp_path, "racks.rack0.demand_predictor.level", level)
    assert state.restored
    state.step_cluster()
