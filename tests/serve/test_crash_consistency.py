"""A crash mid-checkpoint restores exactly one generation of the fleet.

A coordinated two-rack fleet is checkpointed at cluster epoch 5 (the old
generation) and stepped to epoch 8 (the new one).  The next checkpoint
is then cut short, and a restore must install every rack from the old
generation or every rack from the new one, never a mix.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.serve import state as state_module
from repro.serve.state import CHECKPOINT_NAME, ServeConfig, ServeState

SRC = Path(repro.__file__).resolve().parent.parent

FLEET = ServeConfig(
    platforms=(("E5-2620", 2), ("i5-4460", 2)), n_racks=2, shared_grid_w=1500.0
)
OLD_EPOCHS = 5
NEW_EPOCHS = 8


def fleet_states(state):
    return {
        name: json.dumps(host.sim.state_dict(), sort_keys=True)
        for name, host in state.racks.items()
    }


@pytest.fixture(scope="module")
def generations(tmp_path_factory):
    """(old checkpoint dir, old states, new fleet, new states)."""
    old_dir = tmp_path_factory.mktemp("old") / "ckpt"
    state = ServeState.build(FLEET, checkpoint_dir=old_dir)
    for _ in range(OLD_EPOCHS):
        state.step_cluster()
    state.checkpoint()
    old = fleet_states(state)
    for _ in range(NEW_EPOCHS - OLD_EPOCHS):
        state.step_cluster()
    return old_dir, old, state, fleet_states(state)


def restored_generation(directory, old, new):
    """Which generation a restore from ``directory`` installed.

    The restored fleet then checkpoints over whatever the crash left
    behind, which must leave the one document and nothing else.
    """
    restored = ServeState.build(checkpoint_dir=directory)
    states = fleet_states(restored)
    epochs = {host.sim.epoch_index for host in restored.racks.values()}
    assert len(epochs) == 1, f"racks restored at different epochs: {epochs}"
    if states == old:
        assert restored.cluster_epochs == OLD_EPOCHS
        generation = "old"
    elif states == new:
        assert restored.cluster_epochs == NEW_EPOCHS
        generation = "new"
    else:
        raise AssertionError("restore mixes the old and the new generation")
    restored.checkpoint()
    assert [p.name for p in directory.iterdir()] == [CHECKPOINT_NAME]
    return generation


class _Crash(Exception):
    pass


@pytest.mark.parametrize("writes_done", [0, 1, 2])
def test_torn_checkpoint_restores_one_generation(
    generations, tmp_path, monkeypatch, writes_done
):
    """The checkpoint dies after its first ``writes_done`` document writes.

    Under the retired per-rack layout, dying after rack0's files restored
    rack0 at epoch 8 and rack1 at epoch 5 under a manifest saying 5.
    """
    old_dir, old, state, new = generations
    directory = tmp_path / "ckpt"
    shutil.copytree(old_dir, directory)
    real_write = state_module.write_document
    calls = []

    def dying_write(path, document):
        if len(calls) == writes_done:
            raise _Crash
        calls.append(path)
        real_write(path, document)

    monkeypatch.setattr(state_module, "write_document", dying_write)
    state.checkpoint_dir = directory
    try:
        state.checkpoint()
    except _Crash:
        pass
    monkeypatch.undo()
    want = "old" if writes_done == 0 else "new"
    assert restored_generation(directory, old, new) == want


#: Runs ``write_document`` in a child that dies with ``os._exit`` at one
#: step: after half the bytes reach the temp file ("mid-write"), before
#: the file's fsync, before the rename, or before the directory's fsync.
CRASH_CHILD = """
import os, sys
from repro.core import persistence

point, path, source = sys.argv[1:4]
real_fsync, real_replace = os.fsync, os.replace
fsyncs = []

def fsync(fd):
    fsyncs.append(fd)
    if len(fsyncs) == 1 and point == "mid-write":
        os.ftruncate(fd, os.fstat(fd).st_size // 2)
        os._exit(17)
    if (len(fsyncs), point) in {(1, "before-fsync"), (2, "before-dir-fsync")}:
        os._exit(17)
    real_fsync(fd)

def replace(src, dst):
    if point == "before-replace":
        os._exit(17)
    real_replace(src, dst)

os.fsync, os.replace = fsync, replace
persistence.write_document(path, persistence.read_document(source, "fleet checkpoint"))
"""

CRASH_POINTS = {
    "mid-write": "old",
    "before-fsync": "old",
    "before-replace": "old",
    "before-dir-fsync": "new",
    "completed": "new",
}


@pytest.mark.parametrize("point", sorted(CRASH_POINTS))
def test_process_killed_inside_write_document(generations, tmp_path, point):
    old_dir, old, state, new = generations
    new_dir = tmp_path / "new"
    state.checkpoint_dir = new_dir
    state.checkpoint()
    directory = tmp_path / "ckpt"
    shutil.copytree(old_dir, directory)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [
            sys.executable, "-c", CRASH_CHILD, point,
            str(directory / CHECKPOINT_NAME), str(new_dir / CHECKPOINT_NAME),
        ],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == (0 if point == "completed" else 17), done.stderr
    assert restored_generation(directory, old, new) == CRASH_POINTS[point]
    if CRASH_POINTS[point] == "new":
        assert (directory / CHECKPOINT_NAME).read_bytes() == (
            new_dir / CHECKPOINT_NAME
        ).read_bytes()
