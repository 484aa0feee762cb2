"""perfbench's traced mode wraps methods by name, so each must stay put.

``LayerTracer.wrap`` reads ``owner.__dict__[attr]``: a layer method that
is deleted, renamed or moved to a base class breaks ``perfbench/run.py
--trace 1`` while the untraced runs stay green.
"""

import pytest

from perfbench.layers import controller_layers, runner_layers

LAYERS = controller_layers() + runner_layers()


@pytest.mark.parametrize(
    "owner,attr,span", LAYERS, ids=[f"{o.__name__}.{a}" for o, a, _ in LAYERS]
)
def test_layer_is_defined_on_its_class(owner, attr, span):
    assert attr in owner.__dict__, f"{owner.__name__}.{attr} (span {span!r})"
    assert callable(getattr(owner, attr))
