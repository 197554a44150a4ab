"""Every call that the benchmark's traced run wraps exists on its owner.

The traced run (``perfbench/run.py --trace 1``) binds each entry of
``perfbench/layers.targets()`` through ``vars(owner)[attr]``, so renaming or
deleting one of those names breaks it; this checks them in the test suite.
"""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def test_every_traced_name_is_an_attribute_of_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    targets = layers.targets()
    assert len(targets) > 20
    for owner, attr, span, *_ in targets:
        assert attr in vars(owner), (owner, attr, span)
