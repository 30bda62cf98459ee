"""The package names the benchmark traces must exist.

perfbench/run.py wraps each (module, attr) of layer_targets() to time one
layer; a name that is gone leaves that layer's metrics empty instead of
failing, so this test resolves every one of them against the package.
"""

import importlib
import os
import runpy

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _layer_targets():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(PERFBENCH)  # run.py imports its siblings by bare name
        run = runpy.run_path(os.path.join(PERFBENCH, "run.py"), run_name="perfbench_run")
    return run["layer_targets"]()


TARGETS = _layer_targets()


def test_some_layers_are_traced():
    assert TARGETS


@pytest.mark.parametrize("target", TARGETS, ids=[t.name for t in TARGETS])
def test_traced_name_resolves(target):
    module = importlib.import_module(target.module)
    assert callable(getattr(module, target.attr, None)), f"{target.module}.{target.attr}"
