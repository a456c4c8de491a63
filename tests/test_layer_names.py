"""The benchmark's layer trace (``perfbench/layertrace.py``) patches
package names by module and attribute path; each must resolve here, so
a renamed or removed name fails this fast test, not the tracer's
install inside a full benchmark run."""

import importlib
import importlib.util
import os

import pytest

import bcscan

LAYERTRACE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "layertrace.py")


def _layers():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = _layers()


@pytest.mark.parametrize("name,module_name,path", LAYERS, ids=[name for name, _, _ in LAYERS])
def test_each_traced_layer_resolves_in_the_package(name, module_name, path):
    module = importlib.import_module(module_name)
    assert os.path.dirname(module.__file__) == os.path.dirname(bcscan.__file__)
    obj = module
    for attr in path.split("."):
        assert hasattr(obj, attr), f"{name}: {module_name} has no {path}"
        obj = getattr(obj, attr)
    assert callable(obj), name
