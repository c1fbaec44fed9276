"""The names that BENCHMARK.json's per-layer metrics read from the package.

The bench tracer wraps every public function defined in a layer module (and
a few named methods), and reports its metrics as
``<layer>.<name...>.<counter>``.  A metric whose name no longer resolves
reads 0 forever instead of failing, so this test pins every name.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

LAYERS = ("arith", "density", "lattice", "geometry", "verify", "cli")
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def traced_names():
    """(layer, dotted name) for every per-layer metric that names a callable."""
    names = set()
    for metric in json.loads(BENCHMARK.read_text())["per_layer"]:
        layer, *name, _ = metric["name"].split(".")
        if layer in LAYERS and name:
            names.add((layer, ".".join(name)))
    return sorted(names)


@pytest.mark.parametrize("layer,name", traced_names())
def test_metric_names_a_traced_callable(layer, name):
    module = importlib.import_module(f"quotientfree.{layer}")
    head, *rest = name.split(".")
    assert not head.startswith("_"), f"{layer}.{head} is private, so it is never traced"
    obj = vars(module).get(head)
    assert obj is not None, f"{layer} defines no {head}"
    assert inspect.getmodule(obj) is module, f"{layer}.{head} is imported, not defined there"
    for attr in rest:
        obj = getattr(obj, attr)
    assert callable(obj)
