"""Every per-function metric that BENCHMARK.json names must resolve.

The benchmark's tracer times each public function of a layer module under
``<module>.<function>``, and its runner looks up each named ``per_layer``
metric by that key, so a renamed, moved or privatized function breaks a
traced benchmark run.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
SUFFIXES = ("calls", "s", "self_s")
NAMES = sorted({
    metric["name"].rsplit(".", 1)[0]
    for metric in SPEC["per_layer"]
    if metric["name"].count(".") == 2 and metric["name"].rsplit(".", 1)[1] in SUFFIXES
})


def test_names_are_read_from_the_benchmark():
    assert "oracle.pauli_expectations" in NAMES and "states.schmidt_spectrum" in NAMES


@pytest.mark.parametrize("name", NAMES)
def test_per_layer_name_is_a_public_function_of_its_module(name):
    module_name, attr = name.split(".")
    module = importlib.import_module(f"sre_purity.{module_name}")
    assert not attr.startswith("_"), name
    obj = getattr(module, attr, None)
    assert inspect.isfunction(obj) or inspect.isclass(obj), name
    # defined there, not imported: the tracer keys a function on its own module
    assert obj.__module__ == module.__name__, name
