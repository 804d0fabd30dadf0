"""Every per-function metric that BENCHMARK.json names must resolve.

The benchmark's tracer times each public function of a layer module under
``<module>.<function>``, and its runner looks up each named ``per_layer``
metric by that key, so a renamed, moved or privatized function breaks a
traced benchmark run.  So does a hook of the tracer whose function or
argument name has gone, which the last test runs every command under.
"""

import importlib
import inspect
import json
import sys
from pathlib import Path

import pytest

from sre_purity import cli

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


def test_the_benchmark_tracer_still_fits_the_package(tmp_path):
    # the tracer is read from perfbench/ as it stands; a hook whose function
    # or argument name has gone raises here, as a traced benchmark run would
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        from tracer import Tracer
    finally:
        sys.path.remove(perfbench)

    out = str(tmp_path / "out")
    argvs = [
        ["oracle", "--state", "haar:2:1", "--alpha", "2", "--dist"],
        ["estimate", "--state", "haar:1:1", "--alpha", "2", "--method", "exact"],
        ["estimate", "--state", "haar:1:1", "--alpha", "2", "--shots", "0"],
        ["sweep", "--alphas", "2", "--theta-grid", "0:1:2", "--seeds", "1"],
        ["complexity", "--state", "haar:1:1", "--alphas", "2", "--seeds", "1"],
        ["verify", "--suite", "replica"],
    ]
    with Tracer(0) as t:
        for argv in argvs:
            extra = [] if argv[0] == "verify" else ["--out", out]
            assert cli.main(argv + extra) == 0, argv
        metrics = t.metrics()
    added_by_the_harness = {"cli.output_bytes", "workload.requery_frac_computed",
                            "trace.overhead_frac"}
    missing = [metric["name"] for metric in SPEC["per_layer"]
               if metric["name"] not in metrics and metric["name"] not in added_by_the_harness]
    assert missing == []
