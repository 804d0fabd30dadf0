"""Committed corpus of CLI runs: every argv below, run in-process through
``cli.main``, must give the exit code, stderr, stdout and report recorded in
``report_corpus.json``.

Exit codes, stderr, strings and integers match exactly; floats match to 1e-12
relative, or 1e-15 absolute for rounding noise around zero, because the
exact mixture sums in BLAS order and float bytes differ between numpy builds.
A ``verify`` check line is compared by its status and check name.  The corpus
records the Python and numpy versions it was made with.

Regenerate it after a change that is meant to alter an output, and list each
changed argv in CHANGES.md:

    PYTHONPATH=src python tests/test_report_corpus.py
"""

import contextlib
import io
import json
import math
import os
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from sre_purity import cli

CORPUS = Path(__file__).with_name("report_corpus.json")
REL_TOL, ABS_TOL = 1e-12, 1e-15

# written to the working directory before the runs; specs name them relatively
STATE_FILES = {
    "state.json": "[[0.6, 0.0], [0.0, 0.8]]",
    "unnormalized.json": "[[1.0, 0.0], [1.0, 0.0]]",
    "nan.json": "[[NaN, 0], [0, 0]]",
    "infinite.json": "[[Infinity, 0], [0, 0]]",
    "empty.json": "[]",
    "one.json": "[[1, 0]]",
    "three.json": "[[1, 0], [0, 0], [0, 0]]",
    "deep.json": "[" * 200_000,
}

_GRID = "0:1.5707963267948966:3"  # three angles over [0, pi/2]
_EST = ["estimate", "--state", "haar:2:7", "--alpha", "2", "--seed", "3"]

ARGVS = [
    # oracle, n <= 6
    ["oracle", "--state", "theta:0.7853981633974483", "--alpha", "2", "--dist"],
    ["oracle", "--state", "stab:2", "--alpha", "3"],
    ["oracle", "--state", "haar:2:5", "--alpha", "1"],
    ["oracle", "--state", "haar:3:1", "--alpha", "2", "--dist", "--out", "report"],
    ["oracle", "--state", "haar:6:2", "--alpha", "3"],
    ["oracle", "--state", "file:state.json", "--alpha", "2", "--dist"],
    # estimate: every method at the default shots, 0 and 1, and both marginals
    *[_EST + ["--method", method] + shots
      for method in ("exact", "coherent", "incoherent")
      for shots in ([], ["--shots", "0"], ["--shots", "1"])],
    _EST + ["--marginal", "ancilla", "--shots", "5"],
    _EST + ["--marginal", "ancilla", "--shots", "0"],
    ["estimate", "--state", "theta:0.3", "--alpha", "5", "--eps", "0.1", "--delta", "0.2",
     "--out", "report"],
    ["estimate", "--state", "stab:2", "--alpha", "3", "--method", "incoherent", "--shots", "0"],
    ["estimate", "--state", "haar:1:1", "--alpha", "2", "--eps", "1e-4", "--delta", "1e-3"],
    ["estimate", "--state", "haar:3:4", "--alpha", "3", "--method", "exact", "--seed", "11"],
    # tables, CSV and JSON
    ["sweep", "--alphas", "2,3", "--theta-grid", _GRID, "--seeds", "2", "--seed", "4"],
    ["sweep", "--alphas", "2,3", "--theta-grid", _GRID, "--seeds", "2", "--seed", "4",
     "--format", "json"],
    ["sweep", "--method", "exact", "--alphas", "2", "--theta-grid", "0:1:2", "--seeds", "2",
     "--format", "json", "--out", "report"],
    ["sweep", "--method", "incoherent", "--alphas", "5", "--theta-grid", "0.1:0.2:2",
     "--seeds", "3", "--eps", "0.2"],
    ["complexity", "--seeds", "3"],
    ["complexity", "--state", "haar:3:2", "--alphas", "2,3", "--seeds", "2", "--format", "json"],
    ["complexity", "--methods", "swap_purity", "--seeds", "2", "--out", "report"],
    ["verify"],
    # exit 1
    ["oracle", "--state", "file:missing.json", "--alpha", "2"],
    ["estimate", "--state", "stab:1", "--alpha", "2", "--shots", "0", "--out", "no/report"],
    # exit 2: state specs
    *[["oracle", "--state", f"file:{name}", "--alpha", "2"]
      for name in ("unnormalized.json", "nan.json", "infinite.json", "empty.json",
                   "three.json", "deep.json")],
    ["estimate", "--state", "file:nan.json", "--alpha", "2", "--method", "incoherent"],
    ["oracle", "--state", "theta:nan", "--alpha", "2"],
    ["oracle", "--state", "theta:abc", "--alpha", "2"],
    ["oracle", "--state", "wat:1", "--alpha", "2"],
    ["oracle", "--state", "haar:2:-1", "--alpha", "2"],
    # exit 2: configuration and usage
    ["oracle", "--state", "stab:1", "--alpha", "0", "--dist"],
    ["estimate", "--state", "haar:1:1", "--alpha", "2", "--eps", "2"],
    ["estimate", "--state", "haar:1:1", "--alpha", "2", "--shots", "0", "--seed", "-1"],
    ["estimate", "--state", "haar:1:1", "--alpha", "2", "--method", "exact",
     "--marginal", "ancilla"],
    ["estimate", "--state", "haar:2:1", "--alpha", "5", "--method", "exact", "--shots", "-1"],
    ["estimate", "--alpha", "2"],
    ["sweep", "--theta-grid", "0:1"],
    ["sweep", "--alphas", "0", "--seeds", "1"],
    ["complexity", "--methods", "bogus"],
    ["complexity", "--methods", "direct_gamma", "--eps", "2", "--seeds", "1"],
    # exit 3: size guards
    *[["oracle", "--state", spec, "--alpha", "2"]
      for spec in ("stab:0", "stab:21", "haar:0:1", "haar:21:1", "file:one.json")],
    ["estimate", "--state", "haar:7:1", "--alpha", "2", "--shots", "0"],
    ["estimate", "--state", "haar:1:1", "--alpha", "100000", "--method", "exact"],
    ["estimate", "--state", "haar:12:1", "--alpha", "1", "--method", "exact", "--shots", "0"],
    ["estimate", "--state", "haar:2:1", "--alpha", "5", "--method", "exact",
     "--shots", str(2**63)],
    ["estimate", "--state", "haar:1:1", "--alpha", "2", "--eps", "1e-9", "--delta", "1e-9"],
    ["sweep", "--seeds", "1000000000"],
    ["sweep", "--theta-grid", "0:1:10000000"],
    ["complexity", "--state", "haar:8:1", "--alphas", "2", "--seeds", "1"],
]


def run(argv: list[str]) -> dict:
    """Exit code, stderr, stdout and report file of one in-process run in the
    working directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # a usage error
            code = exc.code
    report = Path("report")
    text = report.read_text() if report.exists() else None
    report.unlink(missing_ok=True)
    return {"argv": argv, "exit": code, "stderr": err.getvalue(), "stdout": out.getvalue(),
            "report": text}


def run_all() -> list[dict]:
    for name, text in STATE_FILES.items():
        Path(name).write_text(text)
    return [run(argv) for argv in ARGVS]


def _same_value(want, got) -> bool:
    if type(want) is not type(got):
        return False
    if isinstance(want, float):
        return math.isclose(want, got, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    if isinstance(want, dict):
        return want.keys() == got.keys() and all(_same_value(want[k], got[k]) for k in want)
    if isinstance(want, list):
        return len(want) == len(got) and all(map(_same_value, want, got))
    return want == got


def _cell(text: str):
    if re.fullmatch(r"-?\d+", text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def _same_line(want: str, got: str) -> bool:
    if want.startswith(("[PASS]", "[FAIL]")):  # a verify check: status and name
        return want.partition(": worst residual")[0] == got.partition(": worst residual")[0]
    if want.startswith("#"):
        return want == got
    return _same_value([_cell(c) for c in want.split(",")], [_cell(c) for c in got.split(",")])


def same_text(want: str | None, got: str | None) -> bool:
    """A report or stdout equal up to float rounding (see the module docstring)."""
    if want is None or got is None:
        return want == got
    if want.startswith("{"):
        try:
            return _same_value(json.loads(want), json.loads(got))
        except json.JSONDecodeError:
            return False
    want_lines, got_lines = want.split("\n"), got.split("\n")
    return len(want_lines) == len(got_lines) and all(map(_same_line, want_lines, got_lines))


def test_every_run_matches_the_corpus(tmp_path, monkeypatch):
    corpus = json.loads(CORPUS.read_text())
    assert [case["argv"] for case in corpus["cases"]] == ARGVS, "regenerate the corpus"
    monkeypatch.chdir(tmp_path)
    mismatches = []
    for want, got in zip(corpus["cases"], run_all()):
        for key in ("exit", "stderr"):
            if want[key] != got[key]:
                mismatches.append((want["argv"], key, want[key], got[key]))
        for key in ("stdout", "report"):
            if not same_text(want[key], got[key]):
                mismatches.append((want["argv"], key, want[key], got[key]))
    assert not mismatches, mismatches[:3]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        home = os.getcwd()
        os.chdir(scratch)
        try:
            cases = run_all()
        finally:
            os.chdir(home)
    stamp = {"python": platform.python_version(), "numpy": np.__version__}
    CORPUS.write_text(json.dumps({**stamp, "cases": cases}, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {CORPUS}", file=sys.stderr)
