"""The table writer: ``cli._emit_table`` formats a column at a time and must
give the bytes of the per-cell formulas it replaced, in CSV and in JSON; a
NaN or infinite cell is refused in both; and its peak memory per row is
bounded.
"""

import argparse
import contextlib
import io
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sre_purity.bench as bench
import sre_purity.cli as cli
from sre_purity.channels import PreparationMethod
from sre_purity.cli import main, parse_state_spec

CONFIG = {"command": "sweep", "eps": 0.05, "alphas": "2,3", "note": 'a "quoted" résumé'}


def _csv_cell(value) -> str:
    """One CSV cell as the writer formatted it cell by cell."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def reference_csv(config, header, rows) -> str:
    lines = [f"# tool=sre-purity version={cli.__version__}",
             f"# config_hash={cli._config_hash(config)}"]
    lines += [f"# {key}={config[key]}" for key in sorted(config)]
    lines.append(",".join(header))
    lines += [",".join(_csv_cell(value) for value in row) for row in rows]
    return "\n".join(lines) + "\n"


def reference_json(config, header, rows) -> str:
    table = [dict(zip(header, row)) for row in rows]
    payload = {"meta": cli._meta(config), "rows": table}
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def emitted(fmt, config, header, rows) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit_table(argparse.Namespace(format=fmt, out=None), config, header, rows)
    return out.getvalue()


EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7, 1.7976931348623157e308,
                               0.1, 2.0 / 3.0])
NUMBERS = (st.integers() | st.sampled_from([2**64 + 1, -(2**63), 0])
           | st.floats(allow_nan=False, allow_infinity=False) | EDGE_FLOATS | st.booleans())
STRINGS = st.text() | st.sampled_from(['say "hi"', "café, α=2", "back\\slash", "%s"])


@st.composite
def tables(draw):
    """(header, rows, block): distinct column names, a numeric or string type
    per column, 1 to 12 rows and a block size that may split them."""
    names = draw(st.lists(st.text(alphabet="abcxyz_é", min_size=1, max_size=5),
                          min_size=1, max_size=6, unique=True))
    kinds = [draw(st.sampled_from([NUMBERS, STRINGS])) for _ in names]
    n_rows = draw(st.integers(1, 12))
    rows = [tuple(draw(kind) for kind in kinds) for _ in range(n_rows)]
    return tuple(names), rows, draw(st.integers(1, 5))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@settings(max_examples=150, deadline=None)
@given(table=tables())
def test_writer_matches_the_reference_formulas(fmt, table):
    header, rows, block = table
    reference = reference_json if fmt == "json" else reference_csv
    with mock.patch.object(cli, "_BLOCK", block):
        assert emitted(fmt, CONFIG, header, rows) == reference(CONFIG, header, rows)


def _sweep_rows(n: int):
    rng = np.random.default_rng(3)
    return [bench.SweepRow(float(t), 2 + i % 3, float(a), 0.5, abs(float(a) - 0.5), 3200, i % 10,
                           bool(a > 0.5))
            for i, (t, a) in enumerate(zip(rng.uniform(0, 2, n), rng.uniform(0, 1, n)))]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_rows", [1, cli._BLOCK, cli._BLOCK + 1])
def test_writer_matches_the_reference_across_blocks(fmt, n_rows):
    header = ("theta", "alpha", "estimate", "exact", "abs_error", "copies", "seed", "within_eps")
    rows = _sweep_rows(n_rows)
    reference = reference_json if fmt == "json" else reference_csv
    assert emitted(fmt, CONFIG, header, rows) == reference(CONFIG, header, rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_matches_the_reference_on_an_empty_table(fmt):
    reference = reference_json if fmt == "json" else reference_csv
    assert emitted(fmt, CONFIG, ("a", "b"), []) == reference(CONFIG, ("a", "b"), [])


def test_table_rows_hold_builtin_values():
    # the writer's C encoder raises TypeError on a numpy scalar
    grid = cli._parse_grid("0:1.5707963267948966:3")
    rows = [row for method in PreparationMethod
            for row in bench.sweep_theta([2, 3], grid, 0.05, 0.1, 2, method=method)]
    psi = parse_state_spec("haar:2:7")
    rows += bench.complexity_table(["swap_purity", "direct_gamma", "direct_single_copy"],
                                   [2, 3], [0.1], 2, psi)
    for row in rows:
        assert all(type(value) in (int, float, bool, str) for value in row), row


_NAN_CASES = {
    "sweep-nan": ("sweep", "closed_form_a", math.nan),
    "sweep-inf": ("sweep", "closed_form_a", math.inf),
    # the direct estimators take the exact value only for the error
    "complexity-nan": ("complexity", "a_alpha_of", math.nan),
    "complexity-inf": ("complexity", "a_alpha_of", -math.inf),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(_NAN_CASES))
def test_nan_in_a_table_is_refused(case, fmt, monkeypatch, tmp_path, capsys):
    # a NaN-derived cell is a fault: one line and exit 2, in CSV as in JSON
    command, name, value = _NAN_CASES[case]
    monkeypatch.setattr(bench, name, lambda *args: value)
    out = tmp_path / "report"
    argv = [command, "--seeds", "2", "--format", fmt, "--out", str(out)]
    if command == "complexity":
        argv += ["--methods", "direct_gamma,direct_single_copy"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: column "), captured.err
    assert captured.err.count("\n") == 1, captured.err


# 16,384 rows; per-row bounds well above the writer's own need and below the
# per-cell writer's (2.2 KB in JSON, 0.66 KB in CSV)
@pytest.mark.parametrize("fmt, bound", [("json", 1200), ("csv", 640)])
def test_table_peak_memory_per_row(fmt, bound, tmp_path, capsys):
    out = tmp_path / "report"
    argv = ["sweep", "--alphas", "2,3", "--theta-grid", "0:1:1024", "--seeds", "8",
            "--format", fmt, "--out", str(out)]
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert "16384 points" in capsys.readouterr().err
    assert peak / 16384 <= bound, peak / 16384
