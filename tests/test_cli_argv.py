"""Property test over CLI argv: every input ends in a finite report or in one
stderr line with an exit code from the documented table.

Argv is drawn within argparse's accepted syntax (``--flag=value``, choices
from the parser), so each draw reaches a command body.  Sizes stay small:
Haar states have at most 4 qubits and ``stab:`` counts skip 9-12, where the
per-string oracle alone would take gigabytes at n = 12.
"""

import contextlib
import io
import json
import math
import warnings

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from sre_purity.cli import main
from sre_purity.verification import SUITES

# valid and invalid values are drawn about equally often
FLOATS = st.sampled_from([1e-4, 0.05, 0.5, 1.0]) | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.1, 0.0, 1e-300, 1.5]
)
ALPHAS = st.sampled_from([1, 2, 3, 5]) | st.sampled_from([-1, 0, 25])
SEEDS = st.sampled_from([0, 7, 2**64]) | st.just(-1)
COUNTS = st.sampled_from([-1, 0, 1, 3])
MALFORMED_SPECS = st.sampled_from(
    ["", "theta:", "theta:abc", "haar:2", "haar:x:1", "haar:2:x", "haar:2:1:3", "stab:",
     "stab:x", "wat:1", "2"]
)


@st.composite
def state_specs(draw):
    """(spec, qubit count or None when the spec is malformed)."""
    kind = draw(st.sampled_from(["theta", "haar", "stab", "malformed"]))
    if kind == "theta":
        theta = draw(st.floats(allow_nan=True, allow_infinity=True) | FLOATS)
        return f"theta:{theta!r}", 1
    if kind == "haar":
        n = draw(st.integers(-1, 4))
        return f"haar:{n}:{draw(SEEDS)}", n
    if kind == "stab":
        n = draw(st.sampled_from([-1, 0, 1, 3, 13, 21, 70]))
        return f"stab:{n}", n
    return draw(MALFORMED_SPECS), None


def int_lists(values):
    listed = st.lists(values, max_size=3).map(lambda xs: ",".join(map(str, xs)))
    return listed | st.sampled_from(["x", "2,,3", ",", "2.5"])


GRIDS = st.builds(
    lambda a, b, c: f"{a!r}:{b!r}:{c}",
    st.sampled_from([0.0, 1.0, -1.0, math.pi, math.nan, math.inf]),
    st.sampled_from([0.0, 1.0, -1.0, math.pi, math.nan, -math.inf]),
    COUNTS,
) | st.sampled_from(["0:1", "a:b:c", "0:1:2.5", ""])


def _flags(draw, options):
    """``--flag=value`` for each option that is drawn (None leaves the default)."""
    argv = []
    for flag, strategy in options.items():
        value = draw(st.none() | strategy)
        if value is True:
            argv.append(f"--{flag}")
        elif value is not None and value is not False:
            argv.append(f"--{flag}={value}")
    return argv


@st.composite
def cli_argv(draw):
    # verify takes ~0.3 s a draw and has one input, so it is drawn less often
    command = draw(st.sampled_from(["oracle", "estimate", "sweep", "complexity"] * 3
                                   + ["verify"]))
    if command == "verify":
        return ["verify"] + _flags(draw, {"suite": st.sampled_from(["all", *SUITES])})
    if command == "sweep":
        return ["sweep"] + _flags(draw, {
            "alphas": int_lists(ALPHAS), "theta-grid": GRIDS, "eps": FLOATS, "delta": FLOATS,
            "seeds": COUNTS, "method": st.sampled_from(["exact", "coherent", "incoherent"]),
            "seed": SEEDS, "format": st.sampled_from(["csv", "json"]),
        })
    spec, n = draw(state_specs())
    alpha = draw(ALPHAS)
    if command == "oracle":
        return ["oracle", f"--state={spec}", f"--alpha={alpha}"] + _flags(
            draw, {"dist": st.booleans()})
    if command == "estimate":
        method = draw(st.sampled_from(["exact", "coherent", "incoherent"]))
        # the one 4096-dimensional mixture the guard allows here takes 1.3 s
        # and 570 MB; the size-guard tests cover that edge
        assume(not (method == "exact" and n == 4 and alpha == 3))
        return ["estimate", f"--state={spec}", f"--alpha={alpha}", f"--method={method}"] + (
            _flags(draw, {
                "eps": FLOATS, "delta": FLOATS, "seed": SEEDS,
                "marginal": st.sampled_from(["copies", "ancilla"]),
                "shots": st.sampled_from([-1, 0, 1, 2, 1000, 2**63 - 1, 2**63]),
            }))
    methods = st.lists(
        st.sampled_from(["swap_purity", "direct_gamma", "direct_single_copy", "foo", ""]),
        max_size=3,
    ).map(",".join)
    return ["complexity", f"--state={spec}"] + _flags(draw, {
        "methods": methods, "alphas": int_lists(ALPHAS), "eps": FLOATS, "delta": FLOATS,
        "seeds": COUNTS, "seed": SEEDS, "format": st.sampled_from(["csv", "json"]),
    })


def _no_constant(name):
    raise AssertionError(f"report holds {name}")


def _assert_finite_report(text):
    if text.startswith("{"):
        json.loads(text, parse_constant=_no_constant)
        return
    rows = [line for line in text.splitlines() if not line.startswith("#")][1:]
    for row in rows:
        assert not {"nan", "inf", "-inf"} & set(row.split(",")), row


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cli_argv())
def test_every_argv_ends_in_a_report_or_one_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would be a second stderr line
            try:
                code = main(argv)
            except SystemExit as exc:
                raise AssertionError(f"argparse refused {argv}: {err.getvalue()}") from exc
    assert code in (0, 1, 2, 3, 4)
    if code == 0:
        _assert_finite_report(out.getvalue())
    elif code != 4:  # 4 is a verify report on stdout
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), err.getvalue()
