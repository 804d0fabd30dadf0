"""CLI contract tests: state-spec parsing, output schemas, exit codes,
byte-level reproducibility."""

import json
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import sre_purity.bench as bench
import sre_purity.cli as cli
import sre_purity.oracle as oracle
import sre_purity.verification as verification
from sre_purity.cli import build_parser, main, parse_state_spec
from sre_purity.oracle import a_alpha_exact, characteristic_distribution
from sre_purity.states import StateVector


def run_cli(args):
    return main(args)


def test_oracle_theta_zero(capsys):
    assert run_cli(["oracle", "--state", "theta:0", "--alpha", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["a_alpha"] == pytest.approx(1.0, abs=1e-12)
    assert payload["m_alpha"] == pytest.approx(0.0, abs=1e-12)
    assert math.copysign(1.0, payload["m_alpha"]) == 1.0


def test_oracle_theta_pi_over_4(capsys):
    assert run_cli(["oracle", "--state", "theta:0.7853981633974483", "--alpha", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["a_alpha"] == pytest.approx(0.75, abs=1e-12)
    assert payload["m_alpha"] == pytest.approx(0.2876820724517809, abs=1e-10)


def test_oracle_stab_two(capsys):
    assert run_cli(["oracle", "--state", "stab:2", "--alpha", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["a_alpha"] == pytest.approx(1.0, abs=1e-12)
    assert payload["m_alpha"] == pytest.approx(0.0, abs=1e-12)
    # A is exactly 1 here, and M is +0.0, never -0.0
    assert math.copysign(1.0, payload["m_alpha"]) == 1.0
    argv = ["estimate", "--state", "stab:2", "--alpha", "3", "--method", "incoherent",
            "--shots", "0"]
    assert run_cli(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["a_hat"] == 1.0
    assert math.copysign(1.0, payload["m_hat"]) == 1.0


def test_oracle_distribution_block(capsys):
    assert run_cli(["oracle", "--state", "theta:0", "--alpha", "2", "--dist"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pauli_order"] == ["I", "X", "Z", "Y"]
    # theta=0 is |+>: weight on I and X only
    probs = payload["characteristic_distribution"]
    assert probs == pytest.approx([0.5, 0.5, 0.0, 0.0], abs=1e-12)


def test_oracle_distribution_evaluates_expectations_once(monkeypatch, capsys):
    calls = []
    original = oracle.pauli_expectations

    def counted(psi):
        calls.append(psi)
        return original(psi)

    # every binding of the function, as the benchmark's tracer counts it
    monkeypatch.setattr(oracle, "pauli_expectations", counted)
    monkeypatch.setattr(cli, "pauli_expectations", counted)
    assert run_cli(["oracle", "--state", "haar:2:3", "--alpha", "3", "--dist"]) == 0
    assert len(calls) == 1
    monkeypatch.undo()
    payload = json.loads(capsys.readouterr().out)
    psi = parse_state_spec("haar:2:3")
    assert payload["a_alpha"] == a_alpha_exact(psi, 3)
    assert payload["characteristic_distribution"] == list(characteristic_distribution(psi))


@pytest.mark.parametrize("dist", [[], ["--dist"]], ids=["plain", "dist"])
def test_oracle_refuses_bad_alpha_before_the_expectations(dist, monkeypatch, capsys):
    calls = []
    for module in (oracle, cli):
        monkeypatch.setattr(module, "pauli_expectations", calls.append)
    assert run_cli(["oracle", "--state", "stab:8", "--alpha", "0"] + dist) == 2
    assert calls == []
    assert capsys.readouterr().err == "error: alpha must be >= 1, got 0\n"


def test_estimate_accuracy_and_budget_fields(tmp_path):
    out = tmp_path / "est.json"
    code = run_cli([
        "estimate", "--state", "theta:0", "--alpha", "2",
        "--eps", "0.05", "--delta", "0.1", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert abs(payload["a_hat"] - 1.0) <= 0.05
    assert payload["budget"]["copies_of_psi"] == 32000
    assert payload["budget"]["swap_shots"] == 8000
    assert payload["shots_used"] == 8000


def test_estimate_byte_identical_reruns(tmp_path):
    args = [
        "estimate", "--state", "haar:2:5", "--alpha", "2", "--method", "incoherent",
        "--eps", "0.1", "--delta", "0.2", "--seed", "9",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_parse_error_exit_code(capsys):
    assert run_cli(["estimate", "--state", "theta:abc", "--alpha", "2"]) == 2
    assert run_cli(["oracle", "--state", "wat:1", "--alpha", "2"]) == 2


def test_size_guard_exit_code(capsys):
    assert run_cli(["estimate", "--state", "stab:13", "--alpha", "2"]) == 3


@pytest.mark.parametrize("spec", ["stab:70", "haar:21:1"])
def test_oversized_state_refused_before_allocation(spec, capsys):
    assert run_cli(["estimate", "--state", spec, "--alpha", "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("size guard:") and err.count("\n") == 1


def test_budget_beyond_int64_refused(capsys):
    args = ["estimate", "--state", "haar:1:1", "--alpha", "2", "--eps", "1e-9", "--delta", "1e-9"]
    assert run_cli(args) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("size guard:") and captured.err.count("\n") == 1


def test_large_budget_is_one_draw(capsys):
    args = ["estimate", "--state", "haar:1:1", "--alpha", "2", "--eps", "1e-4", "--delta", "1e-3"]
    assert run_cli(args) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["shots_used"] == payload["budget"]["swap_shots"] == 200_000_000_000
    assert payload["budget"]["copies_of_psi"] == 800_000_000_000
    assert math.isfinite(payload["a_hat"])


@pytest.mark.parametrize(
    "shots,code,err",
    [("-1", 2, "error: shots must be >= 1, got -1\n"),
     (str(2**63), 3, f"size guard: shots {2**63} is outside the size guard [1, {2**63 - 1}]\n")],
    ids=["negative", "beyond-int64"],
)
def test_bad_shots_refused_before_the_route(shots, code, err, capsys):
    # the exact route would first build the 1024-dimensional mixture (16 MiB)
    args = ["estimate", "--state", "haar:2:1", "--alpha", "5", "--method", "exact",
            "--shots", shots]
    tracemalloc.start()
    try:
        assert run_cli(args) == code
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert capsys.readouterr() == ("", err)
    assert peak < 2**20


# inputs past the dense guards of the routes: the coherent route's ancilla
# dimension d^2 = 16384 and 65536 (the latter refused before complexity
# evaluates the 4^8 Pauli expectations) and the exact mixture's dimension 2^13
_OVERSIZED_REGISTERS = [
    ["estimate", "--state", "haar:7:1", "--alpha", "2", "--method", "coherent", "--shots", "0"],
    ["sweep", "--method", "exact", "--alphas", "13", "--theta-grid", "0:1:1", "--seeds", "1"],
    ["complexity", "--state", "haar:8:1", "--alphas", "2", "--seeds", "1"],
]


@pytest.mark.parametrize(
    "args",
    _OVERSIZED_REGISTERS + [
        ["estimate", "--state", "haar:1:1", "--alpha", "100000", "--method", "exact"],
        [
            "complexity", "--state", "haar:2:7", "--methods", "direct_gamma",
            "--eps", "1e-9", "--delta", "1e-9", "--seeds", "1",
        ],
        [
            "complexity", "--state", "haar:2:7", "--methods", "direct_single_copy",
            "--eps", "1e-9", "--delta", "1e-9", "--seeds", "1",
        ],
    ],
    ids=["coherent-n7", "sweep-exact-alpha-13", "complexity-swap-n8", "exact-alpha-1e5",
         "direct-gamma-shots", "direct-single-copy-shots"],
)
def test_oversized_request_refused_with_one_line(args, tmp_path, capsys):
    out = tmp_path / "report"
    assert run_cli(args + ["--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("size guard:") and captured.err.count("\n") == 1


def test_coherent_marginal_refused_before_it_is_allocated(capsys):
    # refused before the oracle's 4^n expectations or the mixture is allocated
    for args in _OVERSIZED_REGISTERS:
        tracemalloc.start()
        try:
            code = run_cli(args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 3, args
        assert err.startswith("size guard:") and err.count("\n") == 1, (args, err)
        assert peak < 4 * 2**20, (args, peak)


@pytest.mark.parametrize(
    "spec,alpha",
    [("haar:1:1", 13), ("haar:1:1", 18), ("haar:2:1", 7),
     # (2 + alpha) n > 20: registers the route never builds
     ("haar:1:1", 19), ("haar:2:1", 9), ("haar:4:1", 4), ("haar:5:1", 3), ("haar:6:1", 2)],
)
def test_coherent_route_fits_every_register_the_guard_allows(spec, alpha, capsys):
    # only the ancilla dimension d^2 <= 4096 bounds the route, so n <= 6 at every alpha
    args = ["estimate", "--state", spec, "--alpha", str(alpha), "--method", "coherent",
            "--shots", "0"]
    assert run_cli(args) == 0
    payload = json.loads(capsys.readouterr().out)
    psi = parse_state_spec(spec)
    assert payload["gamma_hat"] == pytest.approx(a_alpha_exact(psi, alpha) / psi.dim, abs=1e-12)


def test_exact_route_refuses_its_work_before_the_first_block(capsys):
    # alpha = 1 at n = 12 is d^2 dim^2 = 2^48 multiply-adds, hours of products
    args = ["estimate", "--state", "haar:12:1", "--alpha", "1", "--method", "exact",
            "--shots", "0"]
    start = time.perf_counter()
    assert run_cli(args) == 3
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("size guard:") and captured.err.count("\n") == 1


def test_memory_error_exits_3_with_one_line(monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError("Unable to allocate 1.00 TiB for an array")

    monkeypatch.setattr(cli, "run_suite", exhausted)
    assert run_cli(["verify", "--suite", "replica"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "size guard: Unable to allocate 1.00 TiB for an array\n"


@pytest.mark.parametrize(
    "args",
    [
        ["--seeds", "0"],
        ["--methods", "direct_gamma", "--eps", "0", "--seeds", "1"],
        ["--methods", "", "--eps", "7", "--delta", "-1"],
    ],
    ids=["no-seeds", "zero-eps", "no-rows-bad-targets"],
)
def test_complexity_config_error_exits_2(args, capsys):
    assert run_cli(["complexity"] + args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", "--seeds", "0"],
        ["sweep", "--alphas", "", "--eps", "nan", "--delta", "inf"],
        ["sweep", "--alphas", "2", "--eps", "1.5"],
        ["estimate", "--state", "theta:inf", "--alpha", "2"],
        ["sweep", "--alphas", "2", "--theta-grid", "0:inf:2", "--seeds", "1"],
        ["sweep", "--alphas", ""],
        ["sweep", "--theta-grid", "0:1:0"],
        ["complexity", "--alphas", ""],
        ["complexity", "--methods", ""],
        ["complexity", "--methods", "direct_gamma", "--eps", "2", "--seeds", "1"],
    ],
    ids=["sweep-no-seeds", "sweep-no-rows-bad-targets", "sweep-eps-above-1", "theta-inf",
         "sweep-theta-inf", "sweep-no-alphas", "sweep-empty-grid", "complexity-no-alphas",
         "complexity-no-methods", "complexity-direct-eps-above-1"],
)
def test_config_error_exits_2_before_any_row(args, tmp_path, capsys):
    out = tmp_path / "report"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would be a second stderr line
        assert run_cli(args + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,config_hash",
    [
        (["oracle", "--state", "haar:3:5", "--alpha", "2", "--dist"], "853488b37710"),
        (["estimate", "--state", "haar:2:7", "--alpha", "2", "--seed", "1"], "d306489f3767"),
        (["sweep", "--alphas", "2", "--theta-grid", "0:1:2", "--seeds", "1", "--format", "json"],
         "7ded8f7394b4"),
        (["complexity", "--seeds", "2", "--format", "json"], "b03e63909e9b"),
    ],
    ids=["oracle", "estimate", "sweep", "complexity"],
)
def test_report_config_is_the_parsed_flags(argv, config_hash, tmp_path):
    # the echo holds every flag but the ones that choose how and where the
    # report is written, so its hash names the numbers, not the file
    out = tmp_path / "report.json"
    assert run_cli(argv + ["--out", str(out)]) == 0
    meta = json.loads(out.read_text())["meta"]
    config = dict(meta["config"])
    if argv[0] == "complexity":
        assert config.pop("footnote").startswith("tomography-based estimation")
    parsed = vars(build_parser().parse_args(argv))
    assert config == {k: v for k, v in parsed.items() if k not in ("func", "out", "format", "dist")}
    assert meta["config_hash"] == config_hash


def test_state_file_round_trip(tmp_path):
    amps = np.array([1, 1j]) / math.sqrt(2)
    path = tmp_path / "state.json"
    path.write_text(json.dumps([[a.real, a.imag] for a in amps]))
    psi = parse_state_spec(f"file:{path}")
    assert psi.n == 1
    assert np.abs(psi.amps - amps).max() < 1e-12


def test_state_file_nested_too_deep_is_one_line(tmp_path, capsys):
    # the JSON decoder recurses once per bracket and gives up long before 200,000
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    assert run_cli(["oracle", "--state", f"file:{path}", "--alpha", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad state spec") and captured.err.count("\n") == 1


def test_state_file_past_the_qubit_guard_is_refused_before_decoding(tmp_path, capsys):
    # 2^21 compact pairs (12 MiB), whose decoded list and array took about 300 MiB
    path = tmp_path / "big.json"
    path.write_text("[[1,0]" + ",[0,0]" * ((1 << 21) - 1) + "]")
    tracemalloc.start()
    try:
        code = run_cli(["oracle", "--state", f"file:{path}", "--alpha", "2"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert capsys.readouterr() == (
        "", "size guard: pure-state qubits 21 is outside the size guard [1, 20]\n")
    assert peak < 3 * path.stat().st_size


def test_state_file_at_the_qubit_guard_loads(tmp_path):
    path = tmp_path / "state.json"
    path.write_text("[[1,0]" + ",[0,0]" * ((1 << 20) - 1) + "]")
    psi = parse_state_spec(f"file:{path}")
    assert psi.n == 20 and psi.amps[0] == 1.0


# a state enters through parse_state_spec, the one place it is checked
_MALFORMED_STATE_FILES = {
    "empty": ("[]", 2),
    "three-amplitudes": ("[[1, 0], [0, 0], [0, 0]]", 2),
    "infinite": ("[[Infinity, 0], [0, 0]]", 2),
    "nan": ("[[NaN, 0], [0, 0]]", 2),
    "unnormalized": ("[[1.0, 0.0], [1.0, 0.0]]", 2),
    "zero-qubits": ("[[1, 0]]", 3),
    # two qubits against a limit of one, standing in for 2^21 amplitudes
    "past-the-qubit-guard": ("[[0.5, 0], [0.5, 0], [0.5, 0], [0.5, 0]]", 3),
}


@pytest.mark.parametrize("command", [["oracle"], ["estimate", "--method", "incoherent"]])
@pytest.mark.parametrize("case", sorted(_MALFORMED_STATE_FILES))
def test_malformed_state_file_is_one_line(case, command, tmp_path, monkeypatch, capsys):
    text, code = _MALFORMED_STATE_FILES[case]
    monkeypatch.setattr(cli, "PURE_QUBITS", 1)
    path, out = tmp_path / "state.json", tmp_path / "report"
    path.write_text(text)
    argv = command + ["--state", f"file:{path}", "--alpha", "2", "--out", str(out)]
    assert run_cli(argv) == code
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    prefix = "error: bad state spec" if code == 2 else "size guard: pure-state qubits"
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1, captured.err


def test_haar_spec_deterministic():
    a = parse_state_spec("haar:2:7")
    b = parse_state_spec("haar:2:7")
    assert np.abs(a.amps - b.amps).max() == 0.0


def test_sweep_csv_schema_and_stability(tmp_path, capsys):
    args = [
        "sweep", "--alphas", "2", "--theta-grid", "0:1.5707963267948966:3",
        "--eps", "0.05", "--delta", "0.1", "--seeds", "2", "--seed", "4",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    assert any("config_hash=" in l for l in meta)
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx] == "theta,alpha,estimate,exact,abs_error,copies,seed,within_eps"
    first = lines[header_idx + 1].split(",")
    assert first[-1] in ("true", "false")
    assert "." in first[2]  # dot decimal separator


def test_sweep_json_format(tmp_path):
    out = tmp_path / "sweep.json"
    assert run_cli([
        "sweep", "--alphas", "2", "--theta-grid", "0:1.0:2", "--seeds", "1",
        "--format", "json", "--out", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["rows"]) == 2
    assert payload["meta"]["tool"] == "sre-purity"


def test_sweep_error_equal_to_eps_is_within_eps(monkeypatch, capsys):
    # a drawn purity of 0.625 gives a_hat 1.25 against theta = 0's exact 1.0,
    # an error of exactly 0.25 (every value here is a binary fraction)
    monkeypatch.setattr(bench, "estimate_purity", lambda gamma, shots, rng: (0.625, 0.0))
    argv = ["sweep", "--alphas", "2", "--theta-grid", "0:0:1", "--seeds", "1",
            "--eps", "0.25", "--format", "json"]
    assert run_cli(argv) == 0
    captured = capsys.readouterr()
    (row,) = json.loads(captured.out)["rows"]
    assert (row["exact"], row["abs_error"], row["within_eps"]) == (1.0, 0.25, True)
    assert captured.err == "sweep: 1/1 points within eps\n"


def test_verify_suite_passes(capsys):
    assert run_cli(["verify", "--suite", "monotone"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_verify_theorem1_suite_passes(capsys):
    assert run_cli(["verify", "--suite", "theorem1"]) == 0
    assert "entanglement identity" in capsys.readouterr().out


def _skewed_expectations(monkeypatch):
    original = oracle.pauli_expectations
    monkeypatch.setattr(oracle, "pauli_expectations", lambda psi: original(psi) * (1 + 1e-6))


def _scaled_register(monkeypatch):
    original = bench.coherent_prepare

    def scaled(psi, alpha):
        prepared = original(psi, alpha)
        return StateVector(prepared.n, prepared.amps * (1 + 1e-6))

    monkeypatch.setattr(bench, "coherent_prepare", scaled)


@pytest.mark.parametrize(
    "suite,corrupt",
    [
        ("replica", lambda mp: mp.setattr(verification, "replica_expectation", lambda psi, a: -1.0)),
        # a broken invariant of a derived value is reported, not refused
        ("normalization", _skewed_expectations),
        ("theorem1", _scaled_register),
    ],
    ids=["replica", "normalization", "theorem1"],
)
def test_verify_detects_corruption(suite, corrupt, monkeypatch, capsys):
    corrupt(monkeypatch)
    assert run_cli(["verify", "--suite", suite]) == 4
    captured = capsys.readouterr()
    assert "[FAIL]" in captured.out and captured.err == ""


def test_complexity_csv(tmp_path):
    out = tmp_path / "cx.csv"
    assert run_cli([
        "complexity", "--state", "theta:0.7853981633974483", "--methods",
        "swap_purity,direct_gamma", "--alphas", "2", "--eps", "0.2",
        "--seeds", "3", "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx] == "method,alpha,epsilon,copies,empirical_rmse"
    assert len(lines) == header_idx + 3


@pytest.mark.parametrize("spec", ["haar:2:6", "haar:3:3"])
def test_complexity_on_states_with_rounded_up_expectations(spec, tmp_path):
    # on these states some |<P>|^(2 alpha) rounds above 1; the direct
    # estimators must still get a valid shot probability
    out = tmp_path / "cx.csv"
    assert run_cli([
        "complexity", "--state", spec, "--alphas", "2", "--seeds", "2", "--out", str(out),
    ]) == 0


def test_complexity_on_six_qubits(tmp_path):
    # the direct estimators build only the 4^n expectations, which the Pauli
    # guard bounds; no pure-state guard on 2 alpha n copies refuses them
    out = tmp_path / "cx.csv"
    assert run_cli([
        "complexity", "--state", "haar:6:1", "--alphas", "2,3", "--seeds", "2", "--out", str(out),
    ]) == 0
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert len(rows) == 1 + 6


@pytest.mark.parametrize("alpha", [10**12, 10**30])
@pytest.mark.parametrize(
    "command", [["oracle"], ["estimate", "--method", "incoherent", "--shots", "0"]],
    ids=["oracle", "incoherent"],
)
def test_exact_a_alpha_is_finite_at_huge_alpha(command, alpha, capsys):
    # <I> rounds to 1 + 1e-16 on haar:1:1; clipped to 1, only it survives the
    # power, so A_alpha is its limit 1/d
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(command[:1] + ["--state", "haar:1:1", "--alpha", str(alpha)] + command[1:])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload.get("a_alpha", payload.get("a_hat")) == 0.5


def test_unwritable_output_exit_code(tmp_path):
    assert run_cli([
        "oracle", "--state", "theta:0", "--alpha", "2",
        "--out", str(tmp_path / "nodir" / "x.json"),
    ]) == 1


@pytest.mark.parametrize(
    "args",
    [["estimate", "--state", "haar:1:1", "--alpha", "x"], ["verify", "--suite", "nope"], []],
    ids=["bad-int", "bad-choice", "no-command"],
)
def test_usage_error_is_one_line(args, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: sre-purity sweep")


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", "--seeds", "1", "--seed", "-1"],
        ["complexity", "--seeds", "1", "--seed", "-1"],
        # refused by the request, though --shots 0 draws nothing
        ["estimate", "--state", "haar:2:1", "--alpha", "2", "--shots", "0", "--seed", "-5"],
    ],
    ids=["sweep", "complexity", "estimate"],
)
def test_negative_master_seed_is_one_line(args, capsys):
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: expected non-negative integer\n"


@pytest.mark.parametrize("method", ["exact", "incoherent"])
def test_ancilla_marginal_needs_the_coherent_method(method, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_estimation", lambda req: pytest.fail("the route ran"))
    args = ["estimate", "--state", "haar:1:1", "--alpha", "2", "--method", method,
            "--marginal", "ancilla"]
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: only the coherent method has an ancilla marginal")
    assert captured.err.count("\n") == 1


def test_nan_in_a_report_is_refused(monkeypatch, tmp_path, capsys):
    # a NaN-derived number is a fault: one line and exit 2, not invalid JSON
    monkeypatch.setattr(cli, "a_alpha_of", lambda expectations, alpha: math.nan)
    out = tmp_path / "report"
    assert run_cli(["oracle", "--state", "haar:1:1", "--alpha", "2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", "--seeds", "1000000000"],
        ["complexity", "--seeds", "1000000000"],
        ["sweep", "--theta-grid", "0:1:300000000"],
        # d^2 = 4096 draws per direct seed
        ["complexity", "--state", "haar:6:1", "--methods", "direct_gamma", "--seeds", "300"],
    ],
    ids=["sweep-seeds", "complexity-seeds", "sweep-grid", "complexity-direct-draws"],
)
def test_oversized_table_refused_at_once(args, tmp_path, capsys):
    out = tmp_path / "report"
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = run_cli(args + ["--out", str(out)])
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert elapsed < 1.0 and peak < 4 * 2**20, (elapsed, peak)
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("size guard:") and captured.err.count("\n") == 1
