"""CLI contract tests: state-spec parsing, output schemas, exit codes,
byte-level reproducibility."""

import json
import math

import numpy as np
import pytest

import sre_purity.verification as verification
from sre_purity.cli import main, parse_state_spec


def run_cli(args):
    return main(args)


def test_oracle_theta_zero(capsys):
    assert run_cli(["oracle", "--state", "theta:0", "--alpha", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["a_alpha"] == pytest.approx(1.0, abs=1e-12)
    assert payload["m_alpha"] == pytest.approx(0.0, abs=1e-12)


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


def test_oracle_distribution_block(capsys):
    assert run_cli(["oracle", "--state", "theta:0", "--alpha", "2", "--dist"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pauli_order"] == ["I", "X", "Z", "Y"]
    # theta=0 is |+>: weight on I and X only
    probs = payload["characteristic_distribution"]
    assert probs == pytest.approx([0.5, 0.5, 0.0, 0.0], abs=1e-12)


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
    assert payload["shots_used"] == payload["budget"]["swap_shots"] > 10**11
    assert math.isfinite(payload["a_hat"])


def test_state_file_round_trip(tmp_path):
    amps = np.array([1, 1j]) / math.sqrt(2)
    path = tmp_path / "state.json"
    path.write_text(json.dumps([[a.real, a.imag] for a in amps]))
    psi = parse_state_spec(f"file:{path}")
    assert psi.n == 1
    assert np.abs(psi.amps - amps).max() < 1e-12


def test_state_file_norm_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([[1.0, 0.0], [1.0, 0.0]]))
    assert run_cli(["oracle", "--state", f"file:{path}", "--alpha", "2"]) == 2


@pytest.mark.parametrize("command", [["oracle"], ["estimate", "--method", "incoherent"]])
def test_state_file_non_finite_rejected(command, tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text("[[NaN, 0], [0, 0]]")
    assert run_cli(command + ["--state", f"file:{path}", "--alpha", "2"]) == 2
    assert capsys.readouterr().out == ""


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


def test_verify_suite_passes(capsys):
    assert run_cli(["verify", "--suite", "monotone"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_verify_theorem1_suite_passes(capsys):
    assert run_cli(["verify", "--suite", "theorem1"]) == 0
    assert "entanglement identity" in capsys.readouterr().out


def test_verify_detects_corruption(monkeypatch, capsys):
    monkeypatch.setattr(
        verification, "replica_expectation", lambda psi, alpha: -1.0
    )
    assert run_cli(["verify", "--suite", "replica"]) == 4
    assert "[FAIL]" in capsys.readouterr().out


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


def test_unwritable_output_exit_code(tmp_path):
    assert run_cli([
        "oracle", "--state", "theta:0", "--alpha", "2",
        "--out", str(tmp_path / "nodir" / "x.json"),
    ]) == 1
