"""Tests of the benchmark itself: gate, tracer, op generation.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import harness  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from sre_purity import cli, estimation, oracle, states, verification  # noqa: E402


def _run(op):
    _, result = harness.run_op(cli, op)
    return result


def _estimate_op(**overrides):
    args = dict(state="haar:2:5", alpha=2, eps=0.2, delta=0.5, method="coherent", seed=3,
                marginal="copies")
    args.update(overrides)
    return workloads._op("estimate", **args)


@pytest.fixture(scope="module")
def estimate_case():
    harness.OUT.parent.mkdir(exist_ok=True)
    op = _estimate_op()
    return op, gate.reference(op), _run(op)


def test_gate_passes_a_correct_estimate(estimate_case):
    op, ref, result = estimate_case
    assert gate.check(op, ref, result) == (gate.OK, "")


def test_gate_fails_a_perturbed_a_hat(estimate_case):
    op, ref, result = estimate_case
    report = json.loads(result.output)
    d = ref["d"]
    shots = report["shots_used"]
    # well beyond the 6-sigma band around the reference
    report["a_hat"] = ref["a"] + 7 * d * np.sqrt(1 / shots)
    report["gamma_hat"] = report["a_hat"] / d
    bad = dataclasses.replace(result, output=json.dumps(report))
    assert gate.check(op, ref, bad)[0] == gate.FAIL


def test_gate_fails_a_wrong_budget(estimate_case):
    op, ref, result = estimate_case
    report = json.loads(result.output)
    report["budget"]["copies_of_psi"] += 1
    bad = dataclasses.replace(result, output=json.dumps(report))
    assert gate.check(op, ref, bad)[0] == gate.FAIL


def _incorrect(op, ref, result):
    """The op fails the gate and a run holding it is incorrect."""
    status, _ = gate.check(op, ref, result)
    return status == gate.FAIL and not gate.run_correct([gate.OK, status])


def test_gate_fails_a_wrong_exit_code(estimate_case):
    op, ref, result = estimate_case
    wrong = dataclasses.replace(result, code=2, stderr="error: refused\n", output=None)
    assert _incorrect(op, ref, wrong)


def test_gate_fails_a_traceback(estimate_case):
    op, ref, result = estimate_case
    on_stderr = dataclasses.replace(result, stderr="Traceback (most recent call last):\n")
    assert _incorrect(op, ref, on_stderr)
    raised = dataclasses.replace(result, code=None, traceback="Traceback ...\nValueError: x\n")
    assert _incorrect(op, ref, raised)


def test_gate_fails_a_failing_verify():
    op = workloads._op("verify", suite="replica")
    result = _run(op)
    assert gate.check(op, {}, result) == (gate.OK, "")
    lines = result.stdout.splitlines()
    lines[0] = lines[0].replace("[PASS]", "[FAIL]")
    lines[-1] = lines[-1].replace(f"{len(lines) - 1}/", f"{len(lines) - 2}/")
    failed = dataclasses.replace(result, code=4, stdout="\n".join(lines) + "\n")
    assert _incorrect(op, {}, failed)


def test_gate_on_guard_refusals():
    refused = _estimate_op(state="stab:13", expect_exit=workloads.SIZE_GUARD_EXIT)
    assert gate.check(refused, {}, _run(refused)) == (gate.OK, "")
    # stab:70 is refused as a bad spec (exit 2), not by a size guard: a known
    # failure, which counts as failed but leaves the run correct
    stab70 = _estimate_op(state="stab:70", expect_exit=workloads.SIZE_GUARD_EXIT,
                          known_exit=workloads.STAB70_EXIT)
    status, _ = gate.check(stab70, {}, _run(stab70))
    assert status == gate.KNOWN_FAILURE and gate.run_correct([gate.OK, status])
    # the known exit code does not excuse a traceback
    crashed = gate.Result(workloads.STAB70_EXIT, "", "Traceback ...\nMemoryError\n", None)
    assert _incorrect(stab70, {}, crashed)


def test_gate_passes_an_analytic_estimate_and_an_oracle_with_dist():
    for op in (_estimate_op(state="haar:1:4", alpha=3, shots=0),
               workloads._op("oracle", state="haar:3:9", alpha=3, dist=True)):
        assert gate.check(op, gate.reference(op), _run(op)) == (gate.OK, "")


def test_reference_expectations_match_the_package_oracle():
    for spec in ("haar:1:2", "haar:3:7", "stab:2", "theta:0.4"):
        psi = cli.parse_state_spec(spec)
        np.testing.assert_allclose(gate.pauli_expectations(gate.state_amplitudes(spec)),
                                   oracle.pauli_expectations(psi), atol=1e-12)


def test_budget_is_exact():
    assert gate.budget(2, 4, 0.05, 0.1) == (128000, 32000)
    assert gate.budget(3, 8, 0.02, 0.1) == (4800000, 800000)


def test_tracer_counts_calls_through_from_imported_bindings():
    psi = cli.parse_state_spec("haar:2:1")
    original = estimation.pauli_expectations
    with tracer.Tracer() as t:
        assert estimation.pauli_expectations is not original
        estimation.pauli_expectations(psi)  # estimation's own binding
        estimation.IncoherentPairSource(psi, 2)  # calls it through that binding
        oracle.a_alpha_exact(psi, 2)  # and through oracle's
        states.DensityMatrix(1, np.eye(2) / 2)
        metrics = t.metrics()
    assert estimation.pauli_expectations is original
    assert "paulis.expval.s" not in metrics  # hot leaves are counted, not timed
    assert metrics["oracle.pauli_expectations.calls"] == 3
    assert metrics["oracle.expectations_per_state"] == 3
    assert metrics["paulis.expval.calls"] == 3 * 16
    assert metrics["paulis.strings_built"] == 3 * 16
    assert metrics["states.DensityMatrix.calls"] == 1
    assert metrics["states.DensityMatrix.max_dim"] == 2


def test_tracer_self_time_excludes_children():
    psi = cli.parse_state_spec("haar:2:1")
    with tracer.Tracer() as t:
        oracle.a_alpha_exact(psi, 2)
        totals = t.totals()
    outer, inner = totals["oracle.a_alpha_exact"], totals["oracle.pauli_expectations"]
    assert outer["self_s"] == pytest.approx(outer["s"] - inner["s"])
    assert inner["self_s"] <= inner["s"]


def test_tracer_sees_every_verification_check():
    original = verification.SUITES
    with tracer.Tracer() as t:
        wrapped = verification.SUITES
    assert verification.SUITES is original
    for key, checks in original.items():
        assert [fn.__name__ for fn in wrapped[key]] == [fn.__name__ for fn in checks]
        assert [fn.__wrapped__ for fn in wrapped[key]] == list(checks)
        assert all(f"verification.{fn.__name__}" in t.timed for fn in checks)


def test_tracer_counts_bytes_per_shot_from_arguments():
    psi = cli.parse_state_spec("haar:2:1")
    rng = np.random.default_rng(0)
    with tracer.Tracer() as t:
        estimation.estimate_purity(estimation.IncoherentPairSource(psi, 2), 100, rng)
        estimation.estimate_purity(estimation.StaticSource(states.DensityMatrix(
            1, np.eye(2) / 2)), 300, rng)
        metrics = t.metrics()
    assert metrics["estimation.shots"] == 400
    # 5 arrays for the incoherent source, 3 for the batched static one
    assert metrics["estimation.bytes_per_shot_computed"] == (8 * 5 * 100 + 8 * 3 * 300) / 400


def test_a_traced_pass_gives_every_per_layer_metric():
    ops = [_estimate_op(), workloads._op("oracle", state="haar:2:3", alpha=2)]
    refs = [gate.reference(op) for op in ops]
    with tracer.Tracer() as t:
        stats = harness.run_pass(cli, ops, refs, t)
    assert stats.statuses == [gate.OK, gate.OK]
    assert set(harness.PER_LAYER) - set(stats.layer) == {"trace.overhead_frac"}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_argv(workload):
    def argvs(seed, k):
        return [op.argv() for op in workloads.pass_ops(workload, seed, k)]

    assert argvs(7, 0) == argvs(7, 0)
    assert argvs(7, 1) == argvs(7, 1)
    assert argvs(7, 0) != argvs(8, 0)
    assert argvs(7, 0) != argvs(7, 1)


def test_estimate_stream_shape():
    ops = workloads.pass_ops("estimate-stream", 1, 0)
    assert len(ops) >= 150
    assert sum(op.expect_exit != 0 for op in ops) == 3
    assert workloads.requery_fraction(ops) == 0.0


def test_oracle_scan_requeries_about_half():
    ops = workloads.pass_ops("oracle-scan", 1, 0)
    assert 0.4 <= workloads.requery_fraction(ops) <= 0.5
    assert 0.4 <= sum(bool(op.params.get("dist")) for op in ops) / len(ops) <= 0.5
