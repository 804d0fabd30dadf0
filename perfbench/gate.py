"""Output gate: judges every op's exit code, stderr and report.

References are computed here from the op's arguments alone, during set-up,
with the benchmark's own arithmetic and never with the package under test:

* Pauli expectations come from a fast Walsh-Hadamard transform of
  ``conj(psi[m ^ x]) psi[m]`` over ``m`` (one transform per x-mask), the
  FWHT route to the stabilizer Renyi entropy, so the reference shares no code
  with the package's one-string-at-a-time oracle.
* Copy budgets are recomputed in exact rational arithmetic.

An op ends ``ok``, ``known_failure`` (it ended the way its ``Op.known_exit``
records, a defect of the package the workload keeps on purpose) or ``fail``
(any other exit code, stderr, traceback or report).  Both failures count
against ``ok_frac``; a ``fail`` makes the run incorrect.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from workloads import Op

ORACLE_TOL = 1e-9
SIGMAS = 6.0

OK, KNOWN_FAILURE, FAIL = "ok", "known_failure", "fail"


def run_correct(statuses) -> bool:
    """A run is correct when every op passed or failed only in its known way."""
    return FAIL not in statuses


@dataclass
class Result:
    """What one CLI call left behind."""

    code: int | None  # None: an exception escaped main
    stdout: str
    stderr: str
    output: str | None  # contents of the --out file, if one was written
    traceback: str | None = None

    @property
    def output_bytes(self) -> int:
        return len(self.stdout.encode()) + len((self.output or "").encode())


# ---------------------------------------------------------------------------
# references


def state_amplitudes(spec: str) -> np.ndarray:
    """Amplitudes of a ``haar:<n>:<seed>`` / ``stab:<n>`` / ``theta:<rad>`` spec,
    following the CLI's documented spec semantics."""
    kind, _, rest = spec.partition(":")
    if kind == "haar":
        n_str, _, seed_str = rest.partition(":")
        rng = np.random.default_rng(int(seed_str))
        dim = 1 << int(n_str)
        amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return amps / np.linalg.norm(amps)
    if kind == "stab":
        amps = np.zeros(1 << int(rest), dtype=complex)
        amps[0] = 1.0
        return amps
    if kind == "theta":
        return np.array([1.0, np.exp(1j * float(rest))]) / math.sqrt(2)
    raise ValueError(f"no reference for state spec {spec!r}")


def fwht(a: np.ndarray) -> np.ndarray:
    """sum_m (-1)^{m.z} a[..., m] for every z, along the last axis (length 2^n)."""
    d = a.shape[-1]
    h = 1
    while h < d:
        # split m into (high bits, bit h, low bits) and butterfly over bit h
        a = a.reshape(a.shape[:-1] + (d // (2 * h), 2, h))
        low, high = a[..., 0, :], a[..., 1, :]
        a = np.stack((low + high, low - high), axis=-2).reshape(a.shape[:-3] + (d,))
        h *= 2
    return a


def pauli_expectations(amps: np.ndarray) -> np.ndarray:
    """<psi|P_j|psi> in the package's canonical order j = x | (z << n)."""
    d = len(amps)
    idx = np.arange(d)
    f = amps[idx[:, None] ^ idx[None, :]].conj() * amps[None, :]  # f[x, m]
    phase = 1j ** (np.bitwise_count(idx[:, None] & idx[None, :]) % 4)  # i^{|x & z|}
    e = phase * fwht(f)  # e[x, z]
    if np.abs(e.imag).max() > 1e-9:
        raise ArithmeticError("reference Pauli expectations are not real")
    return np.ascontiguousarray(e.real.T).reshape(-1)


def a_alpha(expectations: np.ndarray, alpha: int) -> float:
    return float(np.sum(expectations ** (2 * alpha)) / math.isqrt(len(expectations)))


def closed_form_a(theta: float, alpha: int) -> float:
    return 0.5 * (1 + math.cos(theta) ** (2 * alpha) + math.sin(theta) ** (2 * alpha))


def _ceil_div(a, b) -> int:
    return -(-a // b)


def budget(alpha: int, d: int, eps: float, delta: float) -> tuple[int, int]:
    """(copies, swap shots) = (ceil(alpha d^2 eps^-2 delta^-1), ceil(copies / 2 alpha))."""
    copies = math.ceil(Fraction(alpha * d * d) / (Fraction(str(eps)) ** 2 * Fraction(str(delta))))
    return copies, _ceil_div(copies, 2 * alpha)


def reference(op: Op) -> dict:
    """Everything the gate compares ``op``'s report against."""
    p = op.params
    if op.expect_exit != 0 or op.command not in ("oracle", "estimate"):
        return {}
    e = pauli_expectations(state_amplitudes(p["state"]))
    ref = {"d": math.isqrt(len(e)), "a": a_alpha(e, int(p["alpha"]))}
    if p.get("dist"):
        ref["probs"] = e**2 / ref["d"]
    return ref


# ---------------------------------------------------------------------------
# checks


class Mismatch(Exception):
    pass


def _close(name: str, got, want: float, tol: float) -> None:
    if got is None or not math.isfinite(got) or abs(got - want) > tol:
        raise Mismatch(f"{name} = {got!r}, expected {want!r} within {tol:g}")


def _equal(name: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{name} = {got!r}, expected {want!r}")


def _sampled_tol(d: int, gamma: float, shots: int) -> float:
    """SIGMAS standard deviations of d * (mean of shots +/-1 outcomes with mean gamma)."""
    return SIGMAS * d * math.sqrt(max(1.0 - gamma * gamma, 0.0) / shots)


def _check_m(report: dict, a: float, alpha: int) -> None:
    if a > 0 and alpha >= 2:
        _close("m", report.get("m_alpha", report.get("m_hat")), math.log(a) / (1 - alpha),
               ORACLE_TOL * max(1.0, abs(math.log(a))))


def _check_oracle(op: Op, ref: dict, report: dict) -> None:
    alpha = int(op.params["alpha"])
    _equal("alpha", report["alpha"], alpha)
    _equal("n", 1 << report["n"], ref["d"])
    _close("a_alpha", report["a_alpha"], ref["a"], ORACLE_TOL)
    _check_m(report, report["a_alpha"], alpha)
    if "probs" in ref:
        probs = np.asarray(report["characteristic_distribution"], dtype=float)
        _equal("distribution length", probs.shape, ref["probs"].shape)
        _close("distribution max deviation", float(np.abs(probs - ref["probs"]).max()), 0.0,
               ORACLE_TOL)
        _equal("pauli_order length", len(report["pauli_order"]), len(probs))
        _equal("pauli_order[0]", report["pauli_order"][0], "I" * report["n"])


def _check_estimate(op: Op, ref: dict, report: dict) -> None:
    p = op.params
    alpha, d, eps, delta = int(p["alpha"]), ref["d"], float(p["eps"]), float(p["delta"])
    gamma = ref["a"] / d
    copies, shots = budget(alpha, d, eps, delta)
    b = report["budget"]
    _equal("budget", (b["alpha"], b["d"], b["epsilon"], b["delta"]), (alpha, d, eps, delta))
    _equal("budget.copies_of_psi", b["copies_of_psi"], copies)
    _equal("budget.swap_shots", b["swap_shots"], shots)
    _close("budget.tau", b["tau"], eps / d, 1e-15)
    _equal("alpha", report["alpha"], alpha)
    _equal("seed", report["seed"], int(p["seed"]))
    _equal("marginal", report["marginal"], p["marginal"])
    _close("a_hat / d", report["a_hat"], d * report["gamma_hat"], 1e-12 * d)
    if "shots" in p:
        _equal("shots_used", report["shots_used"], int(p["shots"]))
    else:
        _equal("shots_used", report["shots_used"], shots)
    _equal("copies_used", report["copies_used"], 2 * alpha * report["shots_used"])
    if report["shots_used"] == 0:
        _close("gamma_hat", report["gamma_hat"], gamma, ORACLE_TOL)
    else:
        _close("a_hat", report["a_hat"], ref["a"], _sampled_tol(d, gamma, report["shots_used"]))
    _equal("m_defined", report["m_defined"], report["m_hat"] is not None)
    if report["m_hat"] is not None:
        _check_m(report, report["a_hat"], alpha)


def _csv_rows(text: str) -> list[dict]:
    body = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(body))))


def _check_sweep(op: Op, result: Result) -> None:
    p = op.params
    eps, delta = float(p["eps"]), float(p["delta"])
    alphas = [int(a) for a in p["alphas"].split(",")]
    start, stop, count = p["theta_grid"].split(":")
    thetas = np.linspace(float(start), float(stop), int(count))
    rows = _csv_rows(result.output)
    _equal("sweep rows", len(rows), len(alphas) * len(thetas) * int(p["seeds"]))
    within = 0
    for row in rows:
        alpha, theta = int(row["alpha"]), float(row["theta"])
        exact = closed_form_a(theta, alpha)
        copies, shots = budget(alpha, 2, eps, delta)
        estimate, err = float(row["estimate"]), float(row["abs_error"])
        _close("sweep exact", float(row["exact"]), exact, ORACLE_TOL)
        _equal("sweep copies", int(row["copies"]), 2 * alpha * shots)
        _close("sweep estimate", estimate, exact, _sampled_tol(2, exact / 2, shots))
        _close("sweep abs_error", err, abs(estimate - exact), 1e-12)
        _equal("sweep within_eps", row["within_eps"], "true" if err <= eps else "false")
        within += err <= eps
    _equal("sweep stderr", result.stderr, f"sweep: {within}/{len(rows)} points within eps\n")


def _check_complexity(op: Op, result: Result) -> None:
    p = op.params
    eps, delta, alpha = float(p["eps"]), float(p["delta"]), int(p["alphas"])
    d = 1 << int(p["state"].split(":")[1])
    gamma = a_alpha(pauli_expectations(state_amplitudes(p["state"])), alpha) / d
    k_direct = math.ceil(1 / (Fraction(str(eps)) ** 2 * Fraction(str(delta))))
    tau = Fraction(str(eps)) / (2 * alpha * d)
    k_single = math.ceil(1 / (tau**2 * Fraction(str(delta))))
    _, shots = budget(alpha, d, eps, delta)
    # (copies, standard-deviation bound of one run's a_hat) per method
    expected = {
        "swap_purity": (2 * alpha * shots, _sampled_tol(d, gamma, shots) / SIGMAS),
        "direct_gamma": (d * d * k_direct * 2 * alpha, 1 / math.sqrt(k_direct)),
        "direct_single_copy": (d * d * k_single,
                               eps * math.sqrt(delta) / d + d * alpha * (2 * alpha - 1) * float(tau) ** 2),
    }
    rows = _csv_rows(result.output)
    _equal("complexity methods", [r["method"] for r in rows], p["methods"].split(","))
    for row in rows:
        copies, sd = expected[row["method"]]
        _equal(f"{row['method']} copies", int(row["copies"]), copies)
        _close(f"{row['method']} rmse", float(row["empirical_rmse"]), 0.0, SIGMAS * sd)


def _check_verify(result: Result) -> None:
    lines = result.stdout.splitlines()
    checks = [line for line in lines if line.startswith("[")]
    if not checks or any(not line.startswith("[PASS]") for line in checks):
        raise Mismatch("verify reported a failing check")
    _equal("verify summary", lines[-1].split(": ", 1)[-1],
           f"{len(checks)}/{len(checks)} checks passed")


def _one_line_refusal(result: Result) -> str:
    """Why ``result`` is not a clean refusal, or "" if it is one."""
    if result.stderr.count("\n") != 1 or not result.stderr.strip():
        return f"refusal must print one stderr line, got {result.stderr!r}"
    if result.output is not None:
        return "a refused op wrote a report"
    return ""


def check(op: Op, ref: dict, result: Result) -> tuple[str, str]:
    """(status, reason) for one op's result against its reference."""
    if result.traceback is not None:
        return FAIL, "traceback: " + result.traceback.strip().splitlines()[-1]
    if "Traceback" in result.stderr:
        return FAIL, "traceback on stderr"
    if result.code != op.expect_exit:
        reason = f"exit {result.code}, expected {op.expect_exit}: {result.stderr.strip()}"
        if result.code == op.known_exit and not _one_line_refusal(result):
            return KNOWN_FAILURE, reason
        return FAIL, reason
    if op.expect_exit != 0:
        reason = _one_line_refusal(result)
        return (FAIL, reason) if reason else (OK, "")
    try:
        if op.command == "oracle":
            _check_oracle(op, ref, json.loads(result.output))
        elif op.command == "estimate":
            _check_estimate(op, ref, json.loads(result.output))
        elif op.command == "sweep":
            _check_sweep(op, result)
        elif op.command == "complexity":
            _check_complexity(op, result)
        elif op.command == "verify":
            _check_verify(result)
        if op.command != "sweep" and result.stderr:
            raise Mismatch(f"unexpected stderr {result.stderr.strip()!r}")
    except (Mismatch, KeyError, TypeError, ValueError) as exc:
        return FAIL, f"{type(exc).__name__}: {exc}"
    return OK, ""
