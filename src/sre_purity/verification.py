"""Identity-verification suites.

Each check exercises one exact identity of the purity-encoding construction
(distribution normalization, channel purity encoding, local twirl, marginal
consistency, coherent/ancilla equivalence, replica trick, operator norms,
monotone axioms, entanglement identity) over seeded random state sets and
reports the worst residual against its tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bench import (
    build_gamma,
    gamma_tensor_max_abs_eig,
    replica_expectation,
    entanglement_identity_residual,
)
from .channels import (
    ancilla_marginal,
    ancilla_marginal_of,
    coherent_prepare,
    copies_marginal,
    exact_channel_output,
)
from .clifford import (
    apply_circuit,
    haar_random_state,
    random_clifford_circuit,
    random_clifford_state,
    single_qubit_stabilizer_states,
)
from .oracle import (
    a_alpha_exact,
    characteristic_distribution,
    m_alpha_exact,
)
from .states import (
    StateVector,
    partial_trace,
    phase_state,
    purity,
)

HAAR_SET = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    tol: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  {self.detail}" if self.detail else ""
        return f"[{status}] {self.name}: worst residual {self.worst:.3e} (tol {self.tol:.0e}){extra}"


def _result(name: str, worst: float, tol: float, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(worst < tol), float(worst), tol, detail)


# ---------------------------------------------------------------------------
# normalization (distribution is a probability vector)


def check_normalization() -> CheckResult:
    rng = np.random.default_rng(11)
    worst = 0.0
    for n in (1, 2, 3):
        for _ in range(100):
            probs = characteristic_distribution(haar_random_state(n, rng))
            worst = max(worst, abs(float(probs.sum()) - 1.0), -float(probs.min()))
    return _result("characteristic distribution normalization", worst, 1e-10)


# ---------------------------------------------------------------------------
# monotone axioms


def check_faithfulness() -> CheckResult:
    rng = np.random.default_rng(12)
    worst = 0.0
    for psi in single_qubit_stabilizer_states().values():
        worst = max(worst, m_alpha_exact(psi, 2))
    for _ in range(20):
        worst = max(worst, m_alpha_exact(random_clifford_state(2, rng), 2))
    # strictly positive away from the stabilizer angles
    floor = min(
        m_alpha_exact(phase_state(t), 2) for t in (0.3, math.pi / 4, 1.1, 2.0)
    )
    detail = f"min off-stabilizer M_2 = {floor:.3e}"
    ok = worst < 1e-12 and floor > 1e-3
    return CheckResult("faithfulness of M_alpha", ok, float(worst), 1e-12, detail)


def check_clifford_invariance() -> CheckResult:
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 3))
        psi = haar_random_state(n, rng)
        circuit = random_clifford_circuit(n, rng)
        for alpha in (2, 3):
            worst = max(
                worst,
                abs(
                    m_alpha_exact(apply_circuit(psi, circuit), alpha)
                    - m_alpha_exact(psi, alpha)
                ),
            )
    return _result("Clifford invariance of M_alpha", worst, 1e-10)


def check_additivity() -> CheckResult:
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(20):
        a = haar_random_state(1, rng)
        b = haar_random_state(int(rng.integers(1, 3)), rng)
        prod = StateVector(a.n + b.n, np.kron(a.amps, b.amps))
        for alpha in (2, 3):
            worst = max(
                worst,
                abs(
                    m_alpha_exact(prod, alpha)
                    - m_alpha_exact(a, alpha)
                    - m_alpha_exact(b, alpha)
                ),
            )
    return _result("additivity of M_alpha under tensor products", worst, 1e-10)


# ---------------------------------------------------------------------------
# channel identities


def _haar_states(seed: int, per_combo: int):
    rng = np.random.default_rng(seed)
    for n, alpha in HAAR_SET:
        for _ in range(per_combo):
            yield n, alpha, haar_random_state(n, rng)


def check_purity_encoding() -> CheckResult:
    worst = 0.0
    for n, alpha, psi in _haar_states(15, 50):
        residual = abs(
            psi.dim * purity(exact_channel_output(psi, alpha)) - a_alpha_exact(psi, alpha)
        )
        worst = max(worst, residual)
    return _result("purity encoding d*tr[out^2] = A_alpha", worst, 1e-10)


def check_local_twirl() -> CheckResult:
    worst = 0.0
    for n, alpha, psi in _haar_states(16, 10):
        out = exact_channel_output(psi, alpha)
        eye = np.eye(psi.dim) / psi.dim
        for i in range(1, alpha + 1):
            block = range((alpha - i) * n, (alpha - i + 1) * n)
            marg = partial_trace(out, block)
            worst = max(worst, float(np.abs(marg.mat - eye).max()))
    return _result("local twirl: every single-copy marginal is I/d", worst, 1e-10)


def check_marginal_consistency() -> CheckResult:
    worst = 0.0
    for n, alpha, psi in _haar_states(17, 10):
        if alpha < 2:
            continue
        out = exact_channel_output(psi, alpha)
        for kept_copies in range(1, alpha):
            keep = range(kept_copies * n)  # the least-significant copy blocks
            reduced = partial_trace(out, keep)
            expected = exact_channel_output(psi, kept_copies)
            worst = max(worst, float(np.abs(reduced.mat - expected.mat).max()))
    return _result("tracing copies reduces alpha in the channel output", worst, 1e-10)


def check_coherent_equivalence() -> CheckResult:
    """Same state set as the purity-encoding check (seed shared on purpose)."""
    worst = 0.0
    for n, alpha, psi in _haar_states(15, 50):
        prepared = coherent_prepare(psi, alpha)
        diff = np.abs(
            copies_marginal(prepared, n, alpha).mat - exact_channel_output(psi, alpha).mat
        ).max()
        anc = ancilla_marginal(psi, alpha)
        diff_anc = np.abs(anc.mat - ancilla_marginal_of(prepared, n, alpha).mat).max()
        purity_residual = abs(psi.dim * purity(anc) - a_alpha_exact(psi, alpha))
        worst = max(worst, float(diff), float(diff_anc), purity_residual)
    return _result("coherent preparation matches channel and ancilla formulas", worst, 1e-10)


# ---------------------------------------------------------------------------
# replica trick and norms


def check_replica_identity() -> CheckResult:
    rng = np.random.default_rng(18)
    worst = 0.0
    for n in (1, 2):
        for alpha in (1, 2, 3):
            for _ in range(20):
                psi = haar_random_state(n, rng)
                worst = max(
                    worst,
                    abs(replica_expectation(psi, alpha) - a_alpha_exact(psi, alpha)),
                )
    return _result("replica expectation equals A_alpha", worst, 1e-10)


def check_gamma_swap() -> CheckResult:
    swap = np.zeros((4, 4))
    swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
    worst = float(np.abs(build_gamma(1) - swap).max())
    return _result("Gamma_1 is the two-qubit swap operator", worst, 1e-12)


def check_gamma_norms() -> CheckResult:
    worst = 0.0
    for n in (1, 2):
        for alpha in (1, 2, 3, 4):
            expected = float(2**n) if alpha % 2 == 0 else 1.0
            worst = max(worst, abs(gamma_tensor_max_abs_eig(alpha, n) - expected))
    return _result("Gamma tensor-power norm parity rule", worst, 1e-9)


# ---------------------------------------------------------------------------
# entanglement identity


def check_entanglement_identity() -> CheckResult:
    worst = 0.0
    for n, alpha, psi in _haar_states(15, 50):
        worst = max(worst, entanglement_identity_residual(psi, alpha))
    # stabilizer input: all the entanglement, none of the magic
    for alpha in (1, 2, 3):
        worst = max(worst, entanglement_identity_residual(phase_state(0.0), alpha))
    return _result("entanglement identity (1-a)M_a + E_2 = ln d", worst, 1e-9)


# ---------------------------------------------------------------------------
# suite registry


SUITES = {
    "normalization": (check_normalization,),
    "monotone": (check_faithfulness, check_clifford_invariance, check_additivity),
    "twirl": (
        check_purity_encoding,
        check_local_twirl,
        check_marginal_consistency,
        check_coherent_equivalence,
    ),
    "replica": (check_replica_identity, check_gamma_swap, check_gamma_norms),
    "theorem1": (check_entanglement_identity,),
}


def run_suite(name: str) -> list[CheckResult]:
    if name == "all":
        return [res for suite in SUITES.values() for check in suite for res in [check()]]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return [check() for check in SUITES[name]]
