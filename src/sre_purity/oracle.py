"""Exact (noise-free) stabilizer Rényi entropy quantities.

These are the ground truth every statistical estimator in the package is
checked against: the characteristic distribution over Pauli strings, the
moment A_alpha, the entropy M_alpha and the single-qubit closed form.
Values are returned as plain floats and read-only arrays; the identities
they satisfy (a normalized distribution, the entanglement identity) are
checked by ``verification``, which reports a broken one instead of refusing
to compute it.
"""

from __future__ import annotations

import math

import numpy as np

from .paulis import enumerate_paulis
from .states import StateVector, pauli_expval


def m_from_a(a: float, alpha: int) -> float:
    """M_alpha = ln A_alpha / (1 - alpha), the one formula every M in the package uses."""
    if alpha < 2:
        raise ValueError(f"M_alpha needs alpha >= 2, got {alpha}")
    # + 0.0 turns the -0.0 of a = 1 into 0.0 and leaves every other value as it is
    return math.log(a) / (1 - alpha) + 0.0


def pauli_expectations(psi: StateVector) -> np.ndarray:
    """<psi|P_j|psi> for all 4^n strings in canonical order."""
    return np.array([pauli_expval(p, psi) for p in enumerate_paulis(psi.n)])


def characteristic_distribution(psi: StateVector) -> np.ndarray:
    """Read-only probabilities d^{-1} <psi|P_j|psi>^2 in canonical Pauli order."""
    probs = pauli_expectations(psi) ** 2 / psi.dim
    probs.setflags(write=False)
    return probs


def _power_sum(expectations: np.ndarray, alpha: int) -> float:
    # |<P>| <= 1, but <I> and the expectations of stabilizers round to 1 +- 1e-16,
    # which the power would blow up at huge alpha
    powers = np.minimum(np.abs(expectations), 1.0) ** (2 * alpha)
    return float(np.sum(powers) / math.isqrt(len(expectations)))


def a_alpha_of(expectations: np.ndarray, alpha: int) -> float:
    """A_alpha = d^{-1} sum_j |<P_j>|^{2 alpha} from a state's ``pauli_expectations``."""
    return _power_sum(expectations, alpha)


def a_alpha_exact(psi: StateVector, alpha: int) -> float:
    # the shared core, so that the expectations stay the only public callee
    # (the benchmark's tracer reads this call's self time as the power sum)
    return _power_sum(pauli_expectations(psi), alpha)


def m_alpha_exact(psi: StateVector, alpha: int) -> float:
    return m_from_a(a_alpha_exact(psi, alpha), alpha)


def closed_form_a(theta: float, alpha: int) -> float:
    """A_alpha of the single-qubit state (|0> + e^{i theta}|1>)/sqrt(2)."""
    return 0.5 * (1 + math.cos(theta) ** (2 * alpha) + math.sin(theta) ** (2 * alpha))

