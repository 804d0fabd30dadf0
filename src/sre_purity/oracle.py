"""Exact (noise-free) stabilizer Rényi entropy quantities.

These are the ground truth every statistical estimator in the package is
checked against: the characteristic distribution over Pauli strings, the
moment A_alpha, the entropy M_alpha, the single-qubit closed form, and
stabilizer-state detection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NormalizationError
from .paulis import enumerate_paulis
from .states import StateVector, pauli_expval

DIST_TOL = 1e-10
STABILIZER_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class CharacteristicDistribution:
    """Probabilities d^{-1} <psi|P_j|psi>^2 in canonical Pauli order."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if not np.all(np.isfinite(p)):
            raise NormalizationError("probabilities must be finite")
        if np.any(p < -DIST_TOL):
            raise NormalizationError("negative probability entry")
        if abs(p.sum() - 1.0) > DIST_TOL:
            raise NormalizationError(f"probabilities sum to {p.sum()!r}")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)


@dataclass(frozen=True)
class SreValue:
    alpha: int
    a_alpha: float
    m_alpha: float | None

    def __post_init__(self):
        if not 0 < self.a_alpha < math.inf:
            raise ValueError(f"a_alpha must be positive and finite, got {self.a_alpha!r}")
        # negated so that a NaN m_alpha fails the comparison
        if self.m_alpha is not None and not (
            abs(self.m_alpha - m_from_a(self.a_alpha, self.alpha)) <= 1e-12
        ):
            raise ValueError("m_alpha inconsistent with a_alpha")


def m_from_a(a: float, alpha: int) -> float:
    """M_alpha = ln A_alpha / (1 - alpha), the one formula every M in the package uses."""
    if alpha < 2:
        raise ValueError(f"M_alpha needs alpha >= 2, got {alpha}")
    if a <= 0:
        raise ValueError(f"a must be positive, got {a}")
    # + 0.0 turns the -0.0 of a = 1 into 0.0 and leaves every other value as it is
    return math.log(a) / (1 - alpha) + 0.0


def pauli_expectations(psi: StateVector) -> np.ndarray:
    """<psi|P_j|psi> for all 4^n strings in canonical order."""
    return np.array([pauli_expval(p, psi) for p in enumerate_paulis(psi.n)])


def characteristic_distribution(psi: StateVector) -> CharacteristicDistribution:
    e = pauli_expectations(psi)
    return CharacteristicDistribution(e**2 / psi.dim)


def _check_alpha(alpha: int) -> None:
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")


def _a_alpha(e: np.ndarray, dim: int, alpha: int) -> float:
    # |<P>| <= 1, but <I> and the expectations of stabilizers round to 1 +- 1e-16,
    # which the power would blow up at huge alpha
    return float(np.sum(np.minimum(np.abs(e), 1.0) ** (2 * alpha)) / dim)


def a_alpha_exact(psi: StateVector, alpha: int) -> float:
    _check_alpha(alpha)
    return _a_alpha(pauli_expectations(psi), psi.dim, alpha)


def m_alpha_exact(psi: StateVector, alpha: int) -> float:
    if alpha < 2:
        raise ValueError(f"M_alpha needs alpha >= 2, got {alpha}")
    return m_from_a(a_alpha_exact(psi, alpha), alpha)


def _sre_value(a: float, alpha: int) -> SreValue:
    return SreValue(alpha, a, m_from_a(a, alpha) if alpha >= 2 else None)


def sre_value(psi: StateVector, alpha: int) -> SreValue:
    return _sre_value(a_alpha_exact(psi, alpha), alpha)


def sre_value_and_distribution(
    psi: StateVector, alpha: int
) -> tuple[SreValue, CharacteristicDistribution]:
    """``sre_value`` and ``characteristic_distribution`` from one evaluation
    of the 4^n expectations (the same values as the two calls)."""
    _check_alpha(alpha)
    e = pauli_expectations(psi)
    return _sre_value(_a_alpha(e, psi.dim, alpha), alpha), CharacteristicDistribution(
        e**2 / psi.dim
    )


def closed_form_a(theta: float, alpha: int) -> float:
    """A_alpha of the single-qubit state (|0> + e^{i theta}|1>)/sqrt(2)."""
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    return 0.5 * (1 + math.cos(theta) ** (2 * alpha) + math.sin(theta) ** (2 * alpha))


def is_stabilizer(psi: StateVector) -> bool:
    """True iff the characteristic distribution is d entries of 1/d, rest 0
    (each to within STABILIZER_TOL)."""
    d = psi.dim
    probs = characteristic_distribution(psi).probs
    at_peak = np.abs(probs - 1.0 / d) <= STABILIZER_TOL
    at_zero = np.abs(probs) <= STABILIZER_TOL
    return int(at_peak.sum()) == d and int(at_zero.sum()) == d * d - d
