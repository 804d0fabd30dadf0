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
        if self.m_alpha is not None:
            expected = math.log(self.a_alpha) / (1 - self.alpha)
            if abs(self.m_alpha - expected) > 1e-12:
                raise ValueError("m_alpha inconsistent with a_alpha")


def pauli_expectations(psi: StateVector) -> np.ndarray:
    """<psi|P_j|psi> for all 4^n strings in canonical order."""
    return np.array([pauli_expval(p, psi) for p in enumerate_paulis(psi.n)])


def characteristic_distribution(psi: StateVector) -> CharacteristicDistribution:
    e = pauli_expectations(psi)
    return CharacteristicDistribution(e**2 / psi.dim)


def a_alpha_exact(psi: StateVector, alpha: int) -> float:
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    e = pauli_expectations(psi)
    return float(np.sum(e ** (2 * alpha)) / psi.dim)


def m_alpha_exact(psi: StateVector, alpha: int) -> float:
    if alpha < 2:
        raise ValueError(f"M_alpha needs alpha >= 2, got {alpha}")
    return math.log(a_alpha_exact(psi, alpha)) / (1 - alpha)


def sre_value(psi: StateVector, alpha: int) -> SreValue:
    a = a_alpha_exact(psi, alpha)
    m = math.log(a) / (1 - alpha) if alpha >= 2 else None
    return SreValue(alpha, a, m)


def closed_form_a(theta: float, alpha: int) -> float:
    """A_alpha of the single-qubit state (|0> + e^{i theta}|1>)/sqrt(2)."""
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    return 0.5 * (1 + math.cos(theta) ** (2 * alpha) + math.sin(theta) ** (2 * alpha))


def is_stabilizer(psi: StateVector, tol: float = STABILIZER_TOL) -> bool:
    """True iff the characteristic distribution is d entries of 1/d, rest 0."""
    d = psi.dim
    probs = characteristic_distribution(psi).probs
    at_peak = np.abs(probs - 1.0 / d) <= tol
    at_zero = np.abs(probs) <= tol
    return int(at_peak.sum()) == d and int(at_zero.sum()) == d * d - d
