"""Swap-test purity estimation, plus copy-budget arithmetic.

A swap-test shot on two preparations rho and sigma is 0 with probability
(1 + tr[rho sigma])/2.  Every preparation route has a shot law with the same
mean gamma, the purity of the channel output: for the exact mixture and the
coherent marginals both preparations are the same state, and for the
incoherent method the two independently drawn strings j1 and j2 make j1 ^ j2
uniform, so a shot is 0 with probability (1 + A_alpha/d)/2.  Shots are iid,
so a run of shots is one binomial draw from gamma (``estimate_purity``).  The
explicit cSWAP circuit (``swap_test_circuit_p0``) is the reference for that
law: the tests read 2 p0 - 1 off it and compare it with each route's gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PURE_QUBITS, DimensionError, check_shots, check_size, check_targets
from .states import DensityMatrix, StateVector, hadamard_layer


def budget_ceil(numerator: int, epsilon: float, delta: float) -> int:
    """ceil(numerator / (epsilon^2 delta)) in exact rational arithmetic.

    Each float is read as its shortest decimal repr, so eps = 0.1 is 1/10 and
    a budget is never off by the float's rounding, however large it is.
    """
    eps, dlt = Fraction(repr(float(epsilon))), Fraction(repr(float(delta)))
    return math.ceil(Fraction(numerator) / (eps * eps * dlt))


@dataclass(frozen=True)
class ShotBudget:
    """Copy and shot counts for a target additive error and failure probability.

    copies_of_psi = ceil(alpha d^2 / (epsilon^2 delta)); each swap-test shot
    consumes two alpha-copy preparations, so swap_shots = ceil(copies/(2 alpha));
    tau = epsilon/d is the induced purity error target.
    """

    alpha: int
    d: int
    epsilon: float
    delta: float
    tau: float
    copies_of_psi: int
    swap_shots: int


def copies_required(alpha: int, d: int, epsilon: float, delta: float) -> ShotBudget:
    check_targets(epsilon, delta)
    copies = budget_ceil(alpha * d * d, epsilon, delta)
    shots = -(-copies // (2 * alpha))
    return ShotBudget(alpha, d, epsilon, delta, epsilon / d, copies, shots)


# ---------------------------------------------------------------------------
# swap-test sampling


def state_overlap(a, b) -> float:
    """tr[rho sigma] for any combination of pure states and density matrices."""
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return float(abs(np.vdot(a.amps, b.amps)) ** 2)
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        return float(np.vdot(a.mat, b.mat).real)
    if isinstance(a, StateVector):
        a, b = b, a
    return float(np.vdot(b.amps, a.mat @ b.amps).real)


def estimate_purity(gamma: float, shots: int, rng) -> tuple[float, float | None]:
    """Swap-test estimate of a purity ``gamma`` from ``shots`` shots, with its
    standard error.

    Every shot is 0 with probability (1 + gamma)/2 independently, so the count
    of zeros is one Binomial(shots, (1 + gamma)/2) draw; the estimate is the
    mean of the +/-1-mapped outcomes and the standard error is the sample
    standard deviation of those outcomes over sqrt(shots), None for one shot.
    """
    check_shots(shots)
    zeros = int(rng.binomial(shots, 0.5 * (1.0 + gamma)))
    gamma_hat = (2 * zeros - shots) / shots
    if shots == 1:
        return gamma_hat, None
    variance = (1.0 - gamma_hat * gamma_hat) * shots / (shots - 1)
    return gamma_hat, math.sqrt(variance / shots)


# ---------------------------------------------------------------------------
# explicit cSWAP circuit (the reference for the shot law)


def _controlled_swap(psi: StateVector, control: int, pairs) -> StateVector:
    idx = np.arange(psi.dim)
    on = (idx >> control) & 1
    target = idx.copy()
    for a, b in pairs:
        diff = ((target >> a) & 1) ^ ((target >> b) & 1)
        flip = (diff << a) | (diff << b)
        target = np.where(on == 1, target ^ flip, target)
    out = np.empty_like(psi.amps)
    out[target] = psi.amps[idx]
    return StateVector(psi.n, out)


def swap_test_circuit_p0(left: StateVector, right: StateVector, swap_qubits=None) -> float:
    """P(ancilla = 0) from the explicit H-cSWAP-H circuit on two pure preparations.

    ``swap_qubits`` selects which qubits of each register enter the swap
    (default: all), which is how the coherent method tests only one marginal.
    """
    if left.n != right.n:
        raise DimensionError("the two preparations must have equal qubit counts")
    m = left.n
    check_size("pure-state qubits", 2 * m + 1, PURE_QUBITS)
    if swap_qubits is None:
        swap_qubits = range(m)
    full = StateVector(
        2 * m + 1,
        np.kron(np.array([1.0, 0.0]), np.kron(left.amps, right.amps)),
    )
    anc = 2 * m
    full = hadamard_layer(full, [anc])
    # left register sits on qubits m..2m-1, right register on 0..m-1
    full = _controlled_swap(full, anc, [(m + q, q) for q in swap_qubits])
    full = hadamard_layer(full, [anc])
    amps = full.amps.reshape(2, 1 << (2 * m))
    return float(np.vdot(amps[0], amps[0]).real)
