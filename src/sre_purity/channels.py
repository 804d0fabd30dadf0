"""Preparations of the Pauli-averaged state on alpha copies.

The channel applies every Pauli string with probability d^{-2} to all alpha
copies of a pure input state.  Its output encodes A_alpha into the purity:
d * tr[output^2] = A_alpha.  Three routes read one table R, whose row j is
(P_j psi)^{(x) alpha}, the row-wise Kronecker power of the Pauli images of psi:

* ``exact_channel_output`` — the d^2-term mixture R^T R* / d^2;
* ``coherent_prepare`` — the state of the ancilla circuit (2n ancillas in
  uniform superposition controlling the string applied to every copy), R / d;
  both of its marginals have purity A_alpha/d, which ``pipeline.route_gamma``
  reads from the oracle and ``verification`` checks on the built register;
* ``incoherent_sample`` — one uniformly drawn row of R, which the tests
  compare the incoherent route against; it carries no record of the string.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import DENSE_DIM, EXACT_WORK, PURE_QUBITS, check_size
from .paulis import pauli_images
from .states import DensityMatrix, StateVector, reduced_density_matrix


class PreparationMethod(enum.Enum):
    EXACT_MIXTURE = "exact_mixture"
    COHERENT = "coherent"
    INCOHERENT = "incoherent"


def _pauli_powers(psi: StateVector, alpha: int, indices) -> np.ndarray:
    """Row k is (P_j psi)^{(x) alpha}, j = indices[k], first factor most significant."""
    images = pauli_images(psi.amps, indices)
    rows = images
    for _ in range(alpha - 1):
        rows = (rows[:, :, None] * images[:, None, :]).reshape(len(images), -1)
    return rows


def exact_channel_output(psi: StateVector, alpha: int) -> DensityMatrix:
    """d^{-2} sum_j (P_j psi P_j)^{(x) alpha} as a dense density matrix."""
    n, d = psi.n, psi.dim
    # each term is a pure state on alpha n qubits
    check_size("pure-state qubits", alpha * n, PURE_QUBITS)
    dim = 1 << (alpha * n)
    check_size("density-matrix dimension", dim, DENSE_DIM)
    check_size("exact-mixture multiply-adds", d * d * dim * dim, EXACT_WORK)
    out = None
    # blocks of at most dim strings, so no block outgrows the output; only
    # alpha = 1 (d^2 strings, dim = d) takes more than one, and a single
    # block's product is the output itself, not a second dim x dim matrix
    for start in range(0, d * d, dim):
        rows = _pauli_powers(psi, alpha, np.arange(start, min(start + dim, d * d)))
        if out is None:
            out = rows.T @ rows.conj()
        else:
            out += rows.T @ rows.conj()
    del rows
    out /= d * d
    return DensityMatrix(alpha * n, out)


def coherent_prepare(psi: StateVector, alpha: int) -> StateVector:
    """State of the ancilla circuit cU_P (H^{(x)2n} (x) I) |0...0>|psi>^{(x)alpha}.

    The Hadamards give each ancilla value j amplitude 1/d, which the controlled
    string carries to |j> (P_j psi)^{(x) alpha}: the table over all d^2 strings
    divided by d, j in the top 2n bits.  ``states.controlled_pauli_power`` is the circuit.
    """
    total = (2 + alpha) * psi.n
    check_size("pure-state qubits", total, PURE_QUBITS)
    amps = _pauli_powers(psi, alpha, np.arange(psi.dim**2))
    amps /= psi.dim
    return StateVector(total, amps.ravel())


def copies_marginal(prepared: StateVector, n: int, alpha: int) -> DensityMatrix:
    """Reduced state of a coherent preparation on the copy register."""
    return reduced_density_matrix(prepared, range(alpha * n))


def ancilla_marginal_of(prepared: StateVector, n: int, alpha: int) -> DensityMatrix:
    """Reduced state of a coherent preparation on the 2n ancilla qubits."""
    return reduced_density_matrix(prepared, range(alpha * n, (alpha + 2) * n))


def ancilla_marginal(psi: StateVector, alpha: int) -> DensityMatrix:
    """Ancilla reduced state by direct formula: d^{-2} tr[P_j P_i psi]^alpha |i><j|.

    With T the images P_i psi of all d^2 strings as rows, tr[P_j P_i psi] is
    entry (i, j) of T T^dagger.  Cross-checked in tests against tracing the
    coherent preparation."""
    n, d = psi.n, psi.dim
    check_size("density-matrix dimension", d * d, DENSE_DIM)
    images = pauli_images(psi.amps, np.arange(d * d))
    return DensityMatrix(2 * n, (images @ images.conj().T) ** alpha / (d * d))


def incoherent_sample(psi: StateVector, alpha: int, rng: np.random.Generator) -> StateVector:
    """P_j^{(x)alpha} |psi>^{(x)alpha} for one uniformly drawn string (index forgotten)."""
    check_size("pure-state qubits", alpha * psi.n, PURE_QUBITS)
    j = int(rng.integers(4**psi.n))
    return StateVector(alpha * psi.n, _pauli_powers(psi, alpha, [j])[0])
