"""Exact n-qubit Pauli-string algebra in symplectic (x-mask, z-mask, phase) form.

Conventions used throughout the package:

* Qubit ``q`` corresponds to bit ``q`` of every integer mask and of every
  amplitude index (qubit 0 is the least significant bit).
* A ``PauliString`` with masks ``(x, z)`` and phase exponent ``p`` represents
  the operator ``i**p * prod_q X_q**x_q Z_q**z_q`` (on each qubit the X factor
  is applied after the Z factor).  With this base, ``Y = i * X * Z``, so the
  canonical Hermitian string carries ``phase_exp = popcount(x & z) mod 4``.
* Canonical index of a string: ``j = x | (z << n)``.  For one qubit this
  enumerates I, X, Z, Y (indices 0..3).  Index 0 is always the identity.

The canonical order is a package choice (the set of strings is what matters);
every exported quantity is invariant under re-enumeration, which the test
suite asserts explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OPERATOR_DIM, PAULI_QUBITS, DimensionError, check_size

_PAULI_CHARS = "IXZY"  # indexed by x_bit | z_bit << 1


@dataclass(frozen=True)
class PauliString:
    """An n-qubit Pauli operator ``i**phase_exp * B(x_bits, z_bits)``."""

    n: int
    x_bits: int
    z_bits: int
    phase_exp: int = 0

    def __post_init__(self):
        check_size("Pauli-string qubits", self.n, PAULI_QUBITS)
        mask = (1 << self.n) - 1
        if not (0 <= self.x_bits <= mask and 0 <= self.z_bits <= mask):
            raise ValueError("bit masks do not fit in n bits")
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    @property
    def phase(self) -> complex:
        return 1j ** self.phase_exp

    def label(self) -> str:
        """Character per qubit, qubit 0 leftmost (phase not shown)."""
        return "".join(
            _PAULI_CHARS[(self.x_bits >> q & 1) | (self.z_bits >> q & 1) << 1]
            for q in range(self.n)
        )

    def to_dense(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix; intended for small n cross-checks."""
        dim = 1 << self.n
        check_size("operator dimension", dim, OPERATOR_DIM)
        rows = np.arange(dim) ^ self.x_bits
        signs = 1.0 - 2.0 * (np.bitwise_count(np.arange(dim) & self.z_bits) & 1)
        mat = np.zeros((dim, dim), dtype=complex)
        mat[rows, np.arange(dim)] = self.phase * signs
        return mat


def pauli_from_index(n: int, index: int) -> PauliString:
    """Canonical Hermitian string number ``index`` (0 <= index < 4^n)."""
    check_size("Pauli-string qubits", n, PAULI_QUBITS)
    if not 0 <= index < 4**n:
        raise ValueError(f"Pauli index {index} out of range for n={n}")
    x = index & ((1 << n) - 1)
    z = index >> n
    return PauliString(n, x, z, (x & z).bit_count() % 4)


def enumerate_paulis(n: int) -> list[PauliString]:
    """All 4^n Hermitian Pauli strings in canonical order (index 0 = identity)."""
    check_size("Pauli-string qubits", n, PAULI_QUBITS)
    return [pauli_from_index(n, j) for j in range(4**n)]


def pauli_labels(n: int) -> list[str]:
    """``label()`` of every canonical string in order, formed from the index alone."""
    check_size("Pauli-string qubits", n, PAULI_QUBITS)
    # bits 0 and n of shifted[j, q] are bit q of string j's x- and z-mask
    shifted = np.arange(4**n)[:, None] >> np.arange(n)
    codes = (shifted & 1) | (shifted >> n & 1) << 1
    chars = np.array([ord(c) for c in _PAULI_CHARS], dtype=np.uint32)[codes]
    return chars.view(f"U{n}")[:, 0].tolist()


def apply_pauli_amps(p: PauliString, amps: np.ndarray) -> np.ndarray:
    """Apply p to a raw amplitude vector (signed/phased permutation)."""
    dim = 1 << p.n
    if amps.shape != (dim,):
        raise DimensionError(f"amplitude vector has wrong length for n={p.n}")
    src = np.arange(dim) ^ p.x_bits
    signs = 1.0 - 2.0 * (np.bitwise_count(src & p.z_bits) & 1)
    return p.phase * signs * amps[src]


def pauli_images(amps: np.ndarray, indices) -> np.ndarray:
    """Row k is P_j amps for the canonical Hermitian string j = indices[k].

    The batched form of ``apply_pauli_amps``: one gather at arange(d) ^ x,
    signs (-1)^|src & z| and the canonical phase i^|x & z|.
    """
    dim = amps.shape[0]
    n = dim.bit_length() - 1
    check_size("Pauli-string qubits", n, PAULI_QUBITS)
    if amps.shape != (1 << n,):
        raise DimensionError(f"amplitude vector of shape {amps.shape} is not 2^n long")
    j = np.asarray(indices, dtype=np.int64)[:, None]
    if j.size and not (0 <= j.min() and j.max() < dim * dim):
        raise ValueError(f"Pauli indices out of range for n={n}")
    x, z = j & (dim - 1), j >> n
    src = np.arange(dim) ^ x
    signs = 1.0 - 2.0 * (np.bitwise_count(src & z) & 1)
    phases = np.array([1.0, 1.0j, -1.0, -1.0j])[np.bitwise_count(x & z) & 3]
    return phases * signs * amps[src]


def expectation(p: PauliString, amps: np.ndarray) -> complex:
    """<psi|P|psi> as a complex number (P need not be Hermitian-canonical)."""
    return complex(np.vdot(amps, apply_pauli_amps(p, amps)))


def expval(p: PauliString, amps: np.ndarray) -> float:
    """Real expectation value of a Hermitian string on a normalized state."""
    val = expectation(p, amps)
    if abs(val.imag) > 1e-10:
        raise ArithmeticError(
            f"expectation value has imaginary residual {val.imag:.3e} "
            f"(string {p.label()}, phase_exp {p.phase_exp})"
        )
    return val.real
