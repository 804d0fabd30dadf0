"""Dense statevector and density-matrix arithmetic.

Register convention (little-endian): qubit ``q`` is bit ``q`` of the amplitude
index.  When registers are composed with ``np.kron(high, low)`` the first
factor occupies the most-significant bits.  The coherent-preparation layout
puts the 2n ancilla qubits in the most-significant positions, followed by the
copy blocks B_1 ... B_alpha in decreasing significance, so CSV/JSON dumps of
amplitudes are reproducible bit-exactly.

``StateVector`` and ``DensityMatrix`` are plain read-only values that check
nothing: a state from outside is checked once where it enters, by
``cli.parse_state_spec``, and what the package derives from it (states,
density matrices, Schmidt spectra as plain nonincreasing arrays) is correct by
construction.  The tests assert each construction site's invariants, and
``verification`` checks the identities they satisfy.  Sites that allocate an
object whose size grows with the input check it against the size guards first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DENSE_DIM, PURE_QUBITS, DimensionError, check_size
from .paulis import PauliString, apply_pauli_amps, expval

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state on n qubits: 2^n amplitudes of norm one, read-only."""

    n: int
    amps: np.ndarray

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amps, dtype=complex)
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self) -> int:
        return 1 << self.n


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive semidefinite, trace-one operator on n qubits, read-only."""

    n: int
    mat: np.ndarray

    def __post_init__(self):
        mat = np.ascontiguousarray(self.mat, dtype=complex)
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return 1 << self.n


# ---------------------------------------------------------------------------
# constructors


def basis_state(n: int, index: int) -> StateVector:
    check_size("pure-state qubits", n, PURE_QUBITS)
    amps = np.zeros(1 << n, dtype=complex)
    amps[index] = 1.0
    return StateVector(n, amps)


def zero_state(n: int) -> StateVector:
    return basis_state(n, 0)


def phase_state(theta: float) -> StateVector:
    """Single-qubit benchmark state (|0> + e^{i theta}|1>)/sqrt(2)."""
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    return StateVector(1, np.array([1.0, np.exp(1j * theta)]) / math.sqrt(2))


def pure_density(psi: StateVector) -> DensityMatrix:
    check_size("density-matrix dimension", psi.dim, DENSE_DIM)
    return DensityMatrix(psi.n, np.outer(psi.amps, psi.amps.conj()))


# ---------------------------------------------------------------------------
# pure-state operations


def apply_pauli(p: PauliString, psi: StateVector) -> StateVector:
    if p.n != psi.n:
        raise DimensionError(f"Pauli on {p.n} qubits, state on {psi.n}")
    return StateVector(psi.n, apply_pauli_amps(p, psi.amps))


def pauli_expval(p: PauliString, psi: StateVector) -> float:
    if p.n != psi.n:
        raise DimensionError(f"Pauli on {p.n} qubits, state on {psi.n}")
    return expval(p, psi.amps)


def tensor_power(psi: StateVector, alpha: int) -> StateVector:
    check_size("pure-state qubits", alpha * psi.n, PURE_QUBITS)
    amps = psi.amps
    for _ in range(alpha - 1):
        amps = np.kron(amps, psi.amps)
    return StateVector(alpha * psi.n, amps)


def apply_single_qubit_gate(psi: StateVector, gate: np.ndarray, qubit: int) -> StateVector:
    """Apply a 2x2 unitary to one qubit of a statevector."""
    if not 0 <= qubit < psi.n:
        raise DimensionError(f"qubit {qubit} out of range for n={psi.n}")
    post = 1 << qubit
    pre = 1 << (psi.n - 1 - qubit)
    t = psi.amps.reshape(pre, 2, post)
    out = np.einsum("ab,xbz->xaz", gate, t)
    return StateVector(psi.n, out.reshape(psi.dim))


def hadamard_layer(psi: StateVector, targets) -> StateVector:
    out = psi
    for q in targets:
        out = apply_single_qubit_gate(out, HADAMARD, q)
    return out


def apply_cnot(psi: StateVector, control: int, target: int) -> StateVector:
    if control == target:
        raise DimensionError("control and target must differ")
    for q in (control, target):
        if not 0 <= q < psi.n:
            raise DimensionError(f"qubit {q} out of range for n={psi.n}")
    idx = np.arange(psi.dim)
    flipped = idx ^ ((idx >> control & 1) << target)
    out = np.empty_like(psi.amps)
    out[flipped] = psi.amps[idx]
    return StateVector(psi.n, out)


def controlled_pauli_power(psi: StateVector, ancilla, blocks) -> StateVector:
    """Apply P_j^{(x) alpha} to the blocks, conditioned on ancilla value j.

    The gate-level reference for the closed form in ``channels.coherent_prepare``.
    ``ancilla`` lists the 2n qubits holding the Pauli index (bit a of j lives
    on ancilla[a]; the low n bits are the x-mask, the high n bits the z-mask).
    ``blocks`` lists alpha disjoint groups of n qubits; every group receives
    the same string.  Written string by string, never as a dense matrix: for
    each ancilla value j, one masked, phased permutation of the amplitudes
    whose ancilla holds j.
    """
    blocks = [tuple(b) for b in blocks]
    ancilla = tuple(ancilla)
    n_sub = len(blocks[0])
    if any(len(b) != n_sub for b in blocks):
        raise DimensionError("all target blocks must have the same size")
    if len(ancilla) != 2 * n_sub:
        raise DimensionError(f"ancilla must hold {2 * n_sub} qubits")
    used = list(ancilla) + [q for b in blocks for q in b]
    if len(set(used)) != len(used):
        raise DimensionError("ancilla and target blocks must be disjoint")
    if any(not 0 <= q < psi.n for q in used):
        raise DimensionError("qubit index out of range")

    idx = np.arange(psi.dim)
    anc_val = np.zeros(psi.dim, dtype=np.int64)
    for a, q in enumerate(ancilla):
        anc_val |= ((idx >> q) & 1) << a
    out = np.empty_like(psi.amps)
    for j in range(4**n_sub):
        x_sub, z_sub = j & ((1 << n_sub) - 1), j >> n_sub
        # the string's x- and z-mask on the whole register, repeated on every block
        x_full = z_full = 0
        for block in blocks:
            for q_sub, q in enumerate(block):
                x_full |= ((x_sub >> q_sub) & 1) << q
                z_full |= ((z_sub >> q_sub) & 1) << q
        phase = 1j ** ((len(blocks) * (x_sub & z_sub).bit_count()) % 4)
        sel = np.flatnonzero(anc_val == j)
        signs = 1.0 - 2.0 * (np.bitwise_count(sel & z_full) & 1)
        out[sel ^ x_full] = phase * signs * psi.amps[sel]
    return StateVector(psi.n, out)


# ---------------------------------------------------------------------------
# reductions


def _scatter_table(bits: list[int], size: int) -> np.ndarray:
    """table[a] = integer with bit i of a moved to position bits[i]."""
    table = np.zeros(size, dtype=np.int64)
    for i, pos in enumerate(bits):
        table |= ((np.arange(size) >> i) & 1) << pos
    return table


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out all qubits not in ``keep`` (output qubit i = keep[i])."""
    keep = list(keep)
    if not keep:
        raise DimensionError("keep set must be nonempty")
    if len(set(keep)) != len(keep) or any(not 0 <= q < rho.n for q in keep):
        raise DimensionError(f"invalid keep set {keep} for n={rho.n}")
    traced = [q for q in range(rho.n) if q not in keep]
    keep_tab = _scatter_table(keep, 1 << len(keep))
    tr_tab = _scatter_table(traced, 1 << len(traced))
    out = np.zeros((1 << len(keep),) * 2, dtype=complex)
    for t in tr_tab:
        rows = keep_tab + t
        out += rho.mat[np.ix_(rows, rows)]
    return DensityMatrix(len(keep), out)


def reduced_density_matrix(psi: StateVector, keep) -> DensityMatrix:
    """Reduced state of a pure state on the kept qubits (no full outer product)."""
    m = _split_matrix(psi, keep)
    check_size("density-matrix dimension", m.shape[0], DENSE_DIM)
    return DensityMatrix(int(math.log2(m.shape[0])), m @ m.conj().T)


def _split_matrix(psi: StateVector, keep) -> np.ndarray:
    """Amplitudes reshaped to (kept, traced) index pairs."""
    keep = list(keep)
    if not keep or len(keep) >= psi.n:
        raise DimensionError("split must keep a strict nonempty subset")
    if len(set(keep)) != len(keep) or any(not 0 <= q < psi.n for q in keep):
        raise DimensionError(f"invalid keep set {keep} for n={psi.n}")
    rest = [q for q in range(psi.n) if q not in keep]
    t = psi.amps.reshape((2,) * psi.n)
    # axis of qubit q is n-1-q (most significant bit first after reshape);
    # row bit i of the result corresponds to qubit keep[i], matching the
    # output convention of partial_trace.
    order = [psi.n - 1 - q for q in reversed(keep)]
    order += [psi.n - 1 - q for q in reversed(rest)]
    return t.transpose(order).reshape(1 << len(keep), 1 << len(rest))


def purity(rho: DensityMatrix) -> float:
    # tr[rho^2] equals the squared Frobenius norm for Hermitian rho.
    return float(np.vdot(rho.mat, rho.mat).real)


def schmidt_spectrum(psi: StateVector, keep) -> np.ndarray:
    """Nonincreasing eigenvalues of the reduced state on the qubits in ``keep``."""
    svals = np.linalg.svd(_split_matrix(psi, keep), compute_uv=False)
    return np.sort(svals**2)[::-1]


def renyi_entanglement(spectrum: np.ndarray, beta: float) -> float:
    """Renyi-beta entropy of a Schmidt spectrum (``schmidt_spectrum``)."""
    if beta <= 0 or beta == 1:
        raise ValueError("beta must be positive and different from 1")
    return math.log(float(np.sum(spectrum**beta))) / (1.0 - beta)
