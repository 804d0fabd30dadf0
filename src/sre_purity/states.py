"""Dense statevector and density-matrix arithmetic.

Register convention (little-endian): qubit ``q`` is bit ``q`` of the amplitude
index.  When registers are composed with ``np.kron(high, low)`` the first
factor occupies the most-significant bits.  The coherent-preparation layout
puts the 2n ancilla qubits in the most-significant positions, followed by the
copy blocks B_1 ... B_alpha in decreasing significance, so CSV/JSON dumps of
amplitudes are reproducible bit-exactly.

A caller's ``StateVector`` and ``DensityMatrix`` are checked where they enter;
what the package derives from them (its own states and density matrices,
Schmidt spectra as plain nonincreasing arrays) is returned unchecked, and
``verification`` checks the identities it satisfies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DENSE_DIM, PURE_QUBITS, DimensionError, NormalizationError, check_size
from .paulis import PauliString, apply_pauli_amps, expval

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)

NORM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state on n qubits, read-only; checked unless from ``built_state``."""

    n: int
    amps: np.ndarray

    def __post_init__(self):
        check_size("pure-state qubits", self.n, PURE_QUBITS)
        amps = np.ascontiguousarray(self.amps, dtype=complex)
        if amps.shape != (1 << self.n,):
            raise DimensionError(
                f"expected {1 << self.n} amplitudes, got shape {self.amps.shape}"
            )
        norm_sq = float(np.vdot(amps, amps).real)
        # a NaN or infinite amplitude makes norm_sq non-finite
        if not math.isfinite(norm_sq) or abs(norm_sq - 1.0) > NORM_TOL:
            raise NormalizationError(f"|psi|^2 = {norm_sq!r} is not 1")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self) -> int:
        return 1 << self.n


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive semidefinite, trace-one operator on n qubits.

    A caller's matrix is checked in full: finite and Hermitian to 1e-10, trace
    one to 1e-10 and no eigenvalue below -1e-9.  The package's own matrices
    are correct by construction and enter through ``built_density``.
    """

    n: int
    mat: np.ndarray

    def __post_init__(self):
        dim = 1 << self.n
        check_size("density-matrix dimension", dim, DENSE_DIM)
        mat = np.ascontiguousarray(self.mat, dtype=complex)
        if mat.shape != (dim, dim):
            raise DimensionError(f"expected {dim}x{dim} matrix, got {self.mat.shape}")
        # negated so that NaN or infinite entries fail the comparison too
        if not np.abs(mat - mat.conj().T).max() <= 1e-10:
            raise NormalizationError("matrix is not finite and Hermitian to 1e-10")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > 1e-10:
            raise NormalizationError(f"trace is {tr!r}, expected 1")
        lo = float(np.linalg.eigvalsh(mat).min())
        if lo < -1e-9:
            raise NormalizationError(f"negative eigenvalue {lo:.3e}")
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return 1 << self.n


def built_state(n: int, amps: np.ndarray) -> StateVector:
    """Wrap 2^n amplitudes of norm one the package built, read-only and unchecked."""
    amps.setflags(write=False)
    psi = object.__new__(StateVector)
    vars(psi).update(n=n, amps=amps)
    return psi


def built_density(n: int, mat: np.ndarray) -> DensityMatrix:
    """Wrap, read-only and unchecked, a matrix the package built Hermitian, PSD
    and of trace one after checking its dimension (the tests assert all three)."""
    mat.setflags(write=False)
    rho = object.__new__(DensityMatrix)
    vars(rho).update(n=n, mat=mat)
    return rho


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
    return built_density(psi.n, np.outer(psi.amps, psi.amps.conj()))


# ---------------------------------------------------------------------------
# pure-state operations


def apply_pauli(p: PauliString, psi: StateVector) -> StateVector:
    if p.n != psi.n:
        raise DimensionError(f"Pauli on {p.n} qubits, state on {psi.n}")
    return built_state(psi.n, apply_pauli_amps(p, psi.amps))


def pauli_expval(p: PauliString, psi: StateVector) -> float:
    if p.n != psi.n:
        raise DimensionError(f"Pauli on {p.n} qubits, state on {psi.n}")
    return expval(p, psi.amps)


def tensor_power(psi: StateVector, alpha: int) -> StateVector:
    if alpha < 1:
        raise ValueError("alpha must be a positive integer")
    check_size("pure-state qubits", alpha * psi.n, PURE_QUBITS)
    amps = psi.amps
    for _ in range(alpha - 1):
        amps = np.kron(amps, psi.amps)
    return built_state(alpha * psi.n, amps)


def apply_single_qubit_gate(psi: StateVector, gate: np.ndarray, qubit: int) -> StateVector:
    """Apply a 2x2 unitary to one qubit of a statevector."""
    if not 0 <= qubit < psi.n:
        raise DimensionError(f"qubit {qubit} out of range for n={psi.n}")
    post = 1 << qubit
    pre = 1 << (psi.n - 1 - qubit)
    t = psi.amps.reshape(pre, 2, post)
    out = np.einsum("ab,xbz->xaz", gate, t)
    return built_state(psi.n, out.reshape(psi.dim))


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
    return built_state(psi.n, out)


def controlled_pauli_power(
    psi: StateVector, ancilla, blocks
) -> StateVector:
    """Apply P_j^{(x) alpha} to the blocks, conditioned on ancilla value j.

    The gate-level reference for the closed form in ``channels.coherent_prepare``.
    ``ancilla`` lists the 2n qubits holding the Pauli index (bit a of j lives
    on ancilla[a]; the low n bits are the x-mask, the high n bits the z-mask).
    ``blocks`` lists alpha disjoint groups of n qubits; every group receives
    the same string.  Never materialized as a dense matrix: three tables over
    the 4^n ancilla values give the string's x-mask and z-mask on the whole
    register and its phase, and one gather of them at each amplitude's
    ancilla value drives a single phased, signed scatter.
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

    # tables over ancilla values j: the string's x- and z-mask on the whole
    # register, and 2k for its phase i^k on all alpha blocks
    itype = np.int32 if psi.n < 31 else np.int64
    j = np.arange(4**n_sub, dtype=itype)
    x_sub, z_sub = j & ((1 << n_sub) - 1), j >> n_sub
    x_tab, z_tab = np.zeros_like(j), np.zeros_like(j)
    for block in blocks:
        for q_sub, q in enumerate(block):
            x_tab |= ((x_sub >> q_sub) & 1) << q
            z_tab |= ((z_sub >> q_sub) & 1) << q
    k2_tab = 2 * ((len(blocks) * np.bitwise_count(x_sub & z_sub)) % 4)
    # factor[2k + s] = i^k (-1)^s, formed as the product phase * sign so that
    # the amplitudes match the string-by-string form bit for bit
    factor = (np.array([1j**k for k in range(4)])[:, None] * np.array([1.0, -1.0])).ravel()

    idx = np.arange(psi.dim, dtype=itype)
    anc, bit = np.zeros_like(idx), np.empty_like(idx)
    for a, q in enumerate(ancilla):
        np.right_shift(idx, q, out=bit)
        bit &= 1
        bit <<= a
        anc |= bit
    del bit
    # sel = 2k + s, with the sign (-1)^s = (-1)^{|i & z|} at the source index i
    z = np.take(z_tab, anc)
    z &= idx
    sel = np.bitwise_count(z)
    del z
    sel &= 1
    sel |= np.take(k2_tab, anc)
    vals = np.take(factor, sel)
    del sel
    vals *= psi.amps
    dest = np.take(x_tab, anc)
    del anc
    dest ^= idx
    del idx
    out = np.empty_like(psi.amps)
    out[dest] = vals
    return built_state(psi.n, out)


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
    return built_density(len(keep), out)


def reduced_density_matrix(psi: StateVector, keep) -> DensityMatrix:
    """Reduced state of a pure state on the kept qubits (no full outer product)."""
    m = _split_matrix(psi, keep)
    check_size("density-matrix dimension", m.shape[0], DENSE_DIM)
    return built_density(int(math.log2(m.shape[0])), m @ m.conj().T)


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
