"""Dense statevector and density-matrix arithmetic.

Register convention (little-endian): qubit ``q`` is bit ``q`` of the amplitude
index.  When registers are composed with ``np.kron(high, low)`` the first
factor occupies the most-significant bits.  The coherent-preparation layout
puts the 2n ancilla qubits in the most-significant positions, followed by the
copy blocks B_1 ... B_alpha in decreasing significance, so CSV/JSON dumps of
amplitudes are reproducible bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NormalizationError, SizeGuardError
from .paulis import PauliString, apply_pauli_amps, expval

# Pure-state paths may hold at most this many qubits; dense density-matrix
# paths are capped by dimension instead.
MAX_PURE_QUBITS = 20
MAX_DENSE_DIM = 4096

NORM_TOL = 1e-10
# PSD validation is O(dim^3); above this dimension it is skipped and the
# invariant is covered by the construction sites and the test suite.
_PSD_CHECK_DIM = 1024


def _check_pure_qubits(n: int) -> None:
    """Refuse a pure state of ``n`` qubits before anything is allocated for it."""
    if n < 1:
        raise SizeGuardError("state needs at least one qubit")
    if n > MAX_PURE_QUBITS:
        raise SizeGuardError(f"{n} qubits exceeds the pure-state guard ({MAX_PURE_QUBITS})")


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state on n qubits (amplitudes are read-only)."""

    n: int
    amps: np.ndarray

    def __post_init__(self):
        _check_pure_qubits(self.n)
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
    """Hermitian trace-one operator on n qubits."""

    n: int
    mat: np.ndarray

    def __post_init__(self):
        dim = 1 << self.n
        if dim > MAX_DENSE_DIM:
            raise SizeGuardError(
                f"density matrix dimension {dim} exceeds the guard ({MAX_DENSE_DIM})"
            )
        mat = np.ascontiguousarray(self.mat, dtype=complex)
        if mat.shape != (dim, dim):
            raise DimensionError(f"expected {dim}x{dim} matrix, got {self.mat.shape}")
        # negated so that NaN or infinite entries fail the comparison too
        if not np.abs(mat - mat.conj().T).max() <= 1e-10:
            raise NormalizationError("matrix is not finite and Hermitian to 1e-10")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > 1e-10:
            raise NormalizationError(f"trace is {tr!r}, expected 1")
        if dim <= _PSD_CHECK_DIM:
            lo = float(np.linalg.eigvalsh(mat).min())
            if lo < -1e-9:
                raise NormalizationError(f"negative eigenvalue {lo:.3e}")
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return 1 << self.n


@dataclass(frozen=True)
class BipartiteSplit:
    """Disjoint qubit-index sets covering the whole register."""

    subsystem_a: tuple[int, ...]
    subsystem_b: tuple[int, ...]

    def __post_init__(self):
        a, b = set(self.subsystem_a), set(self.subsystem_b)
        if not a or not b:
            raise ValueError("both sides of the split must be nonempty")
        if a & b:
            raise ValueError("split sides overlap")
        n = len(a) + len(b)
        if a | b != set(range(n)):
            raise ValueError("split must cover qubits 0..n-1 exactly")

    @property
    def n(self) -> int:
        return len(self.subsystem_a) + len(self.subsystem_b)


@dataclass(frozen=True, eq=False)
class SchmidtSpectrum:
    """Nonincreasing eigenvalues of a reduced state across a bipartition."""

    lambdas: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        if np.any(lam < -1e-12) or np.any(lam > 1 + 1e-9):
            raise NormalizationError("Schmidt coefficients outside [0, 1]")
        if np.any(np.diff(lam) > 1e-12):
            raise ValueError("Schmidt coefficients must be nonincreasing")
        if abs(lam.sum() - 1.0) > 1e-9:
            raise NormalizationError(f"Schmidt coefficients sum to {lam.sum()!r}")
        lam.setflags(write=False)
        object.__setattr__(self, "lambdas", lam)


# ---------------------------------------------------------------------------
# constructors


def basis_state(n: int, index: int) -> StateVector:
    _check_pure_qubits(n)
    amps = np.zeros(1 << n, dtype=complex)
    amps[index] = 1.0
    return StateVector(n, amps)


def zero_state(n: int) -> StateVector:
    return basis_state(n, 0)


def phase_state(theta: float) -> StateVector:
    """Single-qubit benchmark state (|0> + e^{i theta}|1>)/sqrt(2)."""
    return StateVector(1, np.array([1.0, np.exp(1j * theta)]) / math.sqrt(2))


def pure_density(psi: StateVector) -> DensityMatrix:
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
    if alpha < 1:
        raise ValueError("alpha must be a positive integer")
    if alpha * psi.n > MAX_PURE_QUBITS:
        raise SizeGuardError(
            f"{alpha} copies of {psi.n} qubits exceed the guard ({MAX_PURE_QUBITS})"
        )
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


_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)


def hadamard_layer(psi: StateVector, targets) -> StateVector:
    out = psi
    for q in targets:
        out = apply_single_qubit_gate(out, _HADAMARD, q)
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


def controlled_pauli_power(
    psi: StateVector, ancilla, blocks
) -> StateVector:
    """Apply P_j^{(x) alpha} to the blocks, conditioned on ancilla value j.

    ``ancilla`` lists the 2n qubits holding the Pauli index (bit a of j lives
    on ancilla[a]; the low n bits are the x-mask, the high n bits the z-mask).
    ``blocks`` lists alpha disjoint groups of n qubits; every group receives
    the same string.  Never materialized as a dense matrix: the update is one
    masked phased permutation per ancilla value.
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
    # group amplitude indices by ancilla value in one pass
    order = np.argsort(anc_val, kind="stable")
    bounds = np.searchsorted(anc_val[order], np.arange(4**n_sub + 1))

    out = np.empty_like(psi.amps)
    for j in range(4**n_sub):
        x_sub = j & ((1 << n_sub) - 1)
        z_sub = j >> n_sub
        x_full = z_full = 0
        for block in blocks:
            for q_sub, q in enumerate(block):
                x_full |= ((x_sub >> q_sub) & 1) << q
                z_full |= ((z_sub >> q_sub) & 1) << q
        phase = 1j ** ((len(blocks) * ((x_sub & z_sub).bit_count())) % 4)
        sel = order[bounds[j] : bounds[j + 1]]
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


def schmidt_spectrum(psi: StateVector, split: BipartiteSplit) -> SchmidtSpectrum:
    if split.n != psi.n:
        raise DimensionError(f"split covers {split.n} qubits, state has {psi.n}")
    m = _split_matrix(psi, split.subsystem_a)
    svals = np.linalg.svd(m, compute_uv=False)
    return SchmidtSpectrum(np.sort(svals**2)[::-1])


def renyi_entanglement(spectrum: SchmidtSpectrum, beta: float) -> float:
    if beta <= 0 or beta == 1:
        raise ValueError("beta must be positive and different from 1")
    return math.log(float(np.sum(spectrum.lambdas**beta))) / (1.0 - beta)
