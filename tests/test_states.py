"""State-engine tests.

The controlled-Pauli-power op is checked against an independent dense circuit
oracle assembled gate by gate in this file (two-control Pauli gates after a
Hadamard layer, literal matrices only).
"""

import math
import tracemalloc

import numpy as np
import pytest

from sre_purity.errors import DimensionError, NormalizationError, SizeGuardError
from sre_purity.paulis import pauli_from_index
from sre_purity.states import (
    DensityMatrix,
    StateVector,
    apply_pauli,
    basis_state,
    controlled_pauli_power,
    hadamard_layer,
    partial_trace,
    phase_state,
    pure_density,
    purity,
    reduced_density_matrix,
    renyi_entanglement,
    schmidt_spectrum,
    tensor_power,
    zero_state,
)

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
H2 = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def bell_state() -> StateVector:
    return StateVector(2, np.array([1, 0, 0, 1]) / math.sqrt(2))


def random_state(n, seed) -> StateVector:
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return StateVector(n, amps / np.linalg.norm(amps))


def random_density(n, seed, rank=3) -> DensityMatrix:
    rng = np.random.default_rng(seed)
    mat = np.zeros((2**n, 2**n), dtype=complex)
    for _ in range(rank):
        v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        mat += np.outer(v, v.conj())
    return DensityMatrix(n, mat / np.trace(mat))


# ---------------------------------------------------------------------------
# invariant enforcement


def test_statevector_rejects_unnormalized():
    with pytest.raises(Exception):
        StateVector(1, np.array([1.0, 1.0]))
    for bad in ([np.nan, 0.0], [np.inf, 0.0], [1.0, np.nan]):
        with pytest.raises(NormalizationError):
            StateVector(1, np.array(bad))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_density_matrix_rejects_bad_inputs():
    with pytest.raises(Exception):
        DensityMatrix(1, np.array([[1.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(Exception):
        DensityMatrix(1, np.eye(2))  # trace 2
    for bad in (np.nan, np.inf):
        with pytest.raises(NormalizationError):
            DensityMatrix(1, np.array([[0.5, bad], [bad, 0.5]]))
        with pytest.raises(NormalizationError):
            DensityMatrix(1, np.array([[bad, 0.0], [0.0, 0.0]]))
    # Hermitian with trace one, but not PSD; the check runs at every
    # dimension the size guard allows
    for n in (1, 11):
        spectrum = np.zeros(1 << n)
        spectrum[:2] = 1.5, -0.5
        with pytest.raises(NormalizationError, match="negative eigenvalue"):
            DensityMatrix(n, np.diag(spectrum))


def test_split_validation():
    # a split keeps a strict nonempty subset of distinct qubits of the state
    for keep in ((), (0, 1), (0, 0), (2,)):
        with pytest.raises(DimensionError):
            schmidt_spectrum(bell_state(), keep)


# ---------------------------------------------------------------------------
# tensor powers


def test_tensor_power_examples():
    two = tensor_power(zero_state(1), 2)
    assert np.abs(two.amps - basis_state(2, 0).amps).max() < 1e-15
    plus = StateVector(1, np.array([1, 1]) / math.sqrt(2))
    assert np.abs(tensor_power(plus, 2).amps - 0.5).max() < 1e-15
    haar = random_state(2, 7)
    assert abs(np.linalg.norm(tensor_power(haar, 3).amps) - 1) < 1e-12


def test_tensor_power_guard():
    with pytest.raises(SizeGuardError):
        tensor_power(random_state(3, 0), 7)


def test_dense_guards_fire_before_the_matrix_exists():
    # a dim-8192 density matrix would take 1 GiB
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError):
            pure_density(zero_state(13))
        with pytest.raises(SizeGuardError):
            reduced_density_matrix(zero_state(14), range(13))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


# ---------------------------------------------------------------------------
# partial trace and purity


def test_partial_trace_bell_is_maximally_mixed():
    rho = pure_density(bell_state())
    for keep in ([0], [1]):
        red = partial_trace(rho, keep)
        assert np.abs(red.mat - I2 / 2).max() < 1e-12


def test_partial_trace_of_product_recovers_factor():
    rho = random_density(1, 21)
    sigma = random_density(1, 22)
    joint = DensityMatrix(2, np.kron(rho.mat, sigma.mat))  # rho on qubit 1
    assert np.abs(partial_trace(joint, [1]).mat - rho.mat).max() < 1e-12
    assert np.abs(partial_trace(joint, [0]).mat - sigma.mat).max() < 1e-12
    assert abs(np.trace(partial_trace(joint, [0]).mat) - 1) < 1e-12


def test_reduced_density_matrix_matches_partial_trace():
    psi = random_state(3, 5)
    rho = pure_density(psi)
    for keep in ([0], [2], [0, 2], [1, 2], [2, 0]):
        a = reduced_density_matrix(psi, keep)
        b = partial_trace(rho, keep)
        assert np.abs(a.mat - b.mat).max() < 1e-12


def test_purity_examples():
    assert purity(pure_density(random_state(2, 3))) == pytest.approx(1.0, abs=1e-12)
    assert purity(DensityMatrix(2, np.eye(4) / 4)) == pytest.approx(0.25, abs=1e-12)
    # direct 2x2 matrix-square oracle for the half/half mixture of |0> and |+>
    mix = 0.5 * np.outer([1, 0], [1, 0]) + 0.5 * np.outer([1, 1], [1, 1]) / 2
    oracle = np.trace(mix @ mix).real
    assert oracle == pytest.approx(0.75, abs=1e-12)
    assert purity(DensityMatrix(1, mix)) == pytest.approx(oracle, abs=1e-12)


def test_purity_equals_eigenvalue_power_sum():
    rho = random_density(2, 31)
    eigs = np.linalg.eigvalsh(rho.mat)
    assert purity(rho) == pytest.approx(float(np.sum(eigs**2)), abs=1e-10)


# ---------------------------------------------------------------------------
# Schmidt spectra and entanglement


def test_schmidt_bell_and_product():
    spec = schmidt_spectrum(bell_state(), (0,))
    assert np.abs(spec - 0.5).max() < 1e-12
    prod = tensor_power(random_state(1, 8), 2)
    spec = schmidt_spectrum(prod, (0,))
    assert spec[0] == pytest.approx(1.0, abs=1e-12)


def test_schmidt_sides_agree():
    psi = random_state(4, 11)
    a = schmidt_spectrum(psi, (0, 2))
    b = schmidt_spectrum(psi, (1, 3))
    assert np.abs(a - b).max() < 1e-10
    # nonincreasing, and a probability vector
    assert np.all(np.diff(a) <= 0)
    assert a.sum() == pytest.approx(1.0, abs=1e-12)


def test_renyi_entanglement_values():
    bell_spec = schmidt_spectrum(bell_state(), (0,))
    assert renyi_entanglement(bell_spec, 2) == pytest.approx(math.log(2), abs=1e-12)
    prod = tensor_power(random_state(1, 9), 2)
    prod_spec = schmidt_spectrum(prod, (0,))
    assert renyi_entanglement(prod_spec, 2) == pytest.approx(0.0, abs=1e-9)
    flat = np.full(4, 0.25)
    assert renyi_entanglement(flat, 2) == pytest.approx(math.log(4), abs=1e-12)
    with pytest.raises(ValueError):
        renyi_entanglement(flat, 1.0)


def test_renyi_e2_equals_minus_log_purity():
    psi = random_state(3, 13)
    e2 = renyi_entanglement(schmidt_spectrum(psi, (0, 1)), 2)
    red = reduced_density_matrix(psi, [0, 1])
    assert e2 == pytest.approx(-math.log(purity(red)), abs=1e-10)


# ---------------------------------------------------------------------------
# circuit layers


def test_hadamard_examples():
    plus = hadamard_layer(zero_state(1), [0])
    assert np.abs(plus.amps - np.array([1, 1]) / math.sqrt(2)).max() < 1e-12
    psi = random_state(2, 17)
    assert np.abs(hadamard_layer(hadamard_layer(psi, [0, 1]), [0, 1]).amps - psi.amps).max() < 1e-12
    uniform = hadamard_layer(zero_state(2), [0, 1])
    assert np.abs(uniform.amps - 0.5).max() < 1e-12


def test_hadamard_unitarity():
    psi = random_state(3, 19)
    assert abs(np.linalg.norm(hadamard_layer(psi, [0, 2]).amps) - 1) < 1e-12


def test_hadamard_invalid_target():
    with pytest.raises(DimensionError):
        hadamard_layer(zero_state(2), [2])


def test_state_values_are_immutable():
    psi = random_state(2, 41)
    with pytest.raises(ValueError):
        psi.amps[0] = 1.0
    rho = pure_density(psi)
    with pytest.raises(ValueError):
        rho.mat[0, 0] = 1.0


# ---------------------------------------------------------------------------
# controlled Pauli power


def _canonical_layout(n, alpha):
    ancilla = list(range(alpha * n, alpha * n + 2 * n))
    blocks = [list(range((alpha - i) * n, (alpha - i + 1) * n)) for i in range(1, alpha + 1)]
    return ancilla, blocks


def test_cpp_identity_on_zero_ancilla():
    psi = random_state(1, 23)
    full = StateVector(4, np.kron([1, 0, 0, 0], np.kron(psi.amps, psi.amps)))
    anc, blocks = _canonical_layout(1, 2)
    out = controlled_pauli_power(full, anc, blocks)
    assert np.abs(out.amps - full.amps).max() < 1e-12


@pytest.mark.parametrize("j", [0, 1, 2, 3])
def test_cpp_basis_ancilla_applies_string(j):
    psi = random_state(1, 29)
    anc = np.zeros(4)
    anc[j] = 1.0
    full = StateVector(3, np.kron(anc, psi.amps))
    out = controlled_pauli_power(full, ancilla=[1, 2], blocks=[[0]])
    expected = np.kron(anc, apply_pauli(pauli_from_index(1, j), psi).amps)
    assert np.abs(out.amps - expected).max() < 1e-12


def _gate_sequence_oracle(psi_amps: np.ndarray) -> np.ndarray:
    """Dense gate-by-gate oracle for n=1, alpha=2 (two-control Pauli gates)."""
    # ancilla block index j = x + 2z; copies live below the ancilla
    hadamards = np.kron(np.kron(H2, H2), np.eye(4))
    u = hadamards
    for j, q in ((1, X2), (2, Z2), (3, Y2)):
        proj = np.zeros((4, 4))
        proj[j, j] = 1.0
        gate = np.kron(proj, np.kron(q, q)) + np.kron(np.eye(4) - proj, np.eye(4))
        u = gate @ u
    start = np.kron([1, 0, 0, 0], np.kron(psi_amps, psi_amps))
    return u @ start


@pytest.mark.parametrize("seed", [0, 1])
def test_cpp_uniform_ancilla_matches_gate_oracle(seed):
    psi = zero_state(1) if seed == 0 else random_state(1, seed)
    full = StateVector(4, np.kron([1, 0, 0, 0], np.kron(psi.amps, psi.amps)))
    full = hadamard_layer(full, [2, 3])
    anc, blocks = _canonical_layout(1, 2)
    out = controlled_pauli_power(full, anc, blocks)
    assert np.abs(out.amps - _gate_sequence_oracle(psi.amps)).max() < 1e-12


def test_cpp_uniform_ancilla_zero_input_frozen_amplitudes():
    # 1/2 sum_j |j> (P_j|0>)^(x2): support on indices 0, 7, 8, 15 with the
    # Y branch picking up i^2 = -1
    full = hadamard_layer(
        StateVector(4, np.kron([1, 0, 0, 0], basis_state(2, 0).amps)), [2, 3]
    )
    anc, blocks = _canonical_layout(1, 2)
    out = controlled_pauli_power(full, anc, blocks).amps
    expected = np.zeros(16, dtype=complex)
    expected[[0, 7, 8]] = 0.5
    expected[15] = -0.5
    assert np.abs(out - expected).max() < 1e-12


def test_cpp_unitarity_and_guards():
    psi = random_state(2, 37)
    copies = np.kron(psi.amps, psi.amps)
    full = StateVector(8, np.kron(np.eye(16)[0], copies))
    full = hadamard_layer(full, [4, 5, 6, 7])
    out = controlled_pauli_power(full, ancilla=[4, 5, 6, 7], blocks=[[0, 1], [2, 3]])
    assert abs(np.linalg.norm(out.amps) - 1) < 1e-12
    with pytest.raises(DimensionError):
        controlled_pauli_power(full, ancilla=[4, 5, 6], blocks=[[0, 1], [2, 3]])
    with pytest.raises(DimensionError):
        controlled_pauli_power(full, ancilla=[4, 5, 6, 7], blocks=[[0, 1], [1, 2]])


def _cpp_reference(psi: StateVector, ancilla, blocks) -> np.ndarray:
    """The string-by-string form: one masked phased permutation per ancilla value."""
    n_sub = len(blocks[0])
    idx = np.arange(psi.dim)
    anc_val = np.zeros(psi.dim, dtype=np.int64)
    for a, q in enumerate(ancilla):
        anc_val |= ((idx >> q) & 1) << a
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
        sel = np.flatnonzero(anc_val == j)
        signs = 1.0 - 2.0 * (np.bitwise_count(sel & z_full) & 1)
        out[sel ^ x_full] = phase * signs * psi.amps[sel]
    return out


@pytest.mark.parametrize(
    "n_qubits,ancilla,blocks",
    [
        (4, [2, 3], [[1], [0]]),  # canonical n=1, alpha=2
        (8, [4, 5, 6, 7], [[2, 3], [0, 1]]),  # canonical n=2, alpha=2
        (10, [8, 9], [[7], [6], [5], [4], [3], [2], [1], [0]]),  # canonical n=1, alpha=8
        (3, [1, 2], [[0]]),
        (4, [0, 3], [[2], [1]]),
        # interleaved n=2, alpha=2: ancilla and block qubits alternate
        (8, [1, 3, 5, 7], [[0, 2], [6, 4]]),
    ],
)
def test_cpp_matches_string_by_string_reference(n_qubits, ancilla, blocks):
    psi = random_state(n_qubits, 43 + n_qubits)
    out = controlled_pauli_power(psi, ancilla, blocks)
    assert np.array_equal(out.amps, _cpp_reference(psi, ancilla, blocks))


def test_apply_pauli_dimension_check():
    with pytest.raises(DimensionError):
        apply_pauli(pauli_from_index(2, 1), zero_state(1))


def test_phase_state_is_normalized_plus_like():
    psi = phase_state(0.0)
    assert np.abs(psi.amps - np.array([1, 1]) / math.sqrt(2)).max() < 1e-12
