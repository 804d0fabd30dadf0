"""Pauli-string algebra tests.

The ground truth is a dense-matrix oracle built in this file from literal
2x2 matrices; the strings' dense forms are checked against it exhaustively
for n <= 2, and their products against the XOR of the masks.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sre_purity.errors import DimensionError, SizeGuardError
from sre_purity.paulis import (
    PauliString,
    apply_pauli_amps,
    enumerate_paulis,
    expval,
    pauli_from_index,
    pauli_images,
    pauli_labels,
)

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
LITERAL = {"I": I2, "X": X2, "Y": Y2, "Z": Z2}


def dense_from_label(label: str) -> np.ndarray:
    """Independent dense oracle; qubit 0 is the least-significant index bit."""
    mat = np.eye(1, dtype=complex)
    for ch in reversed(label):  # most-significant qubit first in the kron
        mat = np.kron(mat, LITERAL[ch])
    return mat


def test_enumeration_order_n1():
    labels = [p.label() for p in enumerate_paulis(1)]
    assert labels == ["I", "X", "Z", "Y"]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_labels_from_index_match_strings(n):
    assert pauli_labels(n) == [p.label() for p in enumerate_paulis(n)]


def test_enumeration_count_n2():
    strings = enumerate_paulis(2)
    assert len(strings) == 16
    assert len({(p.x_bits, p.z_bits) for p in strings}) == 16
    assert np.array_equal(strings[0].to_dense(), np.eye(4))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumerated_strings_hermitian_involutions(n):
    eye = np.eye(2**n)
    for p in enumerate_paulis(n):
        dense = p.to_dense()
        assert np.abs(dense - dense.conj().T).max() < 1e-12
        assert np.abs(dense @ dense - eye).max() < 1e-12


def test_to_dense_matches_literal_oracle():
    for n in (1, 2):
        for p in enumerate_paulis(n):
            assert np.abs(p.to_dense() - dense_from_label(p.label())).max() < 1e-12


def product_string(a: PauliString, b: PauliString) -> tuple[PauliString, complex]:
    """The canonical string P with masks x_a ^ x_b, z_a ^ z_b and the c with P_a P_b = c P."""
    base = pauli_from_index(a.n, (a.x_bits ^ b.x_bits) | (a.z_bits ^ b.z_bits) << a.n)
    dense = a.to_dense() @ b.to_dense()
    phase = np.trace(base.to_dense().conj().T @ dense) / 2**a.n
    assert np.abs(dense - phase * base.to_dense()).max() < 1e-12
    return base, phase


def test_mul_x_times_y_is_i_z():
    _, x, z, y = enumerate_paulis(1)
    assert np.abs(x.to_dense() @ y.to_dense() - 1j * z.to_dense()).max() < 1e-12
    base, phase = product_string(x, y)
    assert (base.x_bits, base.z_bits) == (z.x_bits, z.z_bits)
    assert abs(phase - 1j) < 1e-12


def test_mul_involution():
    # X applied twice to an amplitude vector gives the vector back
    _, x, _, _ = enumerate_paulis(1)
    amps = np.array([0.6, 0.8j])
    assert np.abs(apply_pauli_amps(x, apply_pauli_amps(x, amps)) - amps).max() < 1e-15


def test_mul_two_qubit_example_against_dense_oracle():
    # X on qubit 0, Z on qubit 1 times Y on qubit 0, Z on qubit 1 -> i * (Z x I)
    a = PauliString(2, x_bits=0b01, z_bits=0b10)
    b = PauliString(2, x_bits=0b01, z_bits=0b11, phase_exp=1)
    expected = dense_from_label("XZ") @ dense_from_label("YZ")
    assert np.abs(expected - 1j * dense_from_label("ZI")).max() < 1e-12
    assert np.abs(a.to_dense() @ b.to_dense() - expected).max() < 1e-12
    base, phase = product_string(a, b)
    assert (base.x_bits, base.z_bits) == (0b00, 0b01)
    assert abs(phase - 1j) < 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_mul_matches_dense_product_all_pairs(n):
    # the identity the coherent route relies on: P_a P_b is a unit phase times
    # the string with masks x_a ^ x_b and z_a ^ z_b
    strings = enumerate_paulis(n)
    for a, b in itertools.product(strings, strings):
        _, phase = product_string(a, b)
        assert min(abs(phase - 1j**k) for k in range(4)) < 1e-12


def test_mul_dimension_mismatch():
    # a string acts only on an amplitude vector of its own 2^n length
    with pytest.raises(DimensionError):
        apply_pauli_amps(pauli_from_index(1, 1), np.ones(4, dtype=complex))
    with pytest.raises(DimensionError):
        pauli_images(np.ones(3, dtype=complex), [0])


def test_size_guard():
    with pytest.raises(SizeGuardError):
        enumerate_paulis(0)
    with pytest.raises(SizeGuardError):
        PauliString(13, 0, 0)


def test_index_round_trip():
    for n in (1, 2, 3):
        for j in range(4**n):
            p = pauli_from_index(n, j)
            assert p.x_bits | p.z_bits << n == j


# ---------------------------------------------------------------------------
# application to amplitude vectors


def test_apply_basic_actions():
    zero = np.array([1.0, 0.0], dtype=complex)
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    minus = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2)
    _, x, z, y = enumerate_paulis(1)
    assert np.abs(apply_pauli_amps(x, zero) - np.array([0, 1])).max() < 1e-15
    assert np.abs(apply_pauli_amps(y, zero) - np.array([0, 1j])).max() < 1e-15
    assert np.abs(apply_pauli_amps(z, plus) - minus).max() < 1e-15


@pytest.mark.parametrize("n", [1, 2, 3])
def test_apply_matches_dense_and_preserves_norm(n):
    rng = np.random.default_rng(99 + n)
    amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    amps /= np.linalg.norm(amps)
    for p in enumerate_paulis(n):
        out = apply_pauli_amps(p, amps)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12
        assert np.abs(out - dense_from_label(p.label()) @ amps).max() < 1e-12
    images = pauli_images(amps, np.arange(4**n))
    for j, row in enumerate(images):
        assert np.abs(row - pauli_from_index(n, j).to_dense() @ amps).max() < 1e-12


def test_expval_examples():
    zero = np.array([1.0, 0.0], dtype=complex)
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    _, x, z, _ = enumerate_paulis(1)
    assert expval(z, zero) == pytest.approx(1.0, abs=1e-12)
    assert expval(z, plus) == pytest.approx(0.0, abs=1e-12)
    # dense matrix-vector oracle: <psi_{pi/4}|X|psi_{pi/4}> = sqrt(2)/2
    psi = np.array([1.0, np.exp(1j * np.pi / 4)]) / np.sqrt(2)
    oracle = np.vdot(psi, X2 @ psi).real
    assert oracle == pytest.approx(0.7071067811865476, abs=1e-12)
    assert expval(x, psi) == pytest.approx(oracle, abs=1e-12)


# ---------------------------------------------------------------------------
# algebraic properties


def test_expval_rejects_non_hermitian_phase():
    # i*X has a purely imaginary expectation on |+>; the internal-consistency
    # assertion must fire rather than silently discard it
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    skewed = PauliString(1, x_bits=1, z_bits=0, phase_exp=1)
    with pytest.raises(ArithmeticError):
        expval(skewed, plus)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.data())
def test_phase_cancellation(n, data):
    # P_a P_b = +-P_b P_a, so the phases of the two products multiply to 1
    ja = data.draw(st.integers(0, 4**n - 1))
    jb = data.draw(st.integers(0, 4**n - 1))
    a, b = pauli_from_index(n, ja), pauli_from_index(n, jb)
    base_ab, phase_ab = product_string(a, b)
    base_ba, phase_ba = product_string(b, a)
    assert base_ab == base_ba
    assert abs(phase_ab * phase_ba - 1) < 1e-12
    assert min(abs(phase_ab - phase_ba), abs(phase_ab + phase_ba)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.data())
def test_closure_under_right_multiplication(n, data):
    # right multiplication by P_b permutes the strings up to phase
    jb = data.draw(st.integers(0, 4**n - 1))
    b = pauli_from_index(n, jb)
    images = set()
    for a in enumerate_paulis(n):
        base, _ = product_string(a, b)
        images.add(base.x_bits | base.z_bits << n)
    assert images == set(range(4**n))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_expval_bounded(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    amps /= np.linalg.norm(amps)
    for p in enumerate_paulis(n):
        assert expval(p, amps) ** 2 <= 1.0 + 1e-12
