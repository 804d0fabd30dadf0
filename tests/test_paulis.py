"""Pauli-string algebra tests.

The ground truth for products is a dense-matrix oracle built in this file
from literal 2x2 matrices; the library's symplectic arithmetic is checked
against it exhaustively for n <= 2.
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
    pauli_mul,
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
    assert strings[0].is_identity()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumerated_strings_hermitian_involutions(n):
    for p in enumerate_paulis(n):
        assert p.is_hermitian()
        assert pauli_mul(p, p).is_identity()


def test_to_dense_matches_literal_oracle():
    for n in (1, 2):
        for p in enumerate_paulis(n):
            assert np.abs(p.to_dense() - dense_from_label(p.label())).max() < 1e-12


def test_mul_x_times_y_is_i_z():
    i_, x, z, y = enumerate_paulis(1)
    prod = pauli_mul(x, y)
    assert (prod.x_bits, prod.z_bits, prod.phase_exp) == (0, 1, 1)


def test_mul_involution():
    _, x, _, _ = enumerate_paulis(1)
    assert pauli_mul(x, x).is_identity()


def test_mul_two_qubit_example_against_dense_oracle():
    # X on qubit 0, Z on qubit 1 times Y on qubit 0, Z on qubit 1 -> i * (Z x I)
    a = PauliString(2, x_bits=0b01, z_bits=0b10)
    b = PauliString(2, x_bits=0b01, z_bits=0b11, phase_exp=1)
    prod = pauli_mul(a, b)
    assert (prod.x_bits, prod.z_bits, prod.phase_exp) == (0b00, 0b01, 1)
    expected = dense_from_label("XZ") @ dense_from_label("YZ")
    assert np.abs(expected - 1j * dense_from_label("ZI")).max() < 1e-12
    assert np.abs(prod.to_dense() - expected).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_mul_matches_dense_product_all_pairs(n):
    strings = enumerate_paulis(n)
    for a, b in itertools.product(strings, strings):
        dense = a.to_dense() @ b.to_dense()
        assert np.abs(pauli_mul(a, b).to_dense() - dense).max() < 1e-12


def test_mul_dimension_mismatch():
    with pytest.raises(DimensionError):
        pauli_mul(pauli_from_index(1, 1), pauli_from_index(2, 1))


def test_size_guard():
    with pytest.raises(SizeGuardError):
        enumerate_paulis(0)
    with pytest.raises(SizeGuardError):
        PauliString(13, 0, 0)


def test_index_round_trip():
    for n in (1, 2, 3):
        for j in range(4**n):
            assert pauli_from_index(n, j).index == j


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
    ja = data.draw(st.integers(0, 4**n - 1))
    jb = data.draw(st.integers(0, 4**n - 1))
    a, b = pauli_from_index(n, ja), pauli_from_index(n, jb)
    round_trip = pauli_mul(pauli_mul(a, b), pauli_mul(b, a))
    assert round_trip.is_identity()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.data())
def test_closure_under_right_multiplication(n, data):
    jb = data.draw(st.integers(0, 4**n - 1))
    b = pauli_from_index(n, jb)
    images = {pauli_mul(a, b).index for a in enumerate_paulis(n)}
    assert images == set(range(4**n))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_expval_bounded(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    amps /= np.linalg.norm(amps)
    for p in enumerate_paulis(n):
        assert expval(p, amps) ** 2 <= 1.0 + 1e-12
