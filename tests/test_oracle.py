"""Exact SRE oracle tests.

A_alpha values are cross-checked against a brute-force dense Pauli sum built
from literal matrices in this file, and the closed form is verified on a
theta grid.  The canonical enumeration order is I, X, Z, Y; expectations
quoted in (I, X, Y, Z) order elsewhere are re-annotated accordingly.
"""

import itertools
import math

import numpy as np
import pytest

from sre_purity.clifford import (
    apply_circuit,
    haar_random_state,
    random_clifford_circuit,
    random_clifford_state,
    single_qubit_stabilizer_states,
)
from sre_purity.oracle import (
    a_alpha_exact,
    a_alpha_of,
    characteristic_distribution,
    closed_form_a,
    m_alpha_exact,
    pauli_expectations,
)
from sre_purity.paulis import pauli_from_index
from sre_purity.states import StateVector, phase_state, zero_state

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)


def brute_force_a(amps: np.ndarray, alpha: int) -> float:
    """Dense oracle: d^{-1} sum over all literal Pauli strings of <P>^{2a}."""
    n = int(math.log2(len(amps)))
    total = 0.0
    for factors in itertools.product([I2, X2, Y2, Z2], repeat=n):
        mat = np.eye(1, dtype=complex)
        for f in factors:
            mat = np.kron(mat, f)
        total += np.vdot(amps, mat @ amps).real ** (2 * alpha)
    return total / 2**n


def test_characteristic_distribution_zero_state():
    probs = characteristic_distribution(zero_state(1))
    # (I, X, Z, Y) canonical order: weight on I and Z only
    assert np.abs(probs - np.array([0.5, 0.0, 0.5, 0.0])).max() < 1e-12


def test_characteristic_distribution_pi_over_4():
    probs = characteristic_distribution(phase_state(math.pi / 4))
    # quoted {1/2, 1/4, 1/4, 0} over (I, X, Y, Z) -> canonical (I, X, Z, Y)
    assert np.abs(probs - np.array([0.5, 0.25, 0.0, 0.25])).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_characteristic_distribution_normalized(n):
    rng = np.random.default_rng(50 + n)
    for _ in range(20):
        probs = characteristic_distribution(haar_random_state(n, rng))
        assert abs(probs.sum() - 1.0) < 1e-10
        assert probs.min() > -1e-12


def test_characteristic_distribution_is_read_only():
    probs = characteristic_distribution(phase_state(math.pi / 4))
    with pytest.raises(ValueError):
        probs[0] = 1.0


def test_a_alpha_one_is_unity():
    rng = np.random.default_rng(3)
    for n in (1, 2):
        psi = haar_random_state(n, rng)
        assert a_alpha_exact(psi, 1) == pytest.approx(1.0, abs=1e-12)


def test_a_alpha_stabilizer_is_unity():
    for alpha in (1, 2, 3, 5):
        assert a_alpha_exact(zero_state(1), alpha) == pytest.approx(1.0, abs=1e-12)


def test_a_alpha_pi_over_4_against_brute_force():
    psi = phase_state(math.pi / 4)
    oracle = brute_force_a(psi.amps, 2)
    assert oracle == pytest.approx(0.75, abs=1e-12)
    assert a_alpha_exact(psi, 2) == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("n,alpha", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_a_alpha_matches_brute_force_on_haar(n, alpha):
    rng = np.random.default_rng(60 + n + alpha)
    psi = haar_random_state(n, rng)
    assert a_alpha_exact(psi, alpha) == pytest.approx(
        brute_force_a(psi.amps, alpha), abs=1e-12
    )


def test_a_alpha_of_expectations_equals_a_alpha_exact():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        psi = haar_random_state(n, rng)
        e = pauli_expectations(psi)
        for alpha in (1, 2, 3, 5):
            assert a_alpha_of(e, alpha) == a_alpha_exact(psi, alpha)


def test_m_alpha_examples():
    plus = single_qubit_stabilizer_states()["+"]
    assert m_alpha_exact(plus, 2) == pytest.approx(0.0, abs=1e-12)
    assert m_alpha_exact(phase_state(math.pi / 4), 2) == pytest.approx(
        math.log(4 / 3), abs=1e-12
    )
    with pytest.raises(ValueError):
        m_alpha_exact(plus, 1)


def test_m_alpha_additive_under_tensor_product():
    rng = np.random.default_rng(71)
    for _ in range(20):
        a = haar_random_state(1, rng)
        b = haar_random_state(int(rng.integers(1, 3)), rng)
        prod = StateVector(a.n + b.n, np.kron(a.amps, b.amps))
        for alpha in (2, 3):
            assert m_alpha_exact(prod, alpha) == pytest.approx(
                m_alpha_exact(a, alpha) + m_alpha_exact(b, alpha), abs=1e-10
            )


def test_closed_form_endpoints_and_grid():
    for alpha in (1, 2, 3, 5, 7):
        assert closed_form_a(0.0, alpha) == pytest.approx(1.0, abs=1e-12)
        assert closed_form_a(math.pi / 2, alpha) == pytest.approx(1.0, abs=1e-12)
    assert closed_form_a(math.pi / 4, 2) == pytest.approx(0.75, abs=1e-12)
    for theta in np.linspace(0, math.pi / 2, 32):
        for alpha in (1, 2, 3, 5):
            assert closed_form_a(theta, alpha) == pytest.approx(
                a_alpha_exact(phase_state(theta), alpha), abs=1e-12
            )


def test_pi_over_2_state_is_stabilizer():
    # the +1 eigenstate of Y (canonical string 3), so it has no magic
    psi = phase_state(math.pi / 2)
    assert np.abs(pauli_from_index(1, 3).to_dense() @ psi.amps - psi.amps).max() < 1e-12
    for alpha in (2, 3, 5):
        assert m_alpha_exact(psi, alpha) < 1e-12


def test_is_stabilizer_examples():
    # M_alpha vanishes exactly on stabilizer states (faithfulness), at n = 2 too
    assert m_alpha_exact(zero_state(1), 2) < 1e-12
    assert m_alpha_exact(phase_state(math.pi / 4), 2) > 1e-3
    rng = np.random.default_rng(81)
    for _ in range(10):
        assert m_alpha_exact(random_clifford_state(2, rng), 2) < 1e-12
        assert m_alpha_exact(haar_random_state(2, rng), 2) > 1e-3


def test_faithfulness_on_single_qubit_stabilizers():
    for name, psi in single_qubit_stabilizer_states().items():
        assert m_alpha_exact(psi, 2) < 1e-12, name
    for theta in (0.3, 0.9, 1.2):
        assert m_alpha_exact(phase_state(theta), 2) > 1e-3


def test_clifford_invariance():
    rng = np.random.default_rng(91)
    for _ in range(20):
        n = int(rng.integers(1, 3))
        psi = haar_random_state(n, rng)
        circ = random_clifford_circuit(n, rng)
        moved = apply_circuit(psi, circ)
        for alpha in (2, 3):
            assert m_alpha_exact(moved, alpha) == pytest.approx(
                m_alpha_exact(psi, alpha), abs=1e-10
            )


def test_exports_insensitive_to_enumeration_order():
    """A_alpha and the stabilizer test depend on the distribution only as a
    multiset, so any re-enumeration of the strings leaves them unchanged."""
    rng = np.random.default_rng(101)
    psi = haar_random_state(2, rng)
    probs = characteristic_distribution(psi)
    d = psi.dim
    for alpha in (1, 2, 3):
        reference = a_alpha_exact(psi, alpha)
        for _ in range(5):
            shuffled = rng.permutation(probs)
            recomputed = float(d ** (alpha - 1) * np.sum(shuffled**alpha))
            assert recomputed == pytest.approx(reference, abs=1e-12)
