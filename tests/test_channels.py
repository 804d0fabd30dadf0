"""Channel preparation tests.

The exact mixture is cross-checked against brute-force dense sums assembled
in this file, and the ancilla marginal against an entrywise dense-trace
computation, both from literal matrices.
"""

import itertools
import math

import numpy as np
import pytest

from sre_purity.channels import (
    PreparationMethod,
    ancilla_marginal,
    ancilla_marginal_of,
    coherent_prepare,
    copies_marginal,
    exact_channel_output,
    incoherent_sample,
)
from sre_purity.clifford import haar_random_state
from sre_purity.errors import SizeGuardError
from sre_purity.estimation import state_overlap
from sre_purity.oracle import a_alpha_exact
from sre_purity.states import (
    partial_trace,
    phase_state,
    purity,
    zero_state,
)

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)


class _FixedDraw:
    """rng stand-in that forces the drawn Pauli index (for exhaustive sums)."""

    def __init__(self, value):
        self.value = value

    def integers(self, hi):
        assert self.value < hi
        return self.value


def _literal_strings(n):
    out = []
    for factors in itertools.product([I2, X2, Y2, Z2], repeat=n):
        mat = np.eye(1, dtype=complex)
        for f in factors:
            mat = np.kron(mat, f)
        out.append(mat)
    return out


def brute_force_channel(amps: np.ndarray, alpha: int) -> np.ndarray:
    """d^{-2} sum_j (P_j psi P_j)^{(x)alpha} with literal dense matrices."""
    n = int(math.log2(len(amps)))
    rho = np.outer(amps, amps.conj())
    dim = len(amps) ** alpha
    out = np.zeros((dim, dim), dtype=complex)
    for p in _literal_strings(n):
        term = p @ rho @ p
        acc = np.eye(1, dtype=complex)
        for _ in range(alpha):
            acc = np.kron(acc, term)
        out += acc
    return out / 4**n


def test_alpha_one_is_maximally_mixed():
    rng = np.random.default_rng(5)
    for n in (1, 2):
        psi = haar_random_state(n, rng)
        out = exact_channel_output(psi, 1)
        assert np.abs(out.mat - np.eye(psi.dim) / psi.dim).max() < 1e-12


def test_zero_state_alpha_two_explicit_mixture():
    out = exact_channel_output(zero_state(1), 2)
    # I and Z fix |0>, X and Y send it to |1> (phases cancel in the mixture)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 0.5
    expected[3, 3] = 0.5
    assert np.abs(out.mat - expected).max() < 1e-12
    assert np.abs(out.mat - brute_force_channel(zero_state(1).amps, 2)).max() < 1e-12


@pytest.mark.parametrize("n,alpha", [(1, 2), (1, 3), (2, 2)])
def test_channel_matches_brute_force(n, alpha):
    rng = np.random.default_rng(10 * n + alpha)
    psi = haar_random_state(n, rng)
    out = exact_channel_output(psi, alpha)
    assert np.abs(out.mat - brute_force_channel(psi.amps, alpha)).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_purity_encodes_a_alpha(n, alpha):
    rng = np.random.default_rng(100 * n + alpha)
    for _ in range(10):
        psi = haar_random_state(n, rng)
        assert psi.dim * purity(exact_channel_output(psi, alpha)) == pytest.approx(
            a_alpha_exact(psi, alpha), abs=1e-10
        )


def test_local_twirl_every_copy_marginal_maximally_mixed():
    rng = np.random.default_rng(41)
    for n, alpha in [(1, 2), (1, 3), (2, 2)]:
        psi = haar_random_state(n, rng)
        out = exact_channel_output(psi, alpha)
        for i in range(1, alpha + 1):
            block = range((alpha - i) * n, (alpha - i + 1) * n)
            marg = partial_trace(out, block)
            assert np.abs(marg.mat - np.eye(psi.dim) / psi.dim).max() < 1e-10


def test_tracing_copies_reduces_alpha():
    rng = np.random.default_rng(43)
    psi = haar_random_state(1, rng)
    out3 = exact_channel_output(psi, 3)
    for kept in (1, 2):
        reduced = partial_trace(out3, range(kept))
        expected = exact_channel_output(psi, kept)
        assert np.abs(reduced.mat - expected.mat).max() < 1e-10


# ---------------------------------------------------------------------------
# coherent preparation


@pytest.mark.parametrize("n,alpha", [(1, 1), (1, 2), (1, 3), (2, 2)])
def test_coherent_copies_marginal_equals_channel(n, alpha):
    rng = np.random.default_rng(20 * n + alpha)
    psi = haar_random_state(n, rng)
    prepared = coherent_prepare(psi, alpha)
    marg = copies_marginal(prepared, n, alpha)
    assert np.abs(marg.mat - exact_channel_output(psi, alpha).mat).max() < 1e-10


def test_coherent_matches_gate_sequence_for_zero_state():
    prepared = coherent_prepare(zero_state(1), 2)
    expected = np.zeros(16, dtype=complex)
    expected[[0, 7, 8]] = 0.5
    expected[15] = -0.5  # Y branch carries i^2
    assert np.abs(prepared.amps - expected).max() < 1e-12


def test_ancilla_marginal_entries_dense_oracle():
    rng = np.random.default_rng(55)
    for n, alpha in [(1, 2), (2, 2)]:
        psi = haar_random_state(n, rng)
        rho = np.outer(psi.amps, psi.amps.conj())
        strings = _literal_strings(n)
        # literal order (I,X,Y,Z) per qubit -> canonical index via label map
        canon = _canonical_permutation(n)
        d2 = len(strings)
        expected = np.empty((d2, d2), dtype=complex)
        for i, j in itertools.product(range(d2), repeat=2):
            expected[canon[i], canon[j]] = (
                np.trace(strings[j] @ strings[i] @ rho) ** alpha
            )
        expected /= psi.dim**2
        assert np.abs(ancilla_marginal(psi, alpha).mat - expected).max() < 1e-12


def _canonical_permutation(n):
    """Map literal (I,X,Y,Z)-base-4 enumeration to the canonical index."""
    single = {0: 0, 1: 1, 2: 3, 3: 2}  # I,X,Y,Z -> (x | z<<1)
    out = []
    for lit in range(4**n):
        x = z = 0
        for q_slot in range(n):
            digit = (lit // 4 ** (n - 1 - q_slot)) % 4
            c = single[digit]
            # literal factor slot s acts on qubit n-1-s (kron MSB first)
            q = n - 1 - q_slot
            x |= (c & 1) << q
            z |= (c >> 1) << q
        out.append(x | (z << n))
    return out


@pytest.mark.parametrize("n,alpha", [(1, 1), (1, 2), (1, 3), (2, 2)])
def test_ancilla_marginal_purity_and_cross_check(n, alpha):
    rng = np.random.default_rng(30 * n + alpha)
    psi = haar_random_state(n, rng)
    anc = ancilla_marginal(psi, alpha)
    assert psi.dim * purity(anc) == pytest.approx(a_alpha_exact(psi, alpha), abs=1e-10)
    prepared = coherent_prepare(psi, alpha)
    assert np.abs(anc.mat - ancilla_marginal_of(prepared, n, alpha).mat).max() < 1e-10


def test_ancilla_marginal_alpha_one_is_maximally_mixed_in_purity():
    rng = np.random.default_rng(61)
    psi = haar_random_state(2, rng)
    assert purity(ancilla_marginal(psi, 1)) == pytest.approx(1 / psi.dim, abs=1e-10)


def test_both_marginals_share_purity():
    rng = np.random.default_rng(62)
    for n, alpha in [(1, 2), (1, 3), (2, 2)]:
        psi = haar_random_state(n, rng)
        prepared = coherent_prepare(psi, alpha)
        pa = purity(ancilla_marginal_of(prepared, n, alpha))
        pb = purity(copies_marginal(prepared, n, alpha))
        assert pa == pytest.approx(pb, abs=1e-10)


# ---------------------------------------------------------------------------
# incoherent preparation


def test_incoherent_identity_draw_leaves_state():
    psi = phase_state(0.7)
    sample = incoherent_sample(psi, 2, _FixedDraw(0))
    assert np.abs(sample.amps - np.kron(psi.amps, psi.amps)).max() < 1e-12


def test_incoherent_exhaustive_average_is_channel_output():
    psi = phase_state(1.1)
    alpha, d2 = 2, 4
    acc = np.zeros((4, 4), dtype=complex)
    for j in range(d2):
        sample = incoherent_sample(psi, alpha, _FixedDraw(j))
        assert purity_of_pure(sample.amps) == pytest.approx(1.0, abs=1e-12)
        acc += np.outer(sample.amps, sample.amps.conj())
    acc /= d2
    assert np.abs(acc - exact_channel_output(psi, alpha).mat).max() < 1e-12


@pytest.mark.parametrize("n,alpha", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_incoherent_pair_overlap_mean_is_a_alpha_over_d(n, alpha):
    # a swap-test shot on two independent incoherent samples is 0 with
    # probability (1 + overlap)/2; averaged over every pair of drawn strings
    # the overlap is A_alpha/d, the purity the incoherent route samples from
    psi = haar_random_state(n, np.random.default_rng(10 * n + alpha))
    samples = [incoherent_sample(psi, alpha, _FixedDraw(j)) for j in range(4**n)]
    mean = np.mean([state_overlap(a, b) for a in samples for b in samples])
    assert abs(mean - a_alpha_exact(psi, alpha) / psi.dim) < 1e-12


def purity_of_pure(amps):
    return float(np.vdot(amps, amps).real ** 2)


def test_incoherent_sample_exposes_no_index():
    sample = incoherent_sample(phase_state(0.3), 2, np.random.default_rng(0))
    assert not hasattr(sample, "index")
    assert not hasattr(sample, "pauli_index")


def test_preparation_method_enum_is_exhaustive():
    assert {m.value for m in PreparationMethod} == {
        "exact_mixture",
        "coherent",
        "incoherent",
    }


def test_size_guards():
    with pytest.raises(SizeGuardError):
        exact_channel_output(zero_state(3), 5)  # 2^15 > dense guard
    with pytest.raises(SizeGuardError):
        coherent_prepare(zero_state(3), 6)  # 24 qubits > pure guard
