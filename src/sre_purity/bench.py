"""Benchmarking and comparison machinery: the single-qubit accuracy sweep,
the replica-trick observable, the entanglement identity residual, and the
direct estimators used for sample-complexity comparisons.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .channels import PreparationMethod, coherent_prepare
from .errors import (OPERATOR_DIM, SHOTS, TABLE_DRAWS, check_alpha, check_seed, check_size,
                     check_targets)
from .estimation import budget_ceil, copies_required, estimate_purity
from .oracle import a_alpha_exact, a_alpha_of, closed_form_a, m_alpha_exact, pauli_expectations
from .pipeline import check_coherent_size, route_gammas
from .states import StateVector, phase_state, renyi_entanglement, schmidt_spectrum, tensor_power

# ---------------------------------------------------------------------------
# replica-trick observable


def build_gamma(alpha: int) -> np.ndarray:
    """Gamma_alpha = (1/2) sum_i Q_i^{(x) 2 alpha} over the four qubit Paulis, as a
    read-only real symmetric ndarray; <psi^{(x)2a}| Gamma^{(x)n} |psi^{(x)2a}> = A_alpha.

    Built from index masks: I and Z^{(x)m} give the diagonal (1 + (-1)^|b|)/2,
    and X^{(x)m} and Y^{(x)m} = (-1)^alpha (XZ)^{(x)m} the entry
    (1 + (-1)^(alpha + |b|))/2 at (b xor (2^m - 1), b).
    """
    m = 2 * alpha
    dim = 1 << m
    check_size("operator dimension", dim, OPERATOR_DIM)
    b = np.arange(dim)
    even = (np.bitwise_count(b) & 1) == 0
    gamma = np.zeros((dim, dim))
    gamma[b, b] = even
    gamma[b ^ (dim - 1), b] = even if alpha % 2 == 0 else ~even
    gamma.setflags(write=False)
    return gamma


def gamma_tensor_max_abs_eig(alpha: int, n: int) -> float:
    """Largest |eigenvalue| of Gamma_alpha^{(x) n} (spectrum of a tensor power
    is the set of eigenvalue products)."""
    eigs = np.linalg.eigvalsh(build_gamma(alpha))
    return float(np.abs(eigs).max() ** n)


def replica_expectation(psi: StateVector, alpha: int) -> float:
    """<psi^{(x)2a}| Gamma_alpha^{(x)n} |psi^{(x)2a}> by explicit contraction.

    Gamma acts on the 2 alpha copies of each input qubit, so the contraction
    permutes copy-major amplitudes into qubit-major groups; this stays
    independent of the Pauli-sum route used by the exact oracle.
    """
    n = psi.n
    copies = 2 * alpha
    big = tensor_power(psi, copies)  # guards copies * n <= 20
    gamma = build_gamma(alpha)
    v = big.amps.reshape((2,) * (copies * n))
    front = list(range(copies))
    for q in range(n):
        # tensor axis of (copy c, qubit q) is c*n + (n-1-q)
        axes_q = [c * n + (n - 1 - q) for c in range(copies)]
        moved = np.moveaxis(v, axes_q, front)
        shape = moved.shape
        flat = moved.reshape(1 << copies, -1)
        v = np.moveaxis((gamma @ flat).reshape(shape), front, axes_q)
    val = complex(np.vdot(big.amps, v.reshape(-1)))
    if abs(val.imag) > 1e-10:
        raise ArithmeticError(f"replica expectation has imaginary part {val.imag:.3e}")
    return val.real


# ---------------------------------------------------------------------------
# entanglement identity


def entanglement_identity_residual(psi: StateVector, alpha: int) -> float:
    """|(1-alpha) M_alpha + E_2(prepared, ancilla|copies split) - ln d|."""
    n = psi.n
    prepared = coherent_prepare(psi, alpha)
    ancilla = range(alpha * n, (alpha + 2) * n)
    e2 = renyi_entanglement(schmidt_spectrum(prepared, ancilla), 2.0)
    if alpha >= 2:
        lhs = (1 - alpha) * m_alpha_exact(psi, alpha) + e2
    else:
        lhs = math.log(a_alpha_exact(psi, alpha)) + e2
    return abs(lhs - n * math.log(2))


# ---------------------------------------------------------------------------
# single-qubit accuracy sweep


class SweepRow(NamedTuple):
    """One row of the sweep table, its fields in the table's column order."""

    theta: float
    alpha: int
    a_hat: float
    a_exact: float
    abs_error: float
    copies_used: int
    seed: int
    within_eps: bool


# O'Neill's seed_seq hash as numpy's SeedSequence runs it: a pool of four
# 32-bit words, the entropy hashed in and mixed, the state hashed out
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _int_words(value: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence reads an int as ([0] for 0)."""
    check_seed(value)
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _pools(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence's pool for each row of a uint32 ``entropy`` matrix of at
    least four columns (shorter entropy is padded with zeros, which hash the
    same as the pool's unfilled words)."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const  # uint32 arrays wrap mod 2^32
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * _MIX_L - y * _MIX_R
        return result ^ (result >> 16)

    pool = [hashmix(entropy[:, i]) for i in range(_POOL)]
    for i_src in range(_POOL):
        for i_dst in range(_POOL):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(_POOL, entropy.shape[1]):
        for i_dst in range(_POOL):
            pool[i_dst] = mix(pool[i_dst], hashmix(entropy[:, i_src]))
    return np.stack(pool, axis=1)


def _generate_state(pool: np.ndarray, n_words: int) -> np.ndarray:
    """SeedSequence.generate_state(n_words, uint64) for each row's pool."""
    hash_const = _INIT_B
    out = np.empty((len(pool), 2 * n_words), np.uint64)
    for i in range(2 * n_words):
        value = pool[:, i % _POOL] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        out[:, i] = value ^ (value >> 16)
    return out[:, 0::2] | out[:, 1::2] << np.uint64(32)


class _StateWords(ISeedSequence):
    """A seed sequence whose generator state is already derived: the four
    uint64 words ``PCG64`` asks ``generate_state`` for."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _task_streams(master_seed: int, keys, n_seeds: int) -> tuple[np.ndarray, np.ndarray]:
    """(task seeds, PCG64 words) of the rows ``key + (s,)``, key-major, for
    every key of ``keys`` and s < n_seeds.

    Row r's task seed is ``SeedSequence(master_seed, spawn_key=key + (s,))``'s
    first uint64 and its words are ``SeedSequence(task_seed)``'s four, so
    ``Generator(PCG64(_StateWords(words[r])))`` is
    ``default_rng(SeedSequence(task_seed))``, the stream ``run_estimation``
    draws from.  Both hashes run once over the table as uint32 array arithmetic;
    rows are grouped by the word count of their key (an alpha >= 2^32 has
    more words).  ``n_seeds`` stays below 2^32 (the table guard), so s is
    one word.
    """
    master = _int_words(master_seed)
    master += [0] * (_POOL - len(master))  # SeedSequence pads the entropy before a spawn key
    key_words = [[w for part in key for w in _int_words(part)] for key in keys]
    seeds = np.empty((len(keys), n_seeds), np.uint64)
    for width in sorted({len(words) for words in key_words}):
        picked = [i for i, words in enumerate(key_words) if len(words) == width]
        prefix = np.array([master + key_words[i] for i in picked], np.uint32)
        counter = np.tile(np.arange(n_seeds, dtype=np.uint32), len(picked))
        entropy = np.column_stack([np.repeat(prefix, n_seeds, axis=0), counter])
        seeds[picked] = _generate_state(_pools(entropy), 1).reshape(len(picked), n_seeds)
    seeds = seeds.reshape(-1)
    # a task seed's entropy is its low and high words (zeros pad as above)
    entropy = np.zeros((len(seeds), _POOL), np.uint32)
    entropy[:, 0] = seeds & _MASK32
    entropy[:, 1] = seeds >> np.uint64(32)
    return seeds, _generate_state(_pools(entropy), 4)


def _table_rngs(master_seed: int, keys, n_seeds: int):
    """The generator of every row of ``_task_streams``, in row order."""
    _, words = _task_streams(master_seed, keys, n_seeds)
    for row in words:
        yield np.random.Generator(np.random.PCG64(_StateWords(row)))


def sweep_theta(
    alphas,
    theta_grid,
    epsilon: float,
    delta: float,
    n_seeds: int,
    method: PreparationMethod = PreparationMethod.COHERENT,
    master_seed: int = 0,
) -> list[SweepRow]:
    """One estimation run per (theta, alpha, seed) at the full copy budget.

    The table's size is checked before any row.  The budget is computed once
    per alpha (every theta is one qubit), the route's gamma for every alpha
    at once per theta (one oracle call), and every row's stream in one pass;
    each seed is then one swap-test draw, exactly as ``run_estimation`` would
    make it.
    """
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    if min(len(alphas), len(theta_grid)) == 0:
        raise ValueError("nothing to sweep: no alphas or no theta values")
    check_targets(epsilon, delta)
    check_size("table draws", len(alphas) * len(theta_grid) * n_seeds, TABLE_DRAWS)
    for alpha in alphas:
        check_alpha(alpha)
    shots = [copies_required(alpha, 2, epsilon, delta).swap_shots for alpha in alphas]
    gammas = [route_gammas(phase_state(theta), alphas, method) for theta in theta_grid]
    keys = [(int(alpha), ti) for alpha in alphas for ti in range(len(theta_grid))]
    rngs = _table_rngs(master_seed, keys, n_seeds)
    rows = []
    for ai, alpha in enumerate(alphas):
        alpha, shot_count = int(alpha), shots[ai]
        copies = 2 * alpha * shot_count
        for ti, theta in enumerate(theta_grid):
            theta = float(theta)
            exact = closed_form_a(theta, alpha)
            gamma = gammas[ti][ai]
            for s in range(n_seeds):
                a_hat = 2 * estimate_purity(gamma, shot_count, next(rngs))[0]
                err = abs(a_hat - exact)
                rows.append(SweepRow(theta, alpha, a_hat, exact, err, copies, s, err <= epsilon))
    return rows


# ---------------------------------------------------------------------------
# direct estimators (comparison baselines)


def direct_gamma_estimate(
    expectations: np.ndarray,
    alpha: int,
    shots_per_string: int,
    rng: np.random.Generator,
) -> tuple[float, int]:
    """(a_hat, copies): the average of per-string +/-1 outcomes of the d^2
    strings P_j^{(x)2a} measured on |psi>^{(x)2a}; exactly unbiased for A_alpha.

    ``expectations`` is the state's ``oracle.pauli_expectations`` vector.
    """
    check_size("shots", shots_per_string, SHOTS)
    d = math.isqrt(len(expectations))
    k = shots_per_string
    # |<P>| may round above 1; the clip keeps the shot law a distribution
    means = np.minimum(np.abs(expectations), 1.0) ** (2 * alpha)
    successes = rng.binomial(k, 0.5 * (1.0 + means))
    per_string = 2.0 * successes / k - 1.0
    return float(per_string.sum() / d), d * d * k * 2 * alpha


def _single_copy_shots(alpha: int, d: int, epsilon: float, delta: float) -> int:
    """tau^-2 delta^-1 shots per string, with tau = epsilon/(2 alpha d)."""
    return budget_ceil((2 * alpha * d) ** 2, epsilon, delta)


def direct_single_copy_estimate(
    expectations: np.ndarray,
    alpha: int,
    epsilon: float,
    delta: float,
    rng: np.random.Generator,
    shots_per_string: int | None = None,
) -> tuple[float, int]:
    """(a_hat, copies): every <P_j> estimated from single-copy shots, then
    d^{-1} sum O_j^{2a}.

    ``expectations`` is the state's ``oracle.pauli_expectations`` vector.  The
    per-string error target tau = epsilon/(2 alpha d) keeps the
    post-processed power sum within epsilon.
    """
    d = math.isqrt(len(expectations))
    if shots_per_string is None:
        shots_per_string = _single_copy_shots(alpha, d, epsilon, delta)
    check_size("shots", shots_per_string, SHOTS)
    k = shots_per_string
    successes = rng.binomial(k, np.clip(0.5 * (1.0 + expectations), 0.0, 1.0))
    o_j = 2.0 * successes / k - 1.0
    return float(np.sum(o_j ** (2 * alpha)) / d), d * d * k


# ---------------------------------------------------------------------------
# sample-complexity table


class ComplexityRow(NamedTuple):
    """One row of the complexity table, its fields in the table's column order."""

    method: str
    alpha: int
    epsilon_target: float
    copies: int
    empirical_rmse: float


def complexity_table(
    methods,
    alphas,
    epsilons,
    n_seeds: int,
    state: StateVector,
    delta: float = 0.1,
    master_seed: int = 0,
) -> list[ComplexityRow]:
    """Empirical RMSE of each method at its prescribed budget for the target error.

    Every target, method and alpha is checked before any work; the coherent
    route's ancilla guard (for swap_purity) and the table's draw count (d^2
    per seed for a direct estimator) are checked before the oracle runs.  The
    state's 4^n Pauli expectations are then evaluated once per table: they
    give every alpha's exact A_alpha, which is d times the coherent route's
    gamma, and feed both direct estimators.  Every row's stream is derived in
    one pass and each row computes its method's budget once; each seed is
    then one draw, for swap_purity exactly the one ``run_estimation`` would
    make.
    """
    known = ("swap_purity", "direct_gamma", "direct_single_copy")
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    if min(len(methods), len(alphas), len(epsilons)) == 0:
        raise ValueError("nothing to compute: no methods, alphas or epsilons")
    for epsilon in epsilons:
        check_targets(epsilon, delta)
    for method in methods:
        if method not in known:
            raise ValueError(f"unknown method {method!r}")
    for alpha in alphas:
        check_alpha(alpha)
    d = state.dim
    if "swap_purity" in methods:
        check_coherent_size(state)
    per_row = sum(1 if method == "swap_purity" else d * d for method in methods)
    check_size("table draws", per_row * len(alphas) * len(epsilons) * n_seeds, TABLE_DRAWS)
    expectations = pauli_expectations(state)
    keys = [(known.index(method), int(alpha), ei)
            for method in methods for alpha in alphas for ei in range(len(epsilons))]
    rngs = _table_rngs(master_seed, keys, n_seeds)
    rows = []
    for method in methods:
        for alpha in alphas:
            exact = a_alpha_of(expectations, alpha)
            for epsilon in epsilons:
                row_rngs = itertools.islice(rngs, n_seeds)
                if method == "swap_purity":
                    shots = copies_required(alpha, d, epsilon, delta).swap_shots
                    a_hats = [d * estimate_purity(exact / d, shots, rng)[0] for rng in row_rngs]
                    copies = 2 * alpha * shots
                else:
                    if method == "direct_gamma":
                        k = budget_ceil(1, epsilon, delta)
                        runs = [direct_gamma_estimate(expectations, alpha, k, rng)
                                for rng in row_rngs]
                    else:
                        k = _single_copy_shots(alpha, d, epsilon, delta)
                        runs = [direct_single_copy_estimate(expectations, alpha, epsilon, delta,
                                                            rng, k) for rng in row_rngs]
                    a_hats = [a_hat for a_hat, _ in runs]
                    copies = runs[0][1]
                errs = [a_hat - exact for a_hat in a_hats]
                rmse = float(np.sqrt(np.mean(np.square(errs))))
                rows.append(ComplexityRow(method, int(alpha), float(epsilon), copies, rmse))
    return rows
