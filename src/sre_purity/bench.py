"""Benchmarking and comparison machinery: the single-qubit accuracy sweep,
the replica-trick observable, the entanglement identity residual, and the
direct estimators used for sample-complexity comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import PreparationMethod, coherent_prepare
from .errors import OPERATOR_DIM, SHOTS, check_size
from .estimation import budget_ceil, check_targets, copies_required
from .oracle import a_alpha_exact, a_alpha_of, closed_form_a, m_alpha_exact, pauli_expectations
from .paulis import pauli_from_index
from .pipeline import EstimationRequest, check_coherent_size, draw_gamma, route_gamma
from .states import StateVector, phase_state, renyi_entanglement, schmidt_spectrum, tensor_power

# ---------------------------------------------------------------------------
# replica-trick observable


def build_gamma(alpha: int) -> np.ndarray:
    """Gamma_alpha = (1/2) sum_i Q_i^{(x) 2 alpha} over the four qubit Paulis, as a
    read-only Hermitian ndarray; <psi^{(x)2a}| Gamma^{(x)n} |psi^{(x)2a}> = A_alpha."""
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    m = 2 * alpha
    check_size("operator dimension", 1 << m, OPERATOR_DIM)
    # Q^{(x) m} is the m-qubit string that repeats Q's x and z bits on every qubit
    ones = (1 << m) - 1
    powers = [pauli_from_index(m, ones * (j & 1) | (ones << m) * (j >> 1)) for j in range(4)]
    gamma = sum(p.to_dense() for p in powers) / 2.0
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


@dataclass(frozen=True)
class SweepRow:
    theta: float
    alpha: int
    a_hat: float
    a_exact: float
    abs_error: float
    copies_used: int
    seed: int
    within_eps: bool


def _task_seed(master_seed: int, key: tuple[int, ...]) -> int:
    """Counter-based per-task stream derivation (documented, platform-independent)."""
    ss = np.random.SeedSequence(master_seed, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])


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

    The budget is computed once per alpha (every theta is one qubit) and the
    route's gamma once per (theta, alpha); each seed is then one swap-test
    draw from it, exactly as ``run_estimation`` would make.
    """
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    if min(len(alphas), len(theta_grid)) == 0:
        raise ValueError("nothing to sweep: no alphas or no theta values")
    check_targets(epsilon, delta)
    rows = []
    for alpha in alphas:
        shots = copies_required(alpha, 2, epsilon, delta).swap_shots
        for ti, theta in enumerate(theta_grid):
            exact = closed_form_a(theta, alpha)
            req = EstimationRequest(phase_state(theta), alpha, epsilon, delta, method, seed=0)
            gamma = route_gamma(req)
            for s in range(n_seeds):
                ts = _task_seed(master_seed, (int(alpha), ti, s))
                a_hat = 2 * draw_gamma(gamma, shots, ts)[0]
                err = abs(a_hat - exact)
                rows.append(
                    SweepRow(
                        theta=float(theta),
                        alpha=int(alpha),
                        a_hat=a_hat,
                        a_exact=exact,
                        abs_error=err,
                        copies_used=2 * alpha * shots,
                        seed=s,
                        within_eps=bool(err <= epsilon),
                    )
                )
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


@dataclass(frozen=True)
class ComplexityRow:
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

    Every target, method and alpha is checked before any work, and the
    coherent route's ancilla guard refuses an oversized state for swap_purity
    before the oracle runs.  The state's 4^n Pauli expectations are then
    evaluated once per table: they give every alpha's exact A_alpha, which is
    d times the coherent route's gamma, and feed both direct estimators.
    Each row computes its method's budget once; each seed is then one draw,
    for swap_purity exactly the one ``run_estimation`` would make.
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
        if alpha < 1:
            raise ValueError(f"alpha must be >= 1, got {alpha}")
    d = state.dim
    if "swap_purity" in methods:
        check_coherent_size(state)
    expectations = pauli_expectations(state)
    rows = []
    for method in methods:
        index = known.index(method)
        for alpha in alphas:
            exact = a_alpha_of(expectations, alpha)
            for ei, epsilon in enumerate(epsilons):
                key = (index, int(alpha), ei)
                seeds = [_task_seed(master_seed, key + (s,)) for s in range(n_seeds)]
                if method == "swap_purity":
                    shots = copies_required(alpha, d, epsilon, delta).swap_shots
                    a_hats = [d * draw_gamma(exact / d, shots, ts)[0] for ts in seeds]
                    copies = 2 * alpha * shots
                else:
                    if method == "direct_gamma":
                        k = budget_ceil(1, epsilon, delta)
                        runs = [direct_gamma_estimate(expectations, alpha, k, _rng(ts))
                                for ts in seeds]
                    else:
                        k = _single_copy_shots(alpha, d, epsilon, delta)
                        runs = [direct_single_copy_estimate(expectations, alpha, epsilon, delta,
                                                            _rng(ts), k) for ts in seeds]
                    a_hats = [a_hat for a_hat, _ in runs]
                    copies = runs[0][1]
                errs = [a_hat - exact for a_hat in a_hats]
                rmse = float(np.sqrt(np.mean(np.square(errs))))
                rows.append(ComplexityRow(method, int(alpha), float(epsilon), copies, rmse))
    return rows


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed))
