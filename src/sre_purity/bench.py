"""Benchmarking and comparison machinery: the single-qubit accuracy sweep,
the replica-trick observable, the entanglement identity residual, and the
direct estimators used for sample-complexity comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import PreparationMethod, coherent_prepare, coherent_purity
from .errors import OPERATOR_DIM, SHOTS, check_size
from .estimation import budget_ceil, check_targets, copies_required
from .oracle import (
    _a_alpha,
    a_alpha_exact,
    closed_form_a,
    m_alpha_exact,
    m_from_a,
    pauli_expectations,
)
from .paulis import pauli_from_index
from .pipeline import EstimateReport, EstimationRequest, draw_gamma, route_gamma
from .states import (
    BipartiteSplit,
    StateVector,
    phase_state,
    renyi_entanglement,
    schmidt_spectrum,
    tensor_power,
)

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
    split = BipartiteSplit(
        subsystem_a=tuple(range(alpha * n, (alpha + 2) * n)),
        subsystem_b=tuple(range(alpha * n)),
    )
    e2 = renyi_entanglement(schmidt_spectrum(prepared, split), 2.0)
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
    seed: int = -1,
) -> EstimateReport:
    """Average of per-string +/-1 outcomes of the d^2 strings P_j^{(x)2a}
    measured on |psi>^{(x)2a}; exactly unbiased for A_alpha.

    ``expectations`` is the state's ``oracle.pauli_expectations`` vector.
    """
    check_size("shots", shots_per_string, SHOTS)
    d = math.isqrt(len(expectations))
    k = shots_per_string
    # |<P>| may round above 1; the clip keeps the shot law a distribution
    means = np.minimum(np.abs(expectations), 1.0) ** (2 * alpha)
    successes = rng.binomial(k, 0.5 * (1.0 + means))
    per_string = 2.0 * successes / k - 1.0
    a_hat = float(per_string.sum() / d)
    m_hat = m_from_a(a_hat, alpha) if alpha >= 2 and a_hat > 0 else None
    return EstimateReport(
        gamma_hat=a_hat / d,
        gamma_stderr=float("nan"),
        a_hat=a_hat,
        m_hat=m_hat,
        alpha=alpha,
        shots_used=k,
        copies_used=d * d * k * 2 * alpha,
        seed=seed,
        method="direct_gamma",
        state_spec="",
    )


def direct_single_copy_estimate(
    expectations: np.ndarray,
    alpha: int,
    epsilon: float,
    delta: float,
    rng: np.random.Generator,
    shots_per_string: int | None = None,
    seed: int = -1,
) -> EstimateReport:
    """Estimate every <P_j> from single-copy shots, then d^{-1} sum O_j^{2a}.

    ``expectations`` is the state's ``oracle.pauli_expectations`` vector.  The
    per-string error target tau = epsilon/(2 alpha d) keeps the
    post-processed power sum within epsilon.
    """
    d = math.isqrt(len(expectations))
    if shots_per_string is None:
        # tau^-2 delta^-1 with tau = epsilon/(2 alpha d)
        shots_per_string = budget_ceil((2 * alpha * d) ** 2, epsilon, delta)
    check_size("shots", shots_per_string, SHOTS)
    k = shots_per_string
    successes = rng.binomial(k, np.clip(0.5 * (1.0 + expectations), 0.0, 1.0))
    o_j = 2.0 * successes / k - 1.0
    a_hat = float(np.sum(o_j ** (2 * alpha)) / d)
    m_hat = m_from_a(a_hat, alpha) if alpha >= 2 and a_hat > 0 else None
    return EstimateReport(
        gamma_hat=a_hat / d,
        gamma_stderr=float("nan"),
        a_hat=a_hat,
        m_hat=m_hat,
        alpha=alpha,
        shots_used=k,
        copies_used=d * d * k,
        seed=seed,
        method="direct_single_copy",
        state_spec="",
    )


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

    The state's 4^n Pauli expectations are evaluated once per table: they
    give every alpha's exact A_alpha and feed both direct estimators.
    swap_purity computes its route's gamma once per alpha and its budget once
    per (alpha, epsilon); each seed is then one swap-test draw from gamma,
    exactly as ``run_estimation`` would make.
    """
    known = ("swap_purity", "direct_gamma", "direct_single_copy")
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    if min(len(methods), len(alphas), len(epsilons)) == 0:
        raise ValueError("nothing to compute: no methods, alphas or epsilons")
    for epsilon in epsilons:
        budget_ceil(1, epsilon, delta)  # refuses a non-positive or non-finite target
    for method in methods:
        if method not in known:
            raise ValueError(f"unknown method {method!r}")
    for alpha in alphas:
        if alpha < 1:
            raise ValueError(f"alpha must be >= 1, got {alpha}")
    d = state.dim
    expectations = pauli_expectations(state)
    rows = []
    for method in methods:
        index = known.index(method)
        for alpha in alphas:
            exact = _a_alpha(expectations, d, alpha)
            if method == "swap_purity":
                # the budgets refuse a target outside (0, 1] before the route runs
                swap_shots = [copies_required(alpha, d, eps, delta).swap_shots for eps in epsilons]
                gamma = coherent_purity(state, alpha)
            for ei, epsilon in enumerate(epsilons):
                key = (index, int(alpha), ei)
                seeds = [_task_seed(master_seed, key + (s,)) for s in range(n_seeds)]
                if method == "swap_purity":
                    shots = swap_shots[ei]
                    a_hats = [d * draw_gamma(gamma, shots, ts)[0] for ts in seeds]
                    copies = 2 * alpha * shots
                else:
                    if method == "direct_gamma":
                        k = budget_ceil(1, epsilon, delta)
                        reps = [direct_gamma_estimate(expectations, alpha, k, _rng(ts), seed=ts)
                                for ts in seeds]
                    else:
                        reps = [direct_single_copy_estimate(expectations, alpha, epsilon, delta,
                                                            _rng(ts), seed=ts) for ts in seeds]
                    a_hats = [rep.a_hat for rep in reps]
                    copies = reps[0].copies_used
                errs = [a_hat - exact for a_hat in a_hats]
                rmse = float(np.sqrt(np.mean(np.square(errs))))
                rows.append(ComplexityRow(method, int(alpha), float(epsilon), copies, rmse))
    return rows


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed))
