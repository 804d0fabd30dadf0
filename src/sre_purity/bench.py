"""Benchmarking and comparison machinery: the single-qubit accuracy sweep,
the replica-trick observable, the entanglement identity residual, and the
direct estimators used for sample-complexity comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channels import PreparationMethod, coherent_prepare
from .errors import SizeGuardError
from .estimation import ceil_with_guard
from .oracle import a_alpha_exact, closed_form_a, m_alpha_exact, pauli_expectations
from .pipeline import (
    EstimateReport,
    EstimationRequest,
    estimate_from_gamma,
    m_from_a,
    route_gamma,
)
from .states import (
    BipartiteSplit,
    StateVector,
    phase_state,
    renyi_entanglement,
    schmidt_spectrum,
    tensor_power,
)

_PAULI_2X2 = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


# ---------------------------------------------------------------------------
# replica-trick observable


@dataclass(frozen=True, eq=False)
class ReplicaObservable:
    """Hermitian operator on 2 alpha qubits whose n-fold tensor power has
    expectation A_alpha on 2 alpha state copies."""

    alpha: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.ascontiguousarray(self.matrix)
        if np.abs(mat - mat.conj().T).max() > 1e-12:
            raise ValueError("replica observable must be Hermitian")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


def build_gamma(alpha: int) -> ReplicaObservable:
    """Gamma_alpha = (1/2) sum_i Q_i^{(x) 2 alpha} over the four qubit Paulis."""
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    if 2 * alpha > 10:
        raise SizeGuardError(f"dense replica operator needs 2*alpha <= 10, got {2 * alpha}")
    dim = 1 << (2 * alpha)
    mat = np.zeros((dim, dim), dtype=complex)
    for q in _PAULI_2X2:
        term = np.eye(1, dtype=complex)
        for _ in range(2 * alpha):
            term = np.kron(term, q)
        mat += term
    return ReplicaObservable(alpha, mat / 2.0)


def gamma_tensor_max_abs_eig(alpha: int, n: int) -> float:
    """Largest |eigenvalue| of Gamma_alpha^{(x) n} (spectrum of a tensor power
    is the set of eigenvalue products)."""
    eigs = np.linalg.eigvalsh(build_gamma(alpha).matrix)
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
    gamma = build_gamma(alpha).matrix
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

    The route's gamma is computed once per (theta, alpha); each seed is then
    one swap-test draw from it, exactly as ``run_estimation`` would make.
    """
    rows = []
    for alpha in alphas:
        for ti, theta in enumerate(theta_grid):
            exact = closed_form_a(theta, alpha)
            base = EstimationRequest(
                state=phase_state(theta),
                alpha=alpha,
                epsilon=epsilon,
                delta=delta,
                method=method,
                seed=0,
                state_spec=f"theta:{theta!r}",
            )
            gamma = route_gamma(base)
            for s in range(n_seeds):
                req = replace(base, seed=_task_seed(master_seed, (int(alpha), ti, s)))
                rep = estimate_from_gamma(req, gamma)
                err = abs(rep.a_hat - exact)
                rows.append(
                    SweepRow(
                        theta=float(theta),
                        alpha=int(alpha),
                        a_hat=rep.a_hat,
                        a_exact=exact,
                        abs_error=err,
                        copies_used=rep.copies_used,
                        seed=s,
                        within_eps=bool(err <= epsilon),
                    )
                )
    return rows


# ---------------------------------------------------------------------------
# direct estimators (comparison baselines)


def direct_gamma_estimate(
    psi: StateVector,
    alpha: int,
    shots_per_string: int,
    rng: np.random.Generator,
    seed: int = -1,
) -> EstimateReport:
    """Average of per-string +/-1 outcomes of the d^2 strings P_j^{(x)2a}
    measured on |psi>^{(x)2a}; exactly unbiased for A_alpha."""
    if 2 * alpha * psi.n > 20:
        raise SizeGuardError("2*alpha*n exceeds the pure-state guard")
    if shots_per_string < 1:
        raise ValueError("shots_per_string must be >= 1")
    d = psi.dim
    k = shots_per_string
    means = pauli_expectations(psi) ** (2 * alpha)
    # |<P>| may round above 1; the clip keeps the shot law a distribution
    successes = rng.binomial(k, np.clip(0.5 * (1.0 + means), 0.0, 1.0))
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
    psi: StateVector,
    alpha: int,
    epsilon: float,
    delta: float,
    rng: np.random.Generator,
    shots_per_string: int | None = None,
    seed: int = -1,
) -> EstimateReport:
    """Estimate every <P_j> from single-copy shots, then d^{-1} sum O_j^{2a}.

    The per-string error target tau = epsilon/(2 alpha d) keeps the
    post-processed power sum within epsilon.
    """
    d = psi.dim
    if shots_per_string is None:
        tau = epsilon / (2 * alpha * d)
        shots_per_string = ceil_with_guard(1.0 / (tau * tau * delta))
    k = shots_per_string
    means = pauli_expectations(psi)
    successes = rng.binomial(k, np.clip(0.5 * (1.0 + means), 0.0, 1.0))
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

    swap_purity computes its route's gamma once per alpha; each (epsilon,
    seed) run is then one swap-test draw from it, exactly as
    ``run_estimation`` would make.
    """
    known = ("swap_purity", "direct_gamma", "direct_single_copy")
    rows = []
    for method in methods:
        if method not in known:
            raise ValueError(f"unknown method {method!r}")
        for alpha in alphas:
            exact = a_alpha_exact(state, alpha)
            if method == "swap_purity":
                swap = EstimationRequest(
                    state=state,
                    alpha=alpha,
                    epsilon=epsilons[0],
                    delta=delta,
                    method=PreparationMethod.COHERENT,
                    seed=0,
                )
                gamma = route_gamma(swap)
            for ei, epsilon in enumerate(epsilons):
                errs = []
                copies = 0
                for s in range(n_seeds):
                    ts = _task_seed(master_seed, (known.index(method), int(alpha), ei, s))
                    rng = np.random.default_rng(np.random.SeedSequence(ts))
                    if method == "swap_purity":
                        rep = estimate_from_gamma(replace(swap, epsilon=epsilon, seed=ts), gamma)
                    elif method == "direct_gamma":
                        k = ceil_with_guard(1.0 / (epsilon * epsilon * delta))
                        rep = direct_gamma_estimate(state, alpha, k, rng, seed=ts)
                    else:
                        rep = direct_single_copy_estimate(
                            state, alpha, epsilon, delta, rng, seed=ts
                        )
                    errs.append(rep.a_hat - exact)
                    copies = max(copies, rep.copies_used)
                rmse = float(np.sqrt(np.mean(np.square(errs))))
                rows.append(ComplexityRow(method, int(alpha), float(epsilon), copies, rmse))
    return rows
