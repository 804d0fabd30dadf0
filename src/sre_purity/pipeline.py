"""End-to-end estimation: from (state, alpha, epsilon, delta, method, seed)
to an estimate of A_alpha and M_alpha.

Each method is a route to the exact purity gamma of its prepared state
(``route_gamma``, or ``route_gammas`` for several alphas); ``run_estimation``
then makes one seeded binomial swap-test draw from gamma, as the tables in
``bench`` do from streams they derive in bulk.  The coherent preparation is
pure, so its copies and ancilla marginals have one purity.  Up to a phase
P_i P_j is P_{i xor j}, so that purity, sum_ij |<P_i P_j>|^{2 alpha} / d^4,
is A_alpha/d: the coherent and incoherent routes read the same number from
the oracle, and ``marginal`` only names the register the coherent route's
swap test acts on.  M_alpha is derived from the aggregated a_hat with
``oracle.m_from_a``, never per shot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import PreparationMethod, exact_channel_output
from .errors import DENSE_DIM, check_alpha, check_seed, check_shots, check_size, check_targets
from .estimation import ShotBudget, copies_required, estimate_purity
from .oracle import a_alpha_of, m_from_a, pauli_expectations
from .states import StateVector, purity


@dataclass(frozen=True)
class EstimationRequest:
    state: StateVector
    alpha: int
    epsilon: float
    delta: float
    method: PreparationMethod
    seed: int
    state_spec: str = ""
    marginal: str = "copies"  # "copies" or "ancilla": the swap test's register
    shots: int | None = None  # None: full budget; 0: the route's exact gamma

    def __post_init__(self):
        check_alpha(self.alpha)
        check_targets(self.epsilon, self.delta)
        if self.marginal == "ancilla" and self.method is not PreparationMethod.COHERENT:
            raise ValueError(f"only the coherent method has an ancilla marginal, "
                             f"not {self.method.value}")
        # refused before any route's work; 0 shots reads the route's gamma itself
        check_seed(self.seed)
        if self.shots:
            check_shots(self.shots)


@dataclass(frozen=True)
class EstimateReport:
    """Result of one estimation run.

    copies_used = 2 alpha shots_used and a_hat = d * gamma_hat always, and
    estimates are reported raw (clipping would bias small values; consumers
    get stderr instead, None for a single shot).
    """

    gamma_hat: float
    gamma_stderr: float | None
    a_hat: float
    m_hat: float | None
    alpha: int
    shots_used: int
    copies_used: int
    seed: int
    method: str
    budget: ShotBudget
    state_spec: str = ""
    marginal: str = "copies"


def check_coherent_size(psi: StateVector) -> None:
    """Refuse a state whose coherent preparation has an ancilla marginal past
    the dense guard, before any of the route's work."""
    check_size("ancilla-marginal dimension", psi.dim**2, DENSE_DIM)


def route_gammas(psi: StateVector, alphas, method: PreparationMethod) -> list[float]:
    """Exact swap-test mean gamma of ``method``'s preparation of ``psi`` at each alpha.

    Each route's shots are iid with P(0) = (1 + gamma)/2, so gamma is all a
    run needs: the exact mixture gives its purity, one mixture per alpha; the
    coherent preparation (the purity shared by both of its marginals) and the
    incoherent method (the mean overlap of two independent draws) both give
    A_alpha/d, read for every alpha from one evaluation of the oracle.
    """
    if method is PreparationMethod.EXACT_MIXTURE:
        return [purity(exact_channel_output(psi, alpha)) for alpha in alphas]
    if method is PreparationMethod.COHERENT:
        check_coherent_size(psi)
    expectations = pauli_expectations(psi)
    return [a_alpha_of(expectations, alpha) / psi.dim for alpha in alphas]


def route_gamma(req: EstimationRequest) -> float:
    """Exact swap-test mean gamma of the request's preparation route."""
    return route_gammas(req.state, (req.alpha,), req.method)[0]


def run_estimation(req: EstimationRequest) -> EstimateReport:
    """One seeded swap-test draw at the request's shot count from its route's
    gamma, or gamma itself when that count is 0."""
    gamma = route_gamma(req)
    d = req.state.dim
    budget = copies_required(req.alpha, d, req.epsilon, req.delta)
    shots = budget.swap_shots if req.shots is None else req.shots
    if shots == 0:
        gamma_hat, stderr = gamma, 0.0
    else:
        rng = np.random.default_rng(np.random.SeedSequence(req.seed))
        gamma_hat, stderr = estimate_purity(gamma, shots, rng)
    a_hat = d * gamma_hat
    m_hat = None
    if req.alpha >= 2 and a_hat > 0:
        m_hat = m_from_a(a_hat, req.alpha)
    return EstimateReport(
        gamma_hat=gamma_hat,
        gamma_stderr=stderr,
        a_hat=a_hat,
        m_hat=m_hat,
        alpha=req.alpha,
        shots_used=shots,
        copies_used=2 * req.alpha * shots,
        seed=req.seed,
        method=req.method.value,
        budget=budget,
        state_spec=req.state_spec,
        marginal=req.marginal,
    )
