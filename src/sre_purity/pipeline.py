"""End-to-end estimation: from (state, alpha, epsilon, delta, method, seed)
to an estimate of A_alpha and M_alpha.

Each method is a route to the exact purity gamma of its prepared state
(``route_gamma``); a run is then one seeded binomial swap-test draw from
gamma (``draw_gamma``, which ``estimate_from_gamma`` and the tables in
``bench`` share).  The coherent preparation is pure, so its copies
and ancilla marginals have one purity; ``channels.coherent_purity`` reads it
without building the register, and ``marginal`` only names the register the
swap test acts on.  M_alpha is derived from the aggregated a_hat with
``oracle.m_from_a``, never per shot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import PreparationMethod, coherent_purity, exact_channel_output
from .estimation import check_targets, copies_required, estimate_purity
from .oracle import a_alpha_exact, m_from_a
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
        if self.alpha < 1:
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")
        check_targets(self.epsilon, self.delta)
        if self.marginal not in ("copies", "ancilla"):
            raise ValueError(f"unknown marginal {self.marginal!r}")


@dataclass(frozen=True)
class EstimateReport:
    """Result of one estimation run.

    copies_used = 2 alpha shots_used and a_hat = d * gamma_hat always, and
    estimates are reported raw (clipping would bias small values; consumers
    get stderr instead).
    """

    gamma_hat: float
    gamma_stderr: float
    a_hat: float
    m_hat: float | None
    alpha: int
    shots_used: int
    copies_used: int
    seed: int
    method: str
    state_spec: str = ""
    marginal: str = "copies"


def route_gamma(req: EstimationRequest) -> float:
    """Exact swap-test mean gamma of the request's preparation route.

    Each route's shots are iid with P(0) = (1 + gamma)/2, so gamma is all a
    run needs: the exact mixture gives its purity, the coherent preparation
    the purity shared by both of its marginals, and the incoherent method
    A_alpha/d (the mean overlap of two independent draws).
    """
    psi, alpha = req.state, req.alpha
    if req.method is PreparationMethod.EXACT_MIXTURE:
        return purity(exact_channel_output(psi, alpha))
    if req.method is PreparationMethod.COHERENT:
        return coherent_purity(psi, alpha)
    if req.method is PreparationMethod.INCOHERENT:
        return a_alpha_exact(psi, alpha) / psi.dim
    raise ValueError(f"unknown method {req.method!r}")


def draw_gamma(gamma: float, shots: int, seed: int) -> tuple[float, float]:
    """(gamma_hat, stderr) of ``shots`` swap-test shots on a route of purity
    ``gamma``, drawn from the stream of ``seed``; 0 shots give gamma itself."""
    if shots == 0:
        return gamma, 0.0
    return estimate_purity(gamma, shots, np.random.default_rng(np.random.SeedSequence(seed)))


def estimate_from_gamma(req: EstimationRequest, gamma: float) -> EstimateReport:
    """The report of ``req`` given its route's gamma: one seeded swap-test draw
    at the request's shot count, or gamma itself when that count is 0."""
    d = req.state.dim
    budget = copies_required(req.alpha, d, req.epsilon, req.delta)
    shots = budget.swap_shots if req.shots is None else req.shots
    gamma_hat, stderr = draw_gamma(gamma, shots, req.seed)
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
        state_spec=req.state_spec,
        marginal=req.marginal,
    )


def run_estimation(req: EstimationRequest) -> EstimateReport:
    return estimate_from_gamma(req, route_gamma(req))
