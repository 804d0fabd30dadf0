"""End-to-end estimation: from (state, alpha, epsilon, delta, method, seed)
to an estimate of A_alpha and M_alpha.

Each method is a route to the exact purity gamma of its prepared state
(``route_gamma``); a run is then one binomial swap-test draw from gamma
(``estimate_from_gamma``).  The B-register marginal is the default purity
target for the coherent method; ``marginal="ancilla"`` switches to the
ancilla marginal (both encode A_alpha).  M_alpha is derived from the
aggregated a_hat, never per shot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    PreparationMethod,
    ancilla_marginal_of,
    coherent_prepare,
    copies_marginal,
    exact_channel_output,
)
from .estimation import copies_required, estimate_purity, swap_test_circuit_p0
from .oracle import a_alpha_exact
from .paulis import enumerate_paulis
from .states import StateVector, apply_pauli, purity, tensor_power


@dataclass(frozen=True)
class EstimationRequest:
    state: StateVector
    alpha: int
    epsilon: float
    delta: float
    method: PreparationMethod
    seed: int
    state_spec: str = ""
    marginal: str = "copies"  # "copies" or "ancilla"; coherent method only
    shots: int | None = None  # None: full budget; 0: the route's exact gamma
    full_circuit: bool = False  # explicit-cSWAP validation route (n=1, alpha=2)

    def __post_init__(self):
        if self.alpha < 1:
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")
        if not 0 < self.epsilon <= 1 or not 0 < self.delta <= 1:
            raise ValueError("epsilon and delta must lie in (0, 1]")
        if self.marginal not in ("copies", "ancilla"):
            raise ValueError(f"unknown marginal {self.marginal!r}")
        if self.full_circuit and (self.state.n != 1 or self.alpha != 2):
            raise ValueError("full-circuit mode is provided for n=1, alpha=2 only")


@dataclass(frozen=True)
class EstimateReport:
    """Result of one estimation run.

    For swap-test runs copies_used = 2 alpha shots_used; the direct
    estimators in bench fill these fields with their own accounting.
    a_hat = d * gamma_hat always, and estimates are reported raw (clipping
    would bias small values; consumers get stderr instead).
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


def m_from_a(a: float, alpha: int) -> float:
    if alpha < 2:
        raise ValueError(f"M_alpha needs alpha >= 2, got {alpha}")
    if a <= 0:
        raise ValueError(f"a must be positive, got {a}")
    return math.log(a) / (1 - alpha)


def route_gamma(req: EstimationRequest) -> float:
    """Exact swap-test mean gamma of the request's preparation route.

    Each route's shots are iid with P(0) = (1 + gamma)/2, so gamma is all a
    run needs: the exact mixture and the coherent marginals give their
    purity, the incoherent method gives A_alpha/d (the mean overlap of two
    independent draws), and ``full_circuit`` reads 2 p0 - 1 off the explicit
    cSWAP circuit instead, averaged over every pair of incoherent samples.
    """
    psi, alpha, n = req.state, req.alpha, req.state.n
    if req.method is PreparationMethod.EXACT_MIXTURE:
        return purity(exact_channel_output(psi, alpha))
    if req.method is PreparationMethod.COHERENT:
        prepared = coherent_prepare(psi, alpha)
        if req.full_circuit:
            keep = (
                range(alpha * n)
                if req.marginal == "copies"
                else range(alpha * n, (alpha + 2) * n)
            )
            return 2.0 * swap_test_circuit_p0(prepared, prepared, list(keep)) - 1.0
        if req.marginal == "ancilla":
            return purity(ancilla_marginal_of(prepared, n, alpha))
        return purity(copies_marginal(prepared, n, alpha))
    if req.method is PreparationMethod.INCOHERENT:
        if req.full_circuit:
            samples = [tensor_power(apply_pauli(p, psi), alpha) for p in enumerate_paulis(n)]
            p0 = [swap_test_circuit_p0(a, b) for a in samples for b in samples]
            return 2.0 * float(np.mean(p0)) - 1.0
        return a_alpha_exact(psi, alpha) / psi.dim
    raise ValueError(f"unknown method {req.method!r}")


def estimate_from_gamma(req: EstimationRequest, gamma: float) -> EstimateReport:
    """The report of ``req`` given its route's gamma: one seeded swap-test draw
    at the request's shot count, or gamma itself when that count is 0."""
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
        state_spec=req.state_spec,
        marginal=req.marginal,
    )


def run_estimation(req: EstimationRequest) -> EstimateReport:
    return estimate_from_gamma(req, route_gamma(req))
