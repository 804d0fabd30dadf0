"""End-to-end estimation pipeline tests: determinism, exact passthrough,
method equivalence, and post-processing of the entropy from the estimate."""

import math
import tracemalloc

import numpy as np
import pytest

import sre_purity.pipeline as pipeline
from sre_purity.channels import (
    PreparationMethod,
    ancilla_marginal_of,
    coherent_prepare,
    copies_marginal,
)
from sre_purity.clifford import haar_random_state
from sre_purity.errors import DENSE_DIM, PURE_QUBITS, SizeGuardError
from sre_purity.estimation import estimate_purity, swap_test_circuit_p0
from sre_purity.oracle import a_alpha_exact, closed_form_a
from sre_purity.paulis import enumerate_paulis
from sre_purity.pipeline import (
    EstimationRequest,
    m_from_a,
    route_gamma,
    route_gammas,
    run_estimation,
)
from sre_purity.states import apply_pauli, phase_state, purity, tensor_power, zero_state

PI4 = math.pi / 4


def _request(**kwargs):
    base = dict(
        state=phase_state(PI4),
        alpha=2,
        epsilon=0.05,
        delta=0.1,
        method=PreparationMethod.COHERENT,
        seed=0,
    )
    base.update(kwargs)
    return EstimationRequest(**base)


def test_m_from_a_values():
    assert m_from_a(1.0, 2) == 0.0
    assert m_from_a(0.75, 2) == pytest.approx(0.2876820724517809, abs=1e-12)
    assert m_from_a(0.75, 3) == pytest.approx(0.14384103622589046, abs=1e-12)
    with pytest.raises(ValueError):
        m_from_a(0.0, 2)
    with pytest.raises(ValueError):
        m_from_a(0.5, 1)


def test_stabilizer_input_concentrates_at_one():
    rep = run_estimation(_request(state=zero_state(1), seed=3))
    assert abs(rep.a_hat - 1.0) <= 0.05
    assert abs(rep.m_hat) <= 0.08
    assert rep.shots_used == 8000
    assert rep.copies_used == 32000


@pytest.mark.parametrize("method", list(PreparationMethod))
def test_budget_accuracy_over_seeds(method):
    exact = closed_form_a(PI4, 2)
    hits = 0
    for seed in range(20):
        rep = run_estimation(_request(method=method, seed=seed))
        hits += abs(rep.a_hat - exact) <= 0.05
    assert hits >= 18


@pytest.mark.parametrize("method", list(PreparationMethod))
def test_zero_shot_mode_reproduces_oracle(method):
    psi = phase_state(PI4)
    rep = run_estimation(_request(method=method, shots=0))
    assert rep.a_hat == pytest.approx(a_alpha_exact(psi, 2), abs=1e-10)
    assert rep.m_hat == pytest.approx(math.log(4 / 3), abs=1e-9)
    assert rep.shots_used == 0 and rep.copies_used == 0


def test_deterministic_reports():
    req = _request(method=PreparationMethod.INCOHERENT, seed=11)
    assert run_estimation(req) == run_estimation(req)


def test_report_invariants():
    rep = run_estimation(_request(seed=5))
    assert rep.a_hat == 2 * rep.gamma_hat
    assert rep.copies_used == 2 * rep.alpha * rep.shots_used
    assert rep.method == "coherent"


def test_negative_a_hat_leaves_m_undefined():
    # single-shot runs return gamma in {-1, +1}; find a -1 outcome
    for seed in range(200):
        rep = run_estimation(_request(method=PreparationMethod.INCOHERENT, shots=1, seed=seed))
        assert rep.gamma_stderr is None  # one shot has no sample deviation
        if rep.a_hat <= 0:
            assert rep.m_hat is None
            return
    pytest.fail("no negative single-shot estimate found in 200 seeds")


def test_alpha_one_reports_a_only():
    rep = run_estimation(_request(alpha=1, shots=0))
    assert rep.a_hat == pytest.approx(1.0, abs=1e-10)
    assert rep.m_hat is None


def test_method_equivalence_in_mean():
    shots = 100_000
    rep_c = run_estimation(_request(method=PreparationMethod.COHERENT, shots=shots, seed=1))
    rep_i = run_estimation(_request(method=PreparationMethod.INCOHERENT, shots=shots, seed=2))
    combined = math.hypot(rep_c.gamma_stderr, rep_i.gamma_stderr)
    assert abs(rep_c.gamma_hat - rep_i.gamma_hat) <= 3 * combined


def test_ancilla_marginal_flag():
    rep = run_estimation(_request(marginal="ancilla", seed=9))
    assert rep.marginal == "ancilla"
    assert abs(rep.a_hat - 0.75) <= 0.05


def _circuit_gamma(psi, alpha, method, marginal):
    """2 p0 - 1 read off the explicit cSWAP circuit on the route's preparations."""
    n = psi.n
    if method is PreparationMethod.INCOHERENT:
        # every pair of incoherent samples, equally likely
        samples = [tensor_power(apply_pauli(p, psi), alpha) for p in enumerate_paulis(n)]
        p0 = [swap_test_circuit_p0(a, b) for a in samples for b in samples]
        return 2.0 * float(np.mean(p0)) - 1.0
    prepared = coherent_prepare(psi, alpha)
    keep = range(alpha * n) if marginal == "copies" else range(alpha * n, (alpha + 2) * n)
    return 2.0 * swap_test_circuit_p0(prepared, prepared, list(keep)) - 1.0


@pytest.mark.parametrize(
    "method,marginal",
    [
        (PreparationMethod.COHERENT, "copies"),
        (PreparationMethod.COHERENT, "ancilla"),
        (PreparationMethod.INCOHERENT, "copies"),
    ],
)
def test_full_circuit_gamma_matches_route(method, marginal):
    psi = phase_state(0.9)
    req = _request(state=psi, method=method, marginal=marginal)
    circuit = _circuit_gamma(psi, 2, method, marginal)
    assert circuit == pytest.approx(route_gamma(req), abs=1e-12)
    assert circuit == pytest.approx(a_alpha_exact(psi, 2) / 2, abs=1e-12)


# every (n, alpha) whose coherent register and both marginals pass the size guards
_BOTH_MARGINALS_FIT = [
    (n, alpha)
    for n in range(1, 7)
    for alpha in range(1, 13)
    if (alpha + 2) * n <= PURE_QUBITS and 1 << max(alpha * n, 2 * n) <= DENSE_DIM
]


@pytest.mark.parametrize("n,alpha", _BOTH_MARGINALS_FIT)
def test_coherent_gamma_is_the_purity_of_either_marginal(n, alpha):
    # the preparation is pure, so the route may square whichever marginal is smaller
    psi = haar_random_state(n, np.random.default_rng(100 * n + alpha))
    gamma = route_gamma(_request(state=psi, alpha=alpha))
    prepared = coherent_prepare(psi, alpha)
    assert gamma == pytest.approx(purity(copies_marginal(prepared, n, alpha)), abs=1e-12)
    assert gamma == pytest.approx(purity(ancilla_marginal_of(prepared, n, alpha)), abs=1e-12)
    assert gamma == pytest.approx(a_alpha_exact(psi, alpha) / psi.dim, abs=1e-12)


def test_coherent_route_peak_memory():
    # n = 6, alpha = 3: the route reads the oracle's 4^6 expectations and
    # builds neither the 2^24-amplitude register nor the Pauli images
    psi = haar_random_state(6, np.random.default_rng(63))
    req = _request(state=psi, alpha=3)
    tracemalloc.start()
    try:
        route_gamma(req)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


@pytest.mark.parametrize("alpha", [10**5, 10**30])
def test_coherent_route_is_finite_at_huge_alpha(alpha):
    # <I> rounds to 1 +- 1e-16, which the power would blow up without the
    # oracle's clip to |<P>| <= 1; every other |<P>| < 1 for a Haar state
    psi = haar_random_state(1, np.random.default_rng(1))
    assert route_gamma(_request(state=psi, alpha=alpha)) == pytest.approx(0.25, abs=1e-12)


def test_zero_shot_mode_uses_the_selected_route(monkeypatch):
    def refuse(*args):
        raise AssertionError("the dense channel output was built")

    monkeypatch.setattr(pipeline, "exact_channel_output", refuse)
    for method in (PreparationMethod.COHERENT, PreparationMethod.INCOHERENT):
        rep = run_estimation(_request(method=method, shots=0))
        assert rep.a_hat == pytest.approx(0.75, abs=1e-12)


def test_coherent_guard_fires_before_the_oracle(monkeypatch):
    # at n = 7 the oracle's own peak can stay small, so only a refusal that
    # never reaches it shows the guard comes first
    def refuse(*args):
        raise AssertionError("the oracle ran before the ancilla guard")

    monkeypatch.setattr(pipeline, "pauli_expectations", refuse)
    psi = haar_random_state(7, np.random.default_rng(1))
    with pytest.raises(SizeGuardError, match="ancilla-marginal dimension 16384"):
        route_gamma(_request(state=psi, shots=0))


def test_request_validation():
    with pytest.raises(ValueError):
        _request(alpha=0)
    with pytest.raises(ValueError):
        _request(epsilon=0.0)


def test_every_route_gamma_is_a_swap_test_mean():
    # gamma = A_alpha/d lies in (0, 1/2] for n >= 1, so (1 + gamma)/2 is a
    # probability without a clip; exact mixtures past the dense guards are skipped
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        psi = haar_random_state(n, rng)
        for method in PreparationMethod:
            for alpha in range(1, 8):
                try:
                    (gamma,) = route_gammas(psi, (alpha,), method)
                except SizeGuardError:
                    continue
                assert 0 < gamma <= 0.5 + 1e-12, (n, method, alpha, gamma)
    # a gamma outside [-1, 1] is refused by the binomial draw: exit 2, not a traceback
    with pytest.raises(ValueError):
        estimate_purity(1.5, 10, np.random.default_rng(0))
