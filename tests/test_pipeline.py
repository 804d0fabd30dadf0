"""End-to-end estimation pipeline tests: determinism, exact passthrough,
method equivalence, and post-processing of the entropy from the estimate."""

import math

import pytest

import sre_purity.pipeline as pipeline
from sre_purity.channels import PreparationMethod
from sre_purity.oracle import a_alpha_exact, closed_form_a
from sre_purity.pipeline import EstimationRequest, m_from_a, route_gamma, run_estimation
from sre_purity.states import phase_state, zero_state

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


def test_full_circuit_route_agrees_with_static_source():
    # the coherent full-circuit route reads the same gamma off the explicit
    # circuit and makes the same seeded draw, so reports coincide exactly
    normal = run_estimation(_request(seed=21, shots=400))
    circuit = run_estimation(_request(seed=21, shots=400, full_circuit=True))
    assert normal.gamma_hat == circuit.gamma_hat


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
    circuit = route_gamma(_request(state=psi, method=method, marginal=marginal, full_circuit=True))
    assert circuit == pytest.approx(route_gamma(req), abs=1e-12)
    assert circuit == pytest.approx(a_alpha_exact(psi, 2) / 2, abs=1e-12)


def test_zero_shot_mode_uses_the_selected_route(monkeypatch):
    def refuse(*args):
        raise AssertionError("the dense channel output was built")

    monkeypatch.setattr(pipeline, "exact_channel_output", refuse)
    for method in (PreparationMethod.COHERENT, PreparationMethod.INCOHERENT):
        rep = run_estimation(_request(method=method, shots=0))
        assert rep.a_hat == pytest.approx(0.75, abs=1e-12)


def test_full_circuit_flag_guarded():
    with pytest.raises(ValueError):
        _request(alpha=3, full_circuit=True)


def test_request_validation():
    with pytest.raises(ValueError):
        _request(alpha=0)
    with pytest.raises(ValueError):
        _request(epsilon=0.0)
    with pytest.raises(ValueError):
        _request(marginal="left")
