"""Swap-test estimation tests: budget arithmetic, the sampler's shot law,
Monte-Carlo scaling, and the explicit-circuit validation route."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sre_purity.channels import (
    PreparationMethod,
    coherent_prepare,
    copies_marginal,
    exact_channel_output,
    incoherent_sample,
)
from sre_purity.errors import SizeGuardError
from sre_purity.estimation import (
    MAX_SHOTS,
    copies_required,
    estimate_purity,
    state_overlap,
    swap_test_circuit_p0,
)
from sre_purity.oracle import a_alpha_exact
from sre_purity.pipeline import EstimationRequest, route_gamma
from sre_purity.states import (
    DensityMatrix,
    StateVector,
    basis_state,
    phase_state,
    purity,
    pure_density,
    zero_state,
)

MAX_MIXED_1Q = DensityMatrix(1, np.eye(2) / 2)
MAX_MIXED_GAMMA = purity(MAX_MIXED_1Q)


def test_budget_paper_numbers():
    b = copies_required(2, 2, 0.05, 0.1)
    assert b.copies_of_psi == 32000
    assert b.swap_shots == 8000
    assert b.tau == pytest.approx(0.025)


def test_budget_trivial_ceiling():
    assert copies_required(1, 2, 1.0, 1.0).copies_of_psi == 4


def test_budget_linear_in_alpha():
    base = copies_required(1, 4, 0.2, 0.5).copies_of_psi
    for alpha in range(2, 9):
        assert copies_required(alpha, 4, 0.2, 0.5).copies_of_psi == alpha * base


def test_budget_rejects_out_of_range():
    for eps, delta in [(0.0, 0.1), (1.5, 0.1), (0.1, 0.0), (0.1, 2.0)]:
        with pytest.raises(ValueError):
            copies_required(2, 2, eps, delta)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 10),
    st.sampled_from([2, 4, 8]),
    st.floats(0.01, 1.0),
    st.floats(0.01, 1.0),
)
def test_budget_invariants(alpha, d, eps, delta):
    b = copies_required(alpha, d, eps, delta)
    assert b.swap_shots == -(-b.copies_of_psi // (2 * alpha))
    assert b.tau == eps / d
    # never undershoots the target count by more than the float guard
    assert b.copies_of_psi >= alpha * d * d / (eps * eps * delta) - 1e-4 * b.copies_of_psi


# ---------------------------------------------------------------------------
# swap-test shot law


def test_pure_source_always_zero():
    gamma = purity(pure_density(phase_state(0.4)))
    rng = np.random.default_rng(0)
    # every shot is 0, so each single-shot estimate is +1
    assert all(estimate_purity(gamma, 1, rng)[0] == 1.0 for _ in range(50))


def test_overlap_values():
    assert state_overlap(MAX_MIXED_1Q, MAX_MIXED_1Q) == pytest.approx(0.5)
    assert state_overlap(zero_state(1), basis_state(1, 1)) == pytest.approx(0.0)
    assert state_overlap(zero_state(1), MAX_MIXED_1Q) == pytest.approx(0.5)


def test_maximally_mixed_shot_frequency():
    rng = np.random.default_rng(7)
    shots = 20000
    zeros = sum(estimate_purity(MAX_MIXED_GAMMA, 1, rng)[0] == 1.0 for _ in range(shots))
    assert zeros / shots == pytest.approx(0.75, abs=0.01)


def test_orthogonal_states_give_half():
    # overlap 0 -> P(0) = 1/2, checked through the explicit circuit
    assert swap_test_circuit_p0(zero_state(1), basis_state(1, 1)) == pytest.approx(0.5)
    assert swap_test_circuit_p0(zero_state(1), zero_state(1)) == pytest.approx(1.0)


def test_estimate_purity_pure_source_is_exact():
    gamma, stderr = estimate_purity(
        purity(pure_density(phase_state(0.9))), 500, np.random.default_rng(1)
    )
    assert gamma == 1.0
    assert stderr == 0.0


def test_estimate_purity_maximally_mixed_seeded():
    gamma, stderr = estimate_purity(MAX_MIXED_GAMMA, 10**5, np.random.default_rng(12))
    assert abs(gamma - 0.5) < 0.01
    assert stderr == pytest.approx(math.sqrt((1 - 0.5**2) / 10**5), rel=0.05)


def test_estimate_purity_rejects_zero_shots():
    with pytest.raises(ValueError):
        estimate_purity(MAX_MIXED_GAMMA, 0, np.random.default_rng(0))


def test_estimate_purity_refuses_shots_beyond_int64():
    rng = np.random.default_rng(0)
    with pytest.raises(SizeGuardError):
        estimate_purity(MAX_MIXED_GAMMA, MAX_SHOTS + 1, rng)
    gamma, _ = estimate_purity(MAX_MIXED_GAMMA, MAX_SHOTS, rng)
    assert abs(gamma - 0.5) < 1e-6


def test_estimate_purity_memory_is_independent_of_shots():
    rng = np.random.default_rng(3)
    tracemalloc.start()
    try:
        estimate_purity(0.3, 10**7, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_gamma_hat_always_in_range():
    psi = phase_state(0.8)
    true_gamma = a_alpha_exact(psi, 2) / psi.dim  # the incoherent route's gamma
    for seed in range(30):
        gamma, _ = estimate_purity(true_gamma, 25, np.random.default_rng(seed))
        assert -1.0 <= gamma <= 1.0


def test_estimates_reported_raw_not_clipped():
    # a stabilizer input has channel purity 1/2, so a_hat = 2*gamma_hat
    # fluctuates above 1; raw reporting must keep those values
    true_gamma = purity(copies_marginal(coherent_prepare(zero_state(1), 2), 1, 2))
    seen_above = False
    for seed in range(200):
        gamma, _ = estimate_purity(true_gamma, 40, np.random.default_rng(seed))
        if 2 * gamma > 1.0:
            seen_above = True
            break
    assert seen_above


def test_stderr_scales_as_inverse_sqrt_shots():
    rng = np.random.default_rng(2024)
    shot_grid = [100, 1000, 10_000, 100_000]
    reps = 200
    stds = []
    for shots in shot_grid:
        estimates = [estimate_purity(MAX_MIXED_GAMMA, shots, rng)[0] for _ in range(reps)]
        stds.append(np.std(estimates, ddof=1))
    slope = np.polyfit(np.log(shot_grid), np.log(stds), 1)[0]
    assert abs(slope + 0.5) < 0.05


def test_unbiasedness_over_many_seeds():
    rng = np.random.default_rng(31)
    reps, shots = 10_000, 32
    estimates = np.array([estimate_purity(MAX_MIXED_GAMMA, shots, rng)[0] for _ in range(reps)])
    grand = estimates.mean()
    combined_se = estimates.std(ddof=1) / math.sqrt(reps)
    assert abs(grand - 0.5) < 3 * combined_se


def test_incoherent_source_unbiased_for_channel_purity():
    psi = phase_state(math.pi / 4)
    req = EstimationRequest(psi, 2, 0.05, 0.1, PreparationMethod.INCOHERENT, seed=5)
    target = purity(exact_channel_output(psi, 2))
    gamma, stderr = estimate_purity(route_gamma(req), 200_000, np.random.default_rng(5))
    assert abs(gamma - target) < 4 * stderr + 1e-12


def test_chebyshev_guarantee_at_full_budget():
    psi = phase_state(math.pi / 4)
    exact = a_alpha_exact(psi, 2)
    budget = copies_required(2, 2, 0.05, 0.1)
    true_gamma = purity(copies_marginal(coherent_prepare(psi, 2), 1, 2))
    rng = np.random.default_rng(77)
    failures = 0
    seeds = 120
    for _ in range(seeds):
        gamma, _ = estimate_purity(true_gamma, budget.swap_shots, rng)
        if abs(2 * gamma - exact) > 0.05:
            failures += 1
    assert failures / seeds <= 0.1


# ---------------------------------------------------------------------------
# explicit-circuit route


def test_full_circuit_matches_bernoulli_law_coherent():
    psi = phase_state(1.3)
    prepared = coherent_prepare(psi, 2)
    marg = copies_marginal(prepared, 1, 2)
    p0 = swap_test_circuit_p0(prepared, prepared, list(range(2)))
    assert p0 == pytest.approx(0.5 * (1 + purity(marg)), abs=1e-12)
    # ancilla-side swap encodes the same purity
    p0_anc = swap_test_circuit_p0(prepared, prepared, [2, 3])
    assert p0_anc == pytest.approx(p0, abs=1e-12)


def test_full_circuit_matches_bernoulli_law_incoherent():
    psi = phase_state(0.6)
    rng = np.random.default_rng(9)
    for _ in range(5):
        a = incoherent_sample(psi, 2, rng)
        b = incoherent_sample(psi, 2, rng)
        p0 = swap_test_circuit_p0(a, b)
        assert p0 == pytest.approx(0.5 * (1 + state_overlap(a, b)), abs=1e-12)


def test_full_circuit_swap_is_unitary_permutation():
    left = StateVector(2, np.array([0.5, 0.5, 0.5, 0.5]))
    right = basis_state(2, 2)
    p0 = swap_test_circuit_p0(left, right)
    assert p0 == pytest.approx(0.5 * (1 + 0.25), abs=1e-12)
