"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned in this module; the exact-identity
criteria delegate to the verification suites (same state counts and seeds as
the CLI ``verify`` command).
"""

import math

import numpy as np

from sre_purity.bench import (
    direct_gamma_estimate,
    direct_single_copy_estimate,
    sweep_theta,
)
from sre_purity.channels import PreparationMethod, coherent_prepare, copies_marginal
from sre_purity.estimation import copies_required, estimate_purity
from sre_purity.oracle import a_alpha_exact, pauli_expectations
from sre_purity.pipeline import EstimationRequest, run_estimation
from sre_purity.states import phase_state, purity
from sre_purity.clifford import haar_random_state
from sre_purity.verification import (
    check_additivity,
    check_clifford_invariance,
    check_coherent_equivalence,
    check_faithfulness,
    check_gamma_norms,
    check_gamma_swap,
    check_local_twirl,
    check_marginal_consistency,
    check_purity_encoding,
    check_replica_identity,
    check_entanglement_identity,
)

PI4 = math.pi / 4


def _criterion(num: int, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {desc}  {detail}")
    assert ok, f"criterion {num} failed: {desc} {detail}"


def test_criterion_1_benchmark_sweep():
    alphas = (2, 3, 5, 7)
    grid = np.linspace(0.0, math.pi / 2, 9)
    rows = sweep_theta(alphas, grid, epsilon=0.05, delta=0.1, n_seeds=10, master_seed=2026)
    assert len(rows) == 360
    for row in rows:
        assert row.copies_used == row.alpha * 16000
    frac = sum(r.within_eps for r in rows) / len(rows)
    _criterion(
        1,
        "benchmark sweep: >= 90% of (point, seed) estimates within eps=0.05",
        frac >= 0.90,
        f"fraction within: {frac:.3f} over {len(rows)} rows",
    )


def test_criterion_2_purity_encoding():
    res = check_purity_encoding()
    _criterion(
        2,
        "purity encoding |d*purity(channel output) - A_alpha| < 1e-10",
        res.passed,
        f"worst {res.worst:.2e}",
    )


def test_criterion_3_coherent_exact_equivalence():
    res = check_coherent_equivalence()
    _criterion(
        3,
        "coherent preparation: copy marginal = channel output, ancilla purity = A_alpha/d (< 1e-10)",
        res.passed,
        f"worst {res.worst:.2e}",
    )


def test_criterion_4_entanglement_identity():
    res = check_entanglement_identity()
    _criterion(
        4,
        "entanglement identity residual < 1e-9 (alpha in {1,2,3})",
        res.passed,
        f"worst {res.worst:.2e}",
    )


def test_criterion_5_replica_identity():
    res = check_replica_identity()
    swap = check_gamma_swap()
    _criterion(
        5,
        "replica expectation = A_alpha (< 1e-10) and Gamma_1 = SWAP",
        res.passed and swap.passed,
        f"worst {max(res.worst, swap.worst):.2e}",
    )


def test_criterion_6_gamma_norm_parity():
    res = check_gamma_norms()
    _criterion(
        6,
        "max |eig| of Gamma_alpha^(xn) = d (even alpha) / 1 (odd alpha) to 1e-9",
        res.passed,
        f"worst {res.worst:.2e}",
    )


def test_criterion_7_monotone_axioms():
    faith = check_faithfulness()
    inv = check_clifford_invariance()
    add = check_additivity()
    _criterion(
        7,
        "monotone axioms: faithfulness < 1e-12, Clifford invariance < 1e-10, additivity < 1e-10",
        faith.passed and inv.passed and add.passed,
        f"worst {max(faith.worst, inv.worst, add.worst):.2e}",
    )


def test_criterion_8_local_twirl_and_marginals():
    twirl = check_local_twirl()
    marg = check_marginal_consistency()
    _criterion(
        8,
        "single-copy marginals are I/d and tracing copies reduces alpha (< 1e-10)",
        twirl.passed and marg.passed,
        f"worst {max(twirl.worst, marg.worst):.2e}",
    )


def test_criterion_9_statistical_scaling():
    # (a) stderr slope on log-log over four decades of shots
    psi = phase_state(PI4)
    gamma = purity(copies_marginal(coherent_prepare(psi, 2), 1, 2))
    rng = np.random.default_rng(909)
    shot_grid = [100, 1000, 10_000, 100_000]
    stds = []
    for shots in shot_grid:
        vals = [estimate_purity(gamma, shots, rng)[0] for _ in range(200)]
        stds.append(np.std(vals, ddof=1))
    slope = float(np.polyfit(np.log(shot_grid), np.log(stds), 1)[0])

    # (b) Chebyshev guarantee at the full budget
    exact = a_alpha_exact(psi, 2)
    budget = copies_required(2, 2, 0.05, 0.1)
    failures = 0
    seeds = 120
    for seed in range(seeds):
        rep = run_estimation(
            EstimationRequest(
                state=psi, alpha=2, epsilon=0.05, delta=0.1,
                method=PreparationMethod.COHERENT, seed=seed,
            )
        )
        assert rep.shots_used == budget.swap_shots
        if abs(rep.a_hat - exact) > 0.05:
            failures += 1
    rate = failures / seeds
    _criterion(
        9,
        "stderr slope -0.5 +/- 0.05 and Chebyshev failure rate <= delta at full budget",
        abs(slope + 0.5) <= 0.05 and rate <= 0.1,
        f"slope {slope:.3f}, failure rate {rate:.3f} over {seeds} seeds",
    )


def test_criterion_10_direct_estimator_comparisons():
    # (a) unbiasedness of both direct estimators, n=1, alpha=2, 10^3 seeds
    psi = phase_state(PI4)
    exact = a_alpha_exact(psi, 2)
    e = pauli_expectations(psi)
    rng = np.random.default_rng(1001)
    gamma_vals = np.array(
        [direct_gamma_estimate(e, 2, 250, rng)[0] for _ in range(1000)]
    )
    gamma_se = gamma_vals.std(ddof=1) / math.sqrt(len(gamma_vals))
    gamma_dev = abs(gamma_vals.mean() - exact)

    single_vals = np.array(
        [
            direct_single_copy_estimate(
                e, 2, 0.05, 0.1, rng, shots_per_string=40_000
            )[0]
            for _ in range(1000)
        ]
    )
    single_se = single_vals.std(ddof=1) / math.sqrt(len(single_vals))
    single_dev = abs(single_vals.mean() - exact)

    # (b) copies-for-equal-rmse ordering at n=2, alpha=2
    psi2 = haar_random_state(2, np.random.default_rng(77))
    exact2 = a_alpha_exact(psi2, 2)
    e2 = pauli_expectations(psi2)
    eps, delta = 0.1, 0.1
    swap_budget = copies_required(2, 4, eps, delta)
    swap_errs, single_errs = [], []
    single_copies = 0
    for seed in range(30):
        rep_s = run_estimation(
            EstimationRequest(
                state=psi2, alpha=2, epsilon=eps, delta=delta,
                method=PreparationMethod.COHERENT, seed=seed,
            )
        )
        swap_errs.append(rep_s.a_hat - exact2)
        a_hat_d, single_copies = direct_single_copy_estimate(
            e2, 2, eps, delta, np.random.default_rng(5000 + seed)
        )
        single_errs.append(a_hat_d - exact2)
    swap_rmse = float(np.sqrt(np.mean(np.square(swap_errs))))
    single_rmse = float(np.sqrt(np.mean(np.square(single_errs))))

    ok = (
        gamma_dev <= 3 * gamma_se
        and single_dev <= 3 * single_se
        and single_copies > swap_budget.copies_of_psi
        and swap_rmse <= eps
        and single_rmse <= eps
    )
    _criterion(
        10,
        "direct estimators unbiased (3 stderr, 10^3 seeds); single-copy needs more copies at equal rmse",
        ok,
        (
            f"gamma dev {gamma_dev:.2e} vs 3se {3 * gamma_se:.2e}; "
            f"single dev {single_dev:.2e} vs 3se {3 * single_se:.2e}; "
            f"copies {single_copies} > {swap_budget.copies_of_psi}; "
            f"rmse swap {swap_rmse:.3f}, single {single_rmse:.3f}"
        ),
    )
