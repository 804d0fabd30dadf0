"""Benchmark-machinery tests: replica observable, entanglement identity,
accuracy sweep, and the direct-estimation baselines."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import sre_purity.bench as bench
import sre_purity.oracle as oracle
import sre_purity.pipeline as pipeline
from sre_purity.bench import (
    _StateWords,
    _task_streams,
    build_gamma,
    complexity_table,
    direct_gamma_estimate,
    direct_single_copy_estimate,
    gamma_tensor_max_abs_eig,
    replica_expectation,
    sweep_theta,
    entanglement_identity_residual,
)
from sre_purity.cli import main
from sre_purity.clifford import haar_random_state
from sre_purity.errors import SizeGuardError
from sre_purity.estimation import budget_ceil, copies_required, estimate_purity
from sre_purity.oracle import a_alpha_exact, pauli_expectations
from sre_purity.paulis import pauli_from_index
from sre_purity.pipeline import EstimationRequest, run_estimation
from sre_purity.states import phase_state, renyi_entanglement, schmidt_spectrum, zero_state
from sre_purity.channels import PreparationMethod, coherent_prepare

PI4 = math.pi / 4


def _task_seed(master_seed, key):
    """The per-task seed the tables derive, straight from numpy."""
    ss = np.random.SeedSequence(master_seed, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# replica observable


def test_gamma_one_is_swap():
    swap = np.zeros((4, 4))
    swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
    assert np.abs(build_gamma(1) - swap).max() == 0.0
    for alpha in range(1, 6):
        gamma = build_gamma(alpha)
        assert gamma.dtype == np.float64
        assert not gamma.flags.writeable
        assert np.array_equal(gamma, gamma.T)


@pytest.mark.parametrize("alpha", [1, 2, 3, 4, 5])
def test_gamma_is_the_sum_of_the_four_pauli_powers(alpha):
    # (1/2) sum_Q Q^{(x)2a}: Q^{(x)m} repeats Q's x and z bits on every qubit
    m = 2 * alpha
    ones = (1 << m) - 1
    powers = [pauli_from_index(m, ones * (j & 1) | (ones << m) * (j >> 1)) for j in range(4)]
    expected = sum(p.to_dense() for p in powers) / 2.0
    assert np.array_equal(build_gamma(alpha), expected)


def test_gamma_norm_parity():
    for n in (1, 2):
        for alpha in (1, 2, 3, 4):
            expected = 2.0**n if alpha % 2 == 0 else 1.0
            assert gamma_tensor_max_abs_eig(alpha, n) == pytest.approx(expected, abs=1e-9)


def test_gamma_norms_take_one_spectrum_per_alpha(monkeypatch, capsys):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(matrix):
        calls.append(matrix.shape)
        return eigvalsh(matrix)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    assert main(["verify", "--suite", "replica"]) == 0
    assert "[FAIL]" not in capsys.readouterr().out
    assert calls == [(4, 4), (16, 16), (64, 64), (256, 256)]


def test_gamma_two_eigenvalue_range():
    eigs = np.linalg.eigvalsh(build_gamma(2))
    assert eigs.min() >= -2 - 1e-9 and eigs.max() <= 2 + 1e-9
    assert np.abs(eigs).max() == pytest.approx(2.0, abs=1e-9)


def test_gamma_guard():
    # Gamma_6 would be a 4096 x 4096 float64 matrix (128 MiB)
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError):
            build_gamma(6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_replica_examples():
    assert replica_expectation(zero_state(1), 2) == pytest.approx(1.0, abs=1e-10)
    assert replica_expectation(phase_state(PI4), 2) == pytest.approx(0.75, abs=1e-10)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_replica_matches_oracle_on_haar(n, alpha):
    if 2 * alpha * n > 20:
        pytest.skip("guard")
    rng = np.random.default_rng(7 * n + alpha)
    for _ in range(5):
        psi = haar_random_state(n, rng)
        assert replica_expectation(psi, alpha) == pytest.approx(
            a_alpha_exact(psi, alpha), abs=1e-10
        )


# ---------------------------------------------------------------------------
# entanglement identity


def test_entanglement_identity_stabilizer_input():
    for alpha in (1, 2, 3):
        assert entanglement_identity_residual(zero_state(1), alpha) < 1e-9
    # stabilizer input: the preparation is maximally entangled, E_2 = ln d
    prepared = coherent_prepare(zero_state(1), 2)
    e2 = renyi_entanglement(schmidt_spectrum(prepared, (2, 3)), 2)
    assert e2 == pytest.approx(math.log(2), abs=1e-9)


def test_entanglement_identity_pi_over_4_value():
    # E_2 = ln d - ln A_2 = ln(8/3) for the pi/4 state at alpha = 2
    prepared = coherent_prepare(phase_state(PI4), 2)
    e2 = renyi_entanglement(schmidt_spectrum(prepared, (2, 3)), 2)
    assert e2 == pytest.approx(math.log(8 / 3), abs=1e-9)
    assert math.log(8 / 3) == pytest.approx(0.9808292530117262, abs=1e-12)
    assert entanglement_identity_residual(phase_state(PI4), 2) < 1e-9


def test_entanglement_identity_haar_states():
    rng = np.random.default_rng(13)
    for n in (1, 2):
        for alpha in (1, 2, 3):
            assert entanglement_identity_residual(haar_random_state(n, rng), alpha) < 1e-9


# ---------------------------------------------------------------------------
# seeded streams of a table


@pytest.mark.parametrize("master", [0, 1, 2**32 - 1, 2**32, 2**70])
def test_task_streams_match_numpy_seed_sequences(master):
    keys = [(alpha, ti) for alpha in (2, 2**32, 10**30) for ti in (0, 1)]
    seeds, words = _task_streams(master, keys, 3)
    row = 0
    for key in keys:
        for s in range(3):
            ts = _task_seed(master, key + (s,))
            assert int(seeds[row]) == ts
            expected = np.random.SeedSequence(ts).generate_state(4, np.uint64)
            assert np.array_equal(words[row], expected)
            rng = np.random.Generator(np.random.PCG64(_StateWords(words[row])))
            reference = np.random.default_rng(np.random.SeedSequence(ts))
            assert rng.binomial(10**6, 0.3) == reference.binomial(10**6, 0.3)
            row += 1


@pytest.mark.parametrize("task_seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_task_seed_words_match_numpy_at_every_width(task_seed):
    # a task seed below 2^32 is one entropy word, which hashes as two
    entropy = np.array([[task_seed & 0xFFFFFFFF, task_seed >> 32, 0, 0]], np.uint32)
    words = bench._generate_state(bench._pools(entropy), 4)[0]
    assert np.array_equal(words, np.random.SeedSequence(task_seed).generate_state(4, np.uint64))


# ---------------------------------------------------------------------------
# sweep


def test_sweep_structure_and_budget():
    rows = sweep_theta([2], np.linspace(0, math.pi / 2, 3), 0.05, 0.1, n_seeds=2)
    assert len(rows) == 6
    for row in rows:
        assert row.copies_used == 32000
        assert row.a_exact == pytest.approx(
            0.5 * (1 + math.cos(row.theta) ** 4 + math.sin(row.theta) ** 4), abs=1e-12
        )
        assert row.within_eps == (row.abs_error <= 0.05)
    zero_rows = [r for r in rows if r.theta == 0.0]
    assert all(r.a_exact == 1.0 for r in zero_rows)
    assert all(r.within_eps for r in zero_rows)


def test_sweep_deterministic():
    grid = np.linspace(0, math.pi / 2, 3)
    a = sweep_theta([2, 3], grid, 0.05, 0.1, n_seeds=2, master_seed=5)
    b = sweep_theta([2, 3], grid, 0.05, 0.1, n_seeds=2, master_seed=5)
    assert a == b
    c = sweep_theta([2, 3], grid, 0.05, 0.1, n_seeds=2, master_seed=6)
    assert any(ra.a_hat != rc.a_hat for ra, rc in zip(a, c))


@pytest.mark.parametrize("method", [PreparationMethod.COHERENT, PreparationMethod.INCOHERENT])
def test_sweep_rows_equal_per_seed_runs(method):
    grid = np.linspace(0, math.pi / 2, 3)
    rows = sweep_theta([2, 3], grid, 0.1, 0.1, n_seeds=2, method=method, master_seed=5)
    expected = []
    for alpha in (2, 3):
        for ti, theta in enumerate(grid):
            for s in range(2):
                rep = run_estimation(
                    EstimationRequest(
                        state=phase_state(theta),
                        alpha=alpha,
                        epsilon=0.1,
                        delta=0.1,
                        method=method,
                        seed=_task_seed(5, (alpha, ti, s)),
                    )
                )
                expected.append((rep.a_hat, rep.copies_used))
    assert [(r.a_hat, r.copies_used) for r in rows] == expected


def test_default_sweep_evaluates_expectations_once_per_angle(monkeypatch):
    calls = []
    original = oracle.pauli_expectations

    def counted(psi):
        calls.append(psi)
        return original(psi)

    # every binding of the function, as the benchmark's tracer counts it
    for module in (oracle, bench, pipeline):
        monkeypatch.setattr(module, "pauli_expectations", counted)
    grid = np.linspace(0, math.pi / 2, 9)
    rows = sweep_theta([2, 3, 5, 7], grid, 0.05, 0.1, n_seeds=10)
    assert len(rows) == 360
    assert len(calls) == 9


# ---------------------------------------------------------------------------
# direct estimators


def test_direct_gamma_zero_noise_limit():
    e = pauli_expectations(phase_state(PI4))
    a_hat, copies = direct_gamma_estimate(e, 2, 2_000_000, np.random.default_rng(3))
    assert abs(a_hat - 0.75) < 0.005
    assert copies == 4 * 2_000_000 * 4  # d^2 strings, 2 alpha copies each


def test_direct_gamma_seeded_run_within_tolerance():
    e = pauli_expectations(phase_state(PI4))
    a_hat, _ = direct_gamma_estimate(e, 2, 10_000, np.random.default_rng(12))
    assert abs(a_hat - 0.75) < 0.05


def test_direct_gamma_unbiased():
    e = pauli_expectations(phase_state(PI4))
    rng = np.random.default_rng(21)
    vals = np.array([direct_gamma_estimate(e, 2, 250, rng)[0] for _ in range(1000)])
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - 0.75) < 3 * se


def test_direct_single_copy_zero_noise_limit():
    e = pauli_expectations(phase_state(PI4))
    a_hat, _ = direct_single_copy_estimate(
        e, 2, 0.05, 0.1, np.random.default_rng(4), shots_per_string=4_000_000
    )
    assert abs(a_hat - 0.75) < 0.005


def test_direct_single_copy_zero_state_small_strings_vanish():
    # for |0> only I and Z carry signal; X and Y contribute O(k^-alpha)
    e = pauli_expectations(zero_state(1))
    a_hat, _ = direct_single_copy_estimate(
        e, 2, 0.05, 0.1, np.random.default_rng(5), shots_per_string=100_000
    )
    assert abs(a_hat - 1.0) < 0.01


def test_direct_single_copy_budget_scaling_in_d():
    # copies = d^2 * ceil((2 alpha d / eps)^2 / delta) ~ alpha^2 d^4 eps^-2
    eps, delta, alpha = 0.2, 0.5, 2
    copies = {}
    for n in (1, 2):
        e = pauli_expectations(zero_state(n))
        _, copies[2**n] = direct_single_copy_estimate(e, alpha, eps, delta,
                                                      np.random.default_rng(0))
    exponent = math.log(copies[4] / copies[2]) / math.log(2)
    assert abs(exponent - 4.0) < 0.3


def test_complexity_table_orderings():
    psi = haar_random_state(2, np.random.default_rng(42))
    rows = complexity_table(
        ["swap_purity", "direct_single_copy"], [2], [0.1], 12, psi, master_seed=3
    )
    by_method = {r.method: r for r in rows}
    swap, single = by_method["swap_purity"], by_method["direct_single_copy"]
    assert swap.empirical_rmse <= 0.1
    assert single.copies > swap.copies
    assert swap.copies == copies_required(2, 4, 0.1, 0.1).copies_of_psi


def test_complexity_swap_rows_equal_per_seed_runs():
    psi = haar_random_state(2, np.random.default_rng(42))
    epsilons = [0.1, 0.2]
    rows = complexity_table(["swap_purity"], [2, 3], epsilons, 3, psi, master_seed=4)
    expected = []
    for alpha in (2, 3):
        exact = a_alpha_exact(psi, alpha)
        for ei, eps in enumerate(epsilons):
            reps = [
                run_estimation(
                    EstimationRequest(
                        state=psi,
                        alpha=alpha,
                        epsilon=eps,
                        delta=0.1,
                        method=PreparationMethod.COHERENT,
                        seed=_task_seed(4, (0, alpha, ei, s)),
                    )
                )
                for s in range(3)
            ]
            rmse = float(np.sqrt(np.mean(np.square([r.a_hat - exact for r in reps]))))
            expected.append((alpha, eps, reps[0].copies_used, rmse))
    assert [(r.alpha, r.epsilon_target, r.copies, r.empirical_rmse) for r in rows] == expected


def test_complexity_table_evaluates_expectations_once(monkeypatch):
    calls = []
    original = oracle.pauli_expectations

    def counted(psi):
        calls.append(psi)
        return original(psi)

    # every binding of the function, as the benchmark's tracer counts it
    for module in (oracle, bench, pipeline):
        monkeypatch.setattr(module, "pauli_expectations", counted)
    psi = haar_random_state(2, np.random.default_rng(42))
    methods = ["swap_purity", "direct_gamma", "direct_single_copy"]
    complexity_table(methods, [2, 3], [0.1, 0.2], 4, psi, master_seed=3)
    assert calls == [psi]


def test_complexity_direct_rows_equal_per_seed_runs():
    psi = haar_random_state(3, np.random.default_rng(9))  # haar:3:9
    e = pauli_expectations(psi)
    epsilons, delta, n_seeds = [0.2, 0.3], 0.1, 3
    methods = ["direct_gamma", "direct_single_copy"]
    rows = complexity_table(methods, [2, 3], epsilons, n_seeds, psi, delta=delta, master_seed=8)
    expected = []
    for mi, method in enumerate(methods, start=1):
        for alpha in (2, 3):
            exact = a_alpha_exact(psi, alpha)
            for ei, eps in enumerate(epsilons):
                reps = []
                for s in range(n_seeds):
                    ts = _task_seed(8, (mi, alpha, ei, s))
                    rng = np.random.default_rng(np.random.SeedSequence(ts))
                    if method == "direct_gamma":
                        k = budget_ceil(1, eps, delta)
                        reps.append(direct_gamma_estimate(e, alpha, k, rng))
                    else:
                        reps.append(direct_single_copy_estimate(e, alpha, eps, delta, rng))
                rmse = float(np.sqrt(np.mean(np.square([a_hat - exact for a_hat, _ in reps]))))
                expected.append((method, alpha, eps, reps[0][1], rmse))
    got = [(r.method, r.alpha, r.epsilon_target, r.copies, r.empirical_rmse) for r in rows]
    assert got == expected


def test_direct_gamma_is_finite_at_huge_alpha():
    # <I> rounds to 1 + 1e-16 on this state; its power must not overflow
    e = pauli_expectations(haar_random_state(1, np.random.default_rng(1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a_hat, _ = direct_gamma_estimate(e, 10**30, 1000, np.random.default_rng(2))
    assert math.isfinite(a_hat)


def test_complexity_rmse_scaling_with_copies():
    # quadrupling the shot count halves the rmse: slope -1/2 on log-log
    psi = phase_state(PI4)
    exact = 0.75
    rng = np.random.default_rng(11)
    shot_grid = [100, 1000, 10_000, 100_000]
    rmses = []
    gamma = a_alpha_exact(psi, 2) / 2  # the incoherent route's gamma
    for shots in shot_grid:
        errs = [2 * estimate_purity(gamma, shots, rng)[0] - exact for _ in range(120)]
        rmses.append(float(np.sqrt(np.mean(np.square(errs)))))
    slope = np.polyfit(np.log(shot_grid), np.log(rmses), 1)[0]
    assert abs(slope + 0.5) < 0.05
