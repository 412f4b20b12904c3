"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import math
import time

import numpy as np

import ctmcgap as cg
from conftest import (THREE_STATE_DUAL, THREE_STATE_GAP, THREE_STATE_PI,
                      THREE_STATE_SYM, random_birth_death, scipy_csr)


def _finish(number, ok, detail, elapsed=None, budget=None):
    if budget is not None and elapsed is not None:
        ok = ok and elapsed < budget
        detail += f"; {elapsed:.2f}s of {budget:.0f}s budget"
    line = f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_three_state_golden_values():
    t0 = time.perf_counter()
    Q = cg.build_three_state()
    pi = cg.stationary_distribution(Q)
    pi_err = float(np.max(np.abs(pi.probs - THREE_STATE_PI)))
    Qbar = cg.additive_symmetrization(Q, pi).to_dense()
    # the time reversal is 2 Qbar - Q
    dual_err = float(np.max(np.abs(
        2.0 * Qbar - Q.to_dense() - THREE_STATE_DUAL)))
    sym_err = float(np.max(np.abs(Qbar - THREE_STATE_SYM)))
    gap_err = abs(cg.spectral_gap(Q, pi).gap - THREE_STATE_GAP)
    ok = (gap_err < 1e-10 and pi_err < 1e-12 and dual_err < 1e-12
          and sym_err < 1e-12)
    _finish(1, ok,
            f"gap err {gap_err:.2e}, pi err {pi_err:.2e}, "
            f"reversal err {dual_err:.2e}, symmetrization err {sym_err:.2e}",
            time.perf_counter() - t0, 1.0)


def test_criterion_2_birth_death_closed_form():
    t0 = time.perf_counter()
    errs = {}
    for N in (10, 50, 200):
        Q = cg.build_birth_death([2.0] * N, [1.0] * N)
        errs[N] = abs(cg.spectral_gap(Q).gap
                      - cg.bd_closed_form_gap(2.0, 1.0, N))
    ok = all(e < 1e-8 for e in errs.values())
    _finish(2, ok,
            "closed-form errors " +
            ", ".join(f"N={n}: {e:.2e}" for n, e in errs.items()),
            time.perf_counter() - t0, 5.0)


def test_criterion_3_truncation_convergence():
    t0 = time.perf_counter()
    model = cg.CountableModel.birth_death(2.0, 1.0)
    limit = (math.sqrt(2.0) - 1.0) ** 2
    sweep = cg.gap_convergence_sweep(model, [50, 100, 200, 500],
                                     limit_hint=limit)
    dists = [abs(g - limit) for g in sweep.gaps]
    decreasing = all(b < a for a, b in zip(dists, dists[1:]))
    ok = decreasing and dists[-1] < 1e-3
    _finish(3, ok,
            "distances to limit " + ", ".join(f"{d:.2e}" for d in dists),
            time.perf_counter() - t0, 30.0)


def test_criterion_4_skeleton_expansion():
    t0 = time.perf_counter()
    Q = cg.build_three_state()
    table = cg.skeleton_gap_check(Q, THREE_STATE_PI, deltas=(0.1, 0.05, 0.01))
    errors = [r.abs_error for r in table.rows]
    decreasing = errors[0] > errors[1] > errors[2]
    rel_final = errors[2] / table.gap_reference
    P1 = cg.transition_matrix_exp(Q, 0.05)
    P2 = cg.transition_matrix_exp(Q, 0.1)
    semigroup = float(np.max(np.abs(P1.matrix @ P1.matrix - P2.matrix)))
    ok = decreasing and rel_final < 0.02 and semigroup < 1e-10
    _finish(4, ok,
            f"ratio errors {errors[0]:.3f} > {errors[1]:.3f} > "
            f"{errors[2]:.4f}, final rel {rel_final:.2%}, "
            f"semigroup defect {semigroup:.2e}",
            time.perf_counter() - t0)


def test_criterion_5_monte_carlo_verification():
    t0 = time.perf_counter()
    Q = cg.build_three_state()
    g = cg.ObservableFunction([0.0, 0.0, 1.0], 0.0, 1.0)
    kwargs = dict(t=20.0, eps_grid=[0.05, 0.1, 0.15, 0.2], reps=20_000,
                  seed=12345)
    report = cg.verify(Q, g, **kwargs)
    rerun = cg.verify(Q, g, **kwargs)
    identical = report.to_json() == rerun.to_json()
    rows_ok = all(
        r.verdict == "PASS"
        and r.p_hat <= r.bound_main + (r.ci_upper - r.p_hat)
        for r in report.rows)
    ok = rows_ok and identical and report.all_pass
    detail = ", ".join(
        f"eps={r.eps:g}: p_hat={r.p_hat:.4f} <= bound={r.bound_main:.4f}"
        for r in report.rows)
    _finish(5, ok, detail + f"; byte-identical rerun: {identical}",
            time.perf_counter() - t0, 60.0)


def test_criterion_6_bound_ordering():
    t0 = time.perf_counter()
    lam = THREE_STATE_GAP
    worst_ratio_err = 0.0
    ordered = True
    count = 0
    for t in np.linspace(0.5, 50.0, 10):
        for eps in np.linspace(0.02, 0.5, 10):
            cmp = cg.lezaud_bound(lam, float(t), float(eps))
            count += 1
            ordered &= cmp.improved <= cmp.classical
            ratio = math.log(cmp.improved) / math.log(cmp.classical)
            worst_ratio_err = max(worst_ratio_err, abs(ratio - 3.0))
    ok = ordered and count == 100 and worst_ratio_err < 1e-9
    _finish(6, ok,
            f"{count}-point grid ordered, exponent ratio within "
            f"{worst_ratio_err:.2e} of 3",
            time.perf_counter() - t0)


def test_criterion_7_lower_bounds_consistent():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240817)
    weighted_ok = True
    worst_margin = math.inf
    for _ in range(100):
        a, b = random_birth_death(rng)
        lb = cg.bd_lower_bound(a, b).lower_bound
        gap = cg.spectral_gap(cg.build_birth_death(a, b)).gap
        weighted_ok &= lb <= gap + 1e-9
        worst_margin = min(worst_margin, gap - lb)
    # drift certificates on downward-drift chains
    drift_ok = True
    for _ in range(20):
        n = int(rng.integers(2, 25))
        b = rng.uniform(0.2, 1.0, size=n)
        # every death rate beats every birth rate, so V = z^i drifts down
        a = float(np.max(b)) * rng.uniform(1.5, 4.0, size=n)
        Q = cg.build_birth_death(a, b)
        z = math.sqrt(1.5)
        V = z ** np.arange(n + 1)
        drift = scipy_csr(Q) @ V
        beta = min(-drift[i] / V[i] for i in range(1, n + 1))
        rep = cg.drift_certificate_check(Q, V, beta, 0)
        drift_ok &= rep.certified and beta <= cg.spectral_gap(Q).gap + 1e-9
    ok = weighted_ok and drift_ok
    _finish(7, ok,
            f"weighted bound held on 100 chains (worst margin "
            f"{worst_margin:.2e}); 20 certified drift rates below the gap",
            time.perf_counter() - t0)


def test_criterion_8_nu_bound_reduction():
    t0 = time.perf_counter()
    exact = all(
        cg.nu_initial_bound(lam, t, eps, 0.0, 1.0, math.inf, 1.0)
        == cg.ctmc_hoeffding_bound(lam, t, eps, 0.0, 1.0)
        for lam, t, eps in [(THREE_STATE_GAP, 20.0, 0.05), (1.0, 1.0, 1.0),
                            (0.7, 33.0, 0.21)])
    point_mass = np.array([1.0, 0.0, 0.0])
    norm_err = abs(cg.density_pnorm(point_mass, THREE_STATE_PI, 2.0)
                   - math.sqrt(3.0))
    ok = exact and norm_err < 1e-12
    _finish(8, ok,
            f"sup-norm reduction exact: {exact}; point-mass quadratic norm "
            f"within {norm_err:.2e} of sqrt(3)",
            time.perf_counter() - t0)


def test_criterion_9_dtmc_classical_reduction():
    t0 = time.perf_counter()
    grid = [(n, eps) for n in (1, 10, 100, 1000)
            for eps in (0.05, 0.1, 0.25, 0.5, 0.9)]
    exact = all(
        cg.dtmc_hoeffding_bound(lam, n, eps, 0.0, 1.0)
        == math.exp(-2.0 * n * eps ** 2 / 1.0 ** 2)
        for n, eps in grid for lam in (0.0, -0.5))
    ok = exact and len(grid) == 20
    _finish(9, ok,
            f"classical reduction exact on {len(grid)}-point grid "
            "(lambda_P in {0, -0.5})",
            time.perf_counter() - t0)
