import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ctmcgap import generator
from ctmcgap import (GeneratorMatrix, InvalidInputError,
                     NumericalFailureError, ObservableFunction,
                     bd_closed_form_gap, bd_lower_bound, build_birth_death,
                     dirichlet_form, drift_certificate_check,
                     rayleigh_quotient, spectral_gap, stationary_distribution,
                     symmetrized_form, verify)
from conftest import THREE_STATE_GAP, THREE_STATE_PI, random_birth_death


# ------------------------------------------------------------------------ gap

def test_gap_three_state(three_state):
    rep = spectral_gap(three_state, THREE_STATE_PI)
    assert abs(rep.gap - THREE_STATE_GAP) < 1e-10
    assert rep.method == "dense"
    assert rep.residual < 1e-12
    assert rep.trivial_residual < 1e-12
    assert not rep.degenerate


def test_gap_two_state(two_state):
    # rates b=2 up, a=1 down: gap is a + b
    rep = spectral_gap(two_state)
    assert abs(rep.gap - 3.0) < 1e-12


def test_gap_solves_stationary_when_omitted(three_state):
    assert abs(spectral_gap(three_state).gap - THREE_STATE_GAP) < 1e-10


def test_gap_single_state_degenerate():
    rep = spectral_gap(GeneratorMatrix(np.zeros((1, 1))))
    assert rep.degenerate and math.isinf(rep.gap)


def test_gap_dense_vs_lanczos():
    # same answer through two independent solver routes
    Q = build_birth_death([2.0] * 60, [1.0] * 60)
    pi = stationary_distribution(Q)
    dense = spectral_gap(Q, pi, method="dense")
    lanczos = spectral_gap(Q, pi, method="lanczos")
    assert lanczos.method == "lanczos" and lanczos.iterations > 0
    assert abs(dense.gap - lanczos.gap) < 1e-12


def test_gap_matches_symmetrized_chain(three_state):
    from ctmcgap import additive_symmetrization
    Qbar = additive_symmetrization(three_state, THREE_STATE_PI)
    assert abs(spectral_gap(three_state, THREE_STATE_PI).gap
               - spectral_gap(Qbar, THREE_STATE_PI).gap) < 1e-10


def test_gap_eigenvector_contract(three_state):
    rep = spectral_gap(three_state, THREE_STATE_PI)
    f = rep.eigenvector
    assert abs(THREE_STATE_PI @ f) < 1e-12             # centered
    assert abs(THREE_STATE_PI @ f ** 2 - 1.0) < 1e-12  # unit pi-norm
    assert abs(rayleigh_quotient(three_state, THREE_STATE_PI, f)
               - rep.gap) < 1e-10


def test_gap_dense_spectrum_contains_zero_mode(three_state):
    rep = spectral_gap(three_state, THREE_STATE_PI, method="dense")
    assert rep.eigenvalues is not None
    assert np.min(np.abs(rep.eigenvalues)) < 1e-12


def test_gap_rejects_wrong_pi(three_state):
    with pytest.raises(NumericalFailureError, match="stationary"):
        spectral_gap(three_state, np.array([0.5, 0.25, 0.25]))


def test_gap_rejects_inaccurate_eigenpair(perturbed_eigensolver,
                                          three_state):
    with pytest.raises(NumericalFailureError, match="residual"):
        spectral_gap(three_state, THREE_STATE_PI)


def test_symmetrized_form_is_symmetric(three_state):
    S, sq = symmetrized_form(three_state, THREE_STATE_PI)
    assert np.max(np.abs(S - S.T)) <= 1e-12 * three_state.max_rate()
    assert np.linalg.norm(S @ sq) < 1e-12  # sqrt(pi) spans the zero mode


def test_gap_report_json(three_state):
    rep = spectral_gap(three_state)
    d = rep.to_dict()
    assert set(d) == {"gap", "method", "residual", "iterations"}
    assert isinstance(d["gap"], float)


# ------------------------------------------------- birth-death (tridiagonal)

@pytest.mark.parametrize("down, up", [(2.0, 1.0), (1.1, 1.0)])
@pytest.mark.parametrize("N", [1000, 1500, 2001, 3000, 10 ** 5, 10 ** 6])
def test_bd_gap_matches_closed_form_at_scale(N, down, up):
    # pi underflows at 1 500 states for (2, 1), and above 2 000 states the
    # stationary solve used to stop early and give a wrong gap
    rep = spectral_gap(build_birth_death(np.full(N, down), np.full(N, up)))
    ref = bd_closed_form_gap(down, up, N)
    assert abs(rep.gap - ref) <= 1e-10 * ref
    assert rep.method == "tridiagonal" and rep.iterations == 0


def test_bd_gap_needs_no_elimination(monkeypatch):
    def refuse(*args):
        raise AssertionError("general solver called for a birth-death chain")

    monkeypatch.setattr(generator, "_gth_solve", refuse)
    monkeypatch.setattr(generator, "_power_iteration_solve", refuse)
    rep = spectral_gap(build_birth_death([2.0] * 20, [1.0] * 20))
    assert abs(rep.gap - bd_closed_form_gap(2.0, 1.0, 20)) < 1e-12


def _permuted(Q, order):
    # new state k is old state order[k]
    return GeneratorMatrix(Q.matrix[order][:, order])


@settings(max_examples=20, deadline=None)
@given(st.one_of(st.integers(1, 6), st.integers(496, 503)),
       st.integers(0, 2 ** 32 - 1))
def test_bd_tridiagonal_gap_matches_general_paths(N, seed):
    # sizes straddle the 4-state Lanczos floor and the 500-state dense
    # cutoff.  The general path solves pi in linear scale, so the rates keep
    # every pi entry above 1e-300; their drift toward 0 keeps the gap away
    # from 0, where solvers with absolute error agree to relative 1e-10
    rng = np.random.default_rng(seed)
    Q = build_birth_death(rng.uniform(1.5, 2.0, N), rng.uniform(0.6, 1.0, N))
    rep = spectral_gap(Q)
    assert rep.method == "tridiagonal"
    dense = spectral_gap(Q, method="dense")
    assert dense.method == "dense"
    assert abs(rep.gap - dense.gap) <= 1e-10 * dense.gap
    order = rng.permutation(N + 1)
    permuted = _permuted(Q, order)
    assume(not np.all(np.abs(np.diff(order)) == 1))  # still tridiagonal
    other = spectral_gap(permuted)
    assert other.method in ("dense", "lanczos")
    assert abs(rep.gap - other.gap) <= 1e-9 * other.gap


def test_permuted_bd_gap_by_elimination_or_refusal():
    # relabelled, a birth-death chain takes the general pi solve.  Power
    # iteration, used above 2 000 states until the elimination cutoff rose
    # to 4 096, returned a gap of 1.3e-4 for (1.1, 1) and 2.1e-3 for
    # (2, 1) at this size.  The pi of (2, 1) leaves the double range in
    # linear scale, where the only right answer is a numerical failure
    N = 2500
    order = np.random.default_rng(0).permutation(N + 1)

    def permuted(down):
        return _permuted(build_birth_death(np.full(N, down), np.ones(N)),
                         order)

    ref = bd_closed_form_gap(1.1, 1.0, N)
    assert abs(spectral_gap(permuted(1.1)).gap - ref) <= 1e-10 * ref
    with pytest.raises(NumericalFailureError):
        spectral_gap(permuted(2.0))


def test_bd_gap_rejects_inaccurate_eigenpair(perturbed_tridiagonal_solver):
    with pytest.raises(NumericalFailureError, match="residual"):
        spectral_gap(build_birth_death([2.0] * 30, [1.0] * 30))


def test_bd_gap_rejects_wrong_pi():
    Q = build_birth_death([2.0] * 30, [1.0] * 30)
    with pytest.raises(NumericalFailureError, match="stationary"):
        spectral_gap(Q, np.full(31, 1.0 / 31))
    pi = stationary_distribution(Q).probs.copy()
    pi[5] = 0.0
    with pytest.raises(InvalidInputError, match="positive"):
        spectral_gap(Q, pi)


def test_bd_gap_rejects_non_conservative_diagonal():
    # the product form is stationary only when rows sum to zero
    Q = GeneratorMatrix.from_rates(3, [(0, 1, 1.0), (1, 0, 2.0), (1, 2, 1.0),
                                       (2, 1, 2.0), (2, 2, -3.0)])
    with pytest.raises(NumericalFailureError, match="stationary"):
        spectral_gap(Q)


@pytest.mark.parametrize("n", [3, 2200])
def test_bd_gap_zero_rate_is_reducible(n):
    # no way down from the top state: a tridiagonal but reducible chain
    rates = [(i, i + 1, 1.0) for i in range(n - 1)]
    rates += [(i, i - 1, 2.0) for i in range(1, n - 1)]
    Q = GeneratorMatrix.from_rates(n, rates)
    with pytest.raises(InvalidInputError, match="reducible"):
        spectral_gap(Q)
    with pytest.raises(InvalidInputError, match="reducible"):
        stationary_distribution(Q)


def _two_rings(n):
    # two disjoint directed rings of n states each
    rates = [(i, (i + 1) % n, 1.0) for i in range(n)]
    rates += [(n + i, n + (i + 1) % n, 2.0) for i in range(n)]
    return GeneratorMatrix.from_rates(2 * n, rates), None


def _split_birth_death(n):
    # two birth-death blocks of n states joined by a zero rate both ways;
    # any mixture of the block laws is a positive stationary pi
    Q = build_birth_death([2.0] * (2 * n - 1), [1.0] * (2 * n - 1))
    M = Q.matrix.tolil()
    M[n - 1, n] = M[n, n - 1] = 0.0
    M.setdiag(0.0)
    M.setdiag(-np.asarray(M.sum(axis=1)).ravel())
    block = stationary_distribution(build_birth_death([2.0] * (n - 1),
                                                      [1.0] * (n - 1))).probs
    return GeneratorMatrix(M.tocsr()), np.concatenate([block, block]) / 2


@pytest.mark.parametrize("chain", [lambda: _two_rings(1100),
                                   lambda: _split_birth_death(5)],
                         ids=["two-rings", "split-birth-death"])
def test_reducible_chain_is_invalid_input(chain):
    # refused before any solver runs, given pi or not; the two-ring chain
    # used to get a gap of about 1e-16 and no error
    Q, pi = chain()
    if pi is not None:
        generator._check_stationary(pi, Q.matrix, Q.max_rate(), "stationary")
    with pytest.raises(InvalidInputError, match="reducible"):
        stationary_distribution(Q)
    with pytest.raises(InvalidInputError, match="reducible"):
        spectral_gap(Q, pi)


def test_one_band_scan_per_gap_and_verify(monkeypatch):
    scans = []
    scan = generator._band_rates

    def counting(M):
        scans.append(M.shape[0])
        return scan(M)

    monkeypatch.setattr(generator, "_band_rates", counting)
    spectral_gap(build_birth_death([2.0] * 40, [1.0] * 40))
    assert scans == [41]
    verify(build_birth_death([2.0] * 10, [1.0] * 10),
           ObservableFunction(np.arange(11) / 10.0, 0.0, 1.0), t=1.0,
           eps_grid=[0.5], reps=10, seed=1)
    assert scans == [41, 11]


@settings(max_examples=12, deadline=None)
@given(st.one_of(st.integers(2, 6), st.integers(497, 503)),
       st.floats(-3.0, 3.0), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_gap_scales_with_the_rates(n, log_c, birth_death, seed):
    # sizes straddle the 4-state Lanczos floor and the 500-state dense
    # cutoff; a general chain is a ring plus random chords, so irreducible
    rng = np.random.default_rng(seed)
    if birth_death:
        Q = build_birth_death(rng.uniform(1.5, 2.0, n - 1),
                              rng.uniform(0.6, 1.0, n - 1))
    else:
        rates = {(i, (i + 1) % n): rng.uniform(0.5, 1.5) for i in range(n)}
        for i, j in rng.integers(0, n, size=(2 * n, 2)):
            if i != j:
                rates[int(i), int(j)] = rng.uniform(0.5, 1.5)
        Q = GeneratorMatrix.from_rates(n, [(i, j, v) for (i, j), v in
                                           rates.items()])
    c = 10.0 ** log_c
    gap = spectral_gap(Q).gap
    scaled = spectral_gap(GeneratorMatrix(c * Q.matrix)).gap
    assert abs(scaled - c * gap) <= 1e-10 * c * gap


def test_bd_gap_eigenvector_contract():
    N = 200
    Q = build_birth_death([2.0] * N, [1.0] * N)
    pi = stationary_distribution(Q).probs
    rep = spectral_gap(Q)
    f = rep.eigenvector
    assert abs(pi @ f) < 1e-12
    assert abs(pi @ f ** 2 - 1.0) < 1e-10
    assert abs(rayleigh_quotient(Q, pi, f) - rep.gap) < 1e-10 * rep.gap


@pytest.mark.parametrize("down, up, finite", [(1.1, 1.0, True),
                                              (2.0, 1.0, False)])
def test_bd_gap_eigenvector_never_inf_or_nan(down, up, finite):
    # with (2, 1) on 3 000 states pi reaches 2^-3000, so 1/sqrt(pi) overflows
    rep = spectral_gap(build_birth_death([down] * 3000, [up] * 3000))
    if finite:
        assert np.all(np.isfinite(rep.eigenvector))
    else:
        assert rep.eigenvector is None


# ------------------------------------------------- Dirichlet form and Rayleigh

def test_dirichlet_constant_is_zero(three_state):
    assert dirichlet_form(three_state, THREE_STATE_PI, [5.0, 5.0, 5.0]) == 0.0


def test_dirichlet_two_state_closed_form(two_state):
    # f = (0, 1): energy is a*b/(a+b) = 2/3
    pi = stationary_distribution(two_state)
    assert abs(dirichlet_form(two_state, pi, [0.0, 1.0]) - 2.0 / 3.0) < 1e-15


def test_dirichlet_unchanged_by_symmetrization(three_state):
    from ctmcgap import additive_symmetrization
    Qbar = additive_symmetrization(three_state, THREE_STATE_PI)
    rng = np.random.default_rng(7)
    for _ in range(20):
        f = rng.standard_normal(3)
        a = dirichlet_form(three_state, THREE_STATE_PI, f)
        b = dirichlet_form(Qbar, THREE_STATE_PI, f)
        assert abs(a - b) < 1e-12 * max(1.0, a)


def test_rayleigh_two_state_eigenfunction(two_state):
    pi = stationary_distribution(two_state)
    assert abs(rayleigh_quotient(two_state, pi, [0.0, 1.0]) - 3.0) < 1e-12


def test_rayleigh_indicator_three_state(three_state):
    # hand-computed: energy 2/3, variance 2/9
    q = rayleigh_quotient(three_state, THREE_STATE_PI, [1.0, 0.0, 0.0])
    assert abs(q - 3.0) < 1e-12


def test_rayleigh_variational_lower_bound(three_state):
    rng = np.random.default_rng(11)
    for _ in range(200):
        f = rng.standard_normal(3)
        q = rayleigh_quotient(three_state, THREE_STATE_PI, f)
        assert q >= THREE_STATE_GAP - 1e-10


def test_rayleigh_rejects_constant(three_state):
    with pytest.raises(InvalidInputError, match="constant"):
        rayleigh_quotient(three_state, THREE_STATE_PI, [2.0, 2.0, 2.0])


# ------------------------------------------------------- birth-death formulas

def test_bd_closed_form_values():
    # N = 1: two states, unit rates, generator [[-1, 1], [1, -1]], gap 2
    assert abs(bd_closed_form_gap(1.0, 1.0, 1) - 2.0) < 1e-15
    # N = 3, symmetric rates: 2 - sqrt(2)
    assert abs(bd_closed_form_gap(1.0, 1.0, 3)
               - (2.0 - math.sqrt(2.0))) < 1e-15
    assert abs(bd_closed_form_gap(2.0, 1.0, math.inf)
               - (math.sqrt(2.0) - 1.0) ** 2) < 1e-15


def test_bd_closed_form_matches_eigensolver():
    for N in (1, 3, 10):
        Q = build_birth_death([2.0] * N, [1.0] * N)
        assert abs(spectral_gap(Q).gap
                   - bd_closed_form_gap(2.0, 1.0, N)) < 1e-10


def test_bd_closed_form_errors():
    with pytest.raises(InvalidInputError):
        bd_closed_form_gap(1.0, 2.0, math.inf)  # transient chain
    with pytest.raises(InvalidInputError):
        bd_closed_form_gap(-1.0, 2.0, 5)
    with pytest.raises(InvalidInputError):
        bd_closed_form_gap(1.0, 2.0, 0)


def test_bd_lower_bound_single_level():
    rep = bd_lower_bound([1.0], [1.0])
    assert rep.mu.tolist() == [1.0, 1.0]
    assert rep.delta == 1.0
    assert rep.lower_bound == 0.25  # true gap is 2


def test_bd_lower_bound_holds_on_ensemble():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        a, b = random_birth_death(rng)
        rep = bd_lower_bound(a, b)
        gap = spectral_gap(build_birth_death(a, b)).gap
        assert rep.lower_bound <= gap + 1e-9
        assert rep.mu[0] == 1.0 and np.all(rep.mu > 0) and rep.delta > 0


def test_bd_lower_bound_scale_covariance():
    # doubling all rates doubles the certified bound
    a = np.array([2.0, 1.5, 3.0])
    b = np.array([1.0, 0.5, 2.0])
    r1 = bd_lower_bound(a, b)
    r2 = bd_lower_bound(2 * a, 2 * b)
    assert abs(r2.lower_bound - 2 * r1.lower_bound) < 1e-12


def test_bd_lower_bound_past_the_double_range():
    # mu_k = 2**-k underflows past level 1 074 and delta, about 2**3000,
    # overflows: the bound reads 0, and no step warns
    a, b = np.full(3000, 2.0), np.full(3000, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = bd_lower_bound(a, b)
    gap = spectral_gap(build_birth_death(a, b)).gap
    assert 0.0 <= rep.lower_bound <= gap


# ------------------------------------------------------------ drift certificate

def test_drift_certificate_two_state(two_state):
    # V = (1, 4), excluded state 0: (QV)(1) = 1 - 4 = -3 = -0.75 * V(1)
    rep = drift_certificate_check(two_state, [1.0, 4.0], 0.75, 0)
    assert rep.certified
    assert rep.beta <= spectral_gap(two_state).gap + 1e-9


def test_drift_certificate_violations_reported(two_state):
    rep = drift_certificate_check(two_state, [1.0, 4.0], 2.0, 0)
    assert not rep.certified
    assert rep.violations and rep.violations[0][0] == 1


def test_drift_certificate_requires_v_at_least_one(two_state):
    with pytest.raises(InvalidInputError, match="V >= 1"):
        drift_certificate_check(two_state, [0.5, 4.0], 0.5, 0)


def test_drift_certificate_geometric_test_function():
    # downward-drift chain: every death rate beats every birth rate, so
    # V = z^i with modest z > 1 satisfies the drift inequality off state 0
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 20))
        b = rng.uniform(0.2, 1.0, size=n)
        a = float(np.max(b)) * rng.uniform(1.5, 4.0, size=n)
        Q = build_birth_death(a, b)
        z = math.sqrt(1.5)
        V = z ** np.arange(n + 1)
        drift = Q.matrix @ V
        beta = min(-drift[i] / V[i] for i in range(1, n + 1))
        assert beta > 0
        rep = drift_certificate_check(Q, V, beta, 0)
        assert rep.certified
        assert beta <= spectral_gap(Q).gap + 1e-9
