import math

import numpy as np
import pytest

from ctmcgap import (GeneratorMatrix, InvalidInputError,
                     NumericalFailureError, bd_closed_form_gap,
                     bd_lower_bound, build_birth_death, dirichlet_form,
                     drift_certificate_check, rayleigh_quotient, spectral_gap,
                     stationary_distribution, symmetrized_form)
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
