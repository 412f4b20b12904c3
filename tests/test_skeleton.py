import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmcgap import skeleton
from ctmcgap import (GeneratorMatrix, InvalidInputError,
                     NumericalFailureError, StochasticMatrix,
                     additive_symmetrization, build_birth_death,
                     build_three_state, dtmc_hoeffding_bound,
                     dtmc_spectral_gap, skeleton_gap_check, spectral_gap,
                     stationary_distribution, transition_matrix_exp)
from conftest import THREE_STATE_GAP, THREE_STATE_PI, ring_with_chords


# ------------------------------------------------------------- uniformization

def test_exp_zero_generator_is_identity():
    Q = GeneratorMatrix(np.zeros((3, 3)))
    P = transition_matrix_exp(Q, 0.7)
    assert np.array_equal(P.matrix, np.eye(3))


def test_exp_two_state_closed_form(two_state):
    # rates b=2 up, a=1 down; decay constant a+b
    for delta in (0.05, 0.4, 2.0):
        P = transition_matrix_exp(two_state, delta)
        decay = math.exp(-3.0 * delta)
        expect = np.array([
            [(1 + 2 * decay) / 3, 2 * (1 - decay) / 3],
            [(1 - decay) / 3, (2 + decay) / 3],
        ])
        assert np.max(np.abs(P.matrix - expect)) < 1e-14


def test_exp_matches_dense_expm_oracle(three_state):
    for delta in (0.01, 0.3, 1.5):
        P = transition_matrix_exp(three_state, delta)
        ref = scipy.linalg.expm(delta * three_state.to_dense())
        assert np.max(np.abs(P.matrix - ref)) < 1e-12


def test_exp_rows_are_stochastic(three_state):
    P = transition_matrix_exp(three_state, 0.3)
    assert np.max(np.abs(P.matrix.sum(axis=1) - 1.0)) < 1e-15
    assert P.matrix.min() >= 0.0


def test_exp_semigroup_property(three_state):
    P1 = transition_matrix_exp(three_state, 0.05)
    P2 = transition_matrix_exp(three_state, 0.1)
    assert np.max(np.abs(P1.matrix @ P1.matrix - P2.matrix)) < 1e-10


def test_exp_preserves_stationary_law(three_state):
    P = transition_matrix_exp(three_state, 0.25)
    assert np.max(np.abs(THREE_STATE_PI @ P.matrix - THREE_STATE_PI)) < 1e-12


def test_exp_input_guards(three_state):
    with pytest.raises(InvalidInputError):
        transition_matrix_exp(three_state, 0.0)
    with pytest.raises(NumericalFailureError, match="delta"):
        transition_matrix_exp(three_state, 1e4)


def test_stochastic_matrix_clamps_tiny_negatives():
    P = StochasticMatrix(np.array([[1.0 + 1e-15, -1e-15], [0.5, 0.5]]))
    assert P.matrix.min() >= 0.0
    assert np.max(np.abs(P.matrix.sum(axis=1) - 1.0)) < 1e-15


def test_stochastic_matrix_rejects_bad_rows():
    with pytest.raises(InvalidInputError, match="clamping"):
        StochasticMatrix(np.array([[1.1, -0.1], [0.5, 0.5]]))
    with pytest.raises(InvalidInputError, match="sums"):
        StochasticMatrix(np.array([[0.6, 0.6], [0.5, 0.5]]))
    with pytest.raises(InvalidInputError, match="square"):
        StochasticMatrix(np.array([[0.5, 0.5]]))
    with pytest.raises(InvalidInputError, match="finite"):
        StochasticMatrix(np.array([[np.nan, 1.0], [0.5, 0.5]]))


# -------------------------------------------------------------- discrete gaps

def test_dtmc_gap_identity_kernel():
    P = StochasticMatrix(np.eye(3))
    pi = np.full(3, 1.0 / 3.0)
    rep = dtmc_spectral_gap(P, pi)
    assert abs(rep.lambda_P - 1.0) < 1e-12
    assert abs(rep.gap) < 1e-12


def test_dtmc_gap_rank_one_kernel():
    # rows equal to pi: perfect mixing in one step
    pi = np.array([0.2, 0.3, 0.5])
    P = StochasticMatrix(np.tile(pi, (3, 1)))
    rep = dtmc_spectral_gap(P, pi)
    assert abs(rep.lambda_P) < 1e-12
    assert abs(rep.gap - 1.0) < 1e-12


def test_dtmc_gap_two_state_closed_form(two_state):
    delta = 0.2
    P = transition_matrix_exp(two_state, delta)
    pi = np.array([1.0 / 3.0, 2.0 / 3.0])
    rep = dtmc_spectral_gap(P, pi)
    assert abs(rep.lambda_P - math.exp(-3.0 * delta)) < 1e-12


def test_dtmc_gap_can_be_negative():
    # period-2-ish kernel: second eigenvalue of the symmetrization is < 0
    P = StochasticMatrix(np.array([[0.05, 0.95], [0.95, 0.05]]))
    pi = np.array([0.5, 0.5])
    rep = dtmc_spectral_gap(P, pi)
    assert abs(rep.lambda_P - (-0.9)) < 1e-12
    assert rep.gap > 1.0


def test_dtmc_gap_matches_eigh_oracle(three_state):
    delta = 0.01
    P = transition_matrix_exp(three_state, delta)
    rep = dtmc_spectral_gap(P, THREE_STATE_PI)
    # independent route: full spectrum of the symmetrized kernel
    sq = np.sqrt(THREE_STATE_PI)
    W = P.matrix * (sq[:, None] / sq[None, :])
    w = np.linalg.eigvalsh(0.5 * (W + W.T))
    assert abs(rep.lambda_P - w[-2]) < 1e-12


def test_one_power_sequence_gives_each_delta_bit_for_bit():
    # the sums of all deltas share one sequence of kernel powers, taken to
    # the largest delta's term count, and each equals its own one-delta sum
    Q = GeneratorMatrix(ring_with_chords(60, False, 3))
    deltas = [0.3, 0.1, 0.05, 0.01]
    shared = skeleton._transition_matrices(Q, deltas)
    for d, P in zip(deltas, shared):
        assert np.array_equal(P.matrix, transition_matrix_exp(Q, d).matrix)


def _kernels_from_the_identity(Q, deltas):
    # the power sequence started at I, so that its first product is
    # I @ kernel: the reference the shared sequence must match bit for bit
    n, q = Q.n, Q.max_rate()
    kernel = Q.to_dense() / (q or 1.0)
    kernel.flat[::n + 1] += 1.0
    weights = [skeleton._poisson_weights(float(d) * q) for d in deltas]
    outs = [w[0] * np.eye(n) for w in weights]
    power = np.eye(n)
    for m in range(1, max(map(len, weights))):
        power = power @ kernel
        for out, w in zip(outs, weights):
            if m < len(w):
                out += w[m] * power
    return [StochasticMatrix(out) for out in outs]


@pytest.mark.parametrize("A", [
    build_three_state().to_dense(), ring_with_chords(300, False, 1),
    ring_with_chords(40, True, 2), np.zeros((2, 2))],
    ids=["three-state", "ring-300", "skewed-ring-40", "zero"])
def test_power_sequence_starts_at_the_kernel_bit_for_bit(A):
    Q = GeneratorMatrix(A)
    deltas = [0.3, 0.1, 0.05, 0.01]
    kernels = skeleton._transition_matrices(Q, deltas)
    for P, reference in zip(kernels, _kernels_from_the_identity(Q, deltas)):
        assert np.array_equal(P.matrix, reference.matrix)


def _reversible_chain(n, rng):
    # symmetric conductances on a ring plus n chords, each row divided by a
    # state's mass m: detailed balance holds for pi proportional to m
    i = np.arange(n)
    rows = np.concatenate([i, rng.integers(0, n, n)])
    cols = np.concatenate([(i + 1) % n, rng.integers(0, n, n)])
    C = np.zeros((n, n))
    np.add.at(C, (rows, cols), 10.0 ** rng.uniform(-1.0, 1.0, 2 * n))
    C = C + C.T
    np.fill_diagonal(C, 0.0)
    A = C / rng.uniform(0.5, 2.0, n)[:, None]
    np.fill_diagonal(A, -A.sum(axis=1))
    return GeneratorMatrix(A)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 30), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_reversible_skeleton_meets_the_exponential_oracle(n, birth_death,
                                                          seed):
    # exp(delta Q) of a reversible chain is self-adjoint in L2(pi), so its
    # second eigenvalue is exp(-delta * gap) exactly
    rng = np.random.default_rng(seed)
    Q = (build_birth_death(*rng.uniform(0.1, 10.0, (2, n - 1)))
         if birth_death else _reversible_chain(n, rng))
    table = skeleton_gap_check(Q)
    for row in table.rows:
        assert abs(row.lambda_P
                   - math.exp(-row.delta * table.gap_reference)) <= 1e-12


@pytest.mark.parametrize("chain", ["three-state", "ring"])
def test_dtmc_trivial_residual_is_measured_at_its_eigenvalue(three_state,
                                                             chain):
    # the known vector of a kernel has eigenvalue 1, not 0
    Q = (three_state if chain == "three-state"
         else GeneratorMatrix(ring_with_chords(300, False, 1)))
    rep = dtmc_spectral_gap(transition_matrix_exp(Q, 0.1),
                            stationary_distribution(Q))
    assert rep.trivial_residual <= 1e-12


def test_dtmc_gap_rejects_wrong_pi(three_state):
    P = transition_matrix_exp(three_state, 0.1)
    with pytest.raises(InvalidInputError, match="stationary"):
        dtmc_spectral_gap(P, np.array([0.4, 0.3, 0.3]))


def test_dtmc_gap_rejects_inaccurate_eigenpair(perturbed_eigensolver,
                                               three_state):
    P = transition_matrix_exp(three_state, 0.1)
    with pytest.raises(NumericalFailureError, match="residual"):
        dtmc_spectral_gap(P, THREE_STATE_PI)


@pytest.mark.parametrize("P, pi, lambda_P", [
    ([[0.9, 0.1], [0.2, 0.8]], [2.0 / 3.0, 1.0 / 3.0], 0.7),
    ([[1.0]], [1.0], 0.0),
], ids=["plain-array", "one-state"])
def test_dtmc_gap_of_a_plain_array_and_of_one_state(P, pi, lambda_P):
    # a plain array is taken as a StochasticMatrix; one state has gap 1
    rep = dtmc_spectral_gap(np.array(P), pi)
    assert rep.method == "dense"
    assert abs(rep.lambda_P - lambda_P) < 1e-12
    assert abs(rep.gap - (1.0 - lambda_P)) < 1e-12


# ------------------------------------------------------------ skeleton table

def test_skeleton_check_three_state(three_state):
    table = skeleton_gap_check(three_state, THREE_STATE_PI,
                               deltas=(0.1, 0.05, 0.01))
    assert abs(table.gap_reference - THREE_STATE_GAP) < 1e-10
    errors = [r.abs_error for r in table.rows]
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] / THREE_STATE_GAP < 0.02
    # first-order expansion: ratio below the gap, approaching it
    for r in table.rows:
        assert r.ratio < table.gap_reference


def test_skeleton_check_two_state_exact(two_state):
    table = skeleton_gap_check(two_state, deltas=(0.5, 0.25))
    for r in table.rows:
        expect = (1.0 - math.exp(-3.0 * r.delta)) / r.delta
        assert abs(r.ratio - expect) < 1e-12


STEPS = (0.2, 0.1, 0.05, 0.025, 1e-3)  # delta times the largest exit rate


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 40), st.booleans(), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_skeleton_ratio_tends_to_the_gap(n, skewed, reversible, seed):
    # the paper's skeleton step: (1 - lambda_P)/delta -> gap as delta -> 0.
    # On L2(pi), ||Q|| <= 2q, so exp(delta Q) is within (2 delta q)^2
    # exp(2 delta q)/2 of I + delta Q, and by Weyl lambda_P within as much
    # of 1 - delta gap: the error is at most 2 delta q^2 exp(2 delta q)
    Q = GeneratorMatrix(ring_with_chords(n, skewed, seed))
    if reversible:
        Q = additive_symmetrization(Q, stationary_distribution(Q))
    q = Q.max_rate()
    table = skeleton_gap_check(Q, deltas=[s / q for s in STEPS])
    errors = [r.abs_error for r in table.rows]
    for s, error in zip(STEPS, errors):
        assert error <= 2.0 * s * q * math.exp(2.0 * s) + 1e-9 * q
    assert errors[-1] < 1e-2 * table.gap_reference
    if reversible:
        # lambda_P = exp(-delta gap), so each halving of delta about halves
        # the error; a non-reversible chain's error may change sign instead
        for coarse, fine in zip(errors[:3], errors[1:4]):
            assert fine <= 0.6 * coarse


def test_non_reversible_skeleton_error_can_change_sign():
    # why the halving rule above holds for reversible chains only: on this
    # chain (1 - lambda_P)/delta - gap goes from -1.0e-2 to +2.5e-4 as
    # delta q goes from 0.2 to 0.025, as a 40-digit expm of Q also gives
    Q = GeneratorMatrix(ring_with_chords(4, False, 3222791729))
    q = Q.max_rate()
    table = skeleton_gap_check(Q, deltas=[s / q for s in STEPS[:4]])
    signed = [r.ratio - table.gap_reference for r in table.rows]
    assert signed[0] < 0 < signed[2] < signed[3]


def test_skeleton_csv(three_state):
    table = skeleton_gap_check(three_state, deltas=(0.1, 0.05))
    lines = table.to_csv().splitlines()
    assert lines[0] == "delta,lambda_P,ratio,abs_error"
    assert len(lines) == 3
    assert float(lines[1].split(",")[0]) == 0.1


def test_skeleton_deltas_validated(three_state):
    with pytest.raises(InvalidInputError, match="decreasing"):
        skeleton_gap_check(three_state, deltas=(0.05, 0.1))
    with pytest.raises(InvalidInputError):
        skeleton_gap_check(three_state, deltas=())
    with pytest.raises(InvalidInputError):
        skeleton_gap_check(three_state, deltas=(0.1, -0.05))


# ------------------------------------------------------------- discrete bound

def test_dtmc_bound_classical_at_nonpositive_lambda():
    grid = [(n, e, s) for n in (1, 10, 100, 1000)
            for e in (0.05, 0.1, 0.25, 0.5, 0.9)
            for s in (1.0,)]
    assert len(grid) == 20
    for n, eps, span in grid:
        classical = math.exp(-2.0 * n * eps ** 2 / span ** 2)
        assert dtmc_hoeffding_bound(0.0, n, eps, 0.0, span) == classical
        assert dtmc_hoeffding_bound(-0.3, n, eps, 0.0, span) == classical


def test_dtmc_bound_degenerates_at_unit_lambda():
    assert dtmc_hoeffding_bound(1.0, 100, 0.1, 0.0, 1.0) == 1.0


def test_dtmc_bound_monotone_in_lambda():
    vals = [dtmc_hoeffding_bound(l, 50, 0.1, 0.0, 1.0)
            for l in (0.0, 0.3, 0.6, 0.9)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_dtmc_bound_input_guards():
    with pytest.raises(InvalidInputError):
        dtmc_hoeffding_bound(0.5, 0, 0.1, 0.0, 1.0)
    with pytest.raises(InvalidInputError):
        dtmc_hoeffding_bound(0.5, 10, -0.1, 0.0, 1.0)
    with pytest.raises(InvalidInputError):
        dtmc_hoeffding_bound(0.5, 10, 0.1, 1.0, 1.0)
    with pytest.raises(InvalidInputError):
        dtmc_hoeffding_bound(1.5, 10, 0.1, 0.0, 1.0)
    with pytest.raises(InvalidInputError):  # used to return NaN
        dtmc_hoeffding_bound(math.nan, 10, 0.1, 0.0, 1.0)