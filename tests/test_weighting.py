"""Properties of the one log-scale weighting by pi that both the
continuous gap and the skeleton gap are read from."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmcgap import (GeneratorMatrix, NumericalFailureError, _symeig,
                     build_birth_death, rayleigh_quotient,
                     skeleton_gap_check, spectral_gap,
                     stationary_distribution)
from ctmcgap.spectral import _symmetric_part
from conftest import random_birth_death

SEEDS = st.integers(0, 2 ** 32 - 1)


def _conductance_chain(rng, n):
    """Reversible by construction: ``Q[i, j] = c[i, j] / pi[i]``.

    `c` is symmetric on a ring plus random chords, so ``pi[i] Q[i, j]`` is
    symmetric and `pi` (up to normalization) is stationary.
    """
    pi = rng.uniform(0.5, 2.0, size=n)
    pi /= pi.sum()
    c = np.zeros((n, n))
    for i in range(n):
        c[i, (i + 1) % n] = rng.uniform(0.1, 1.0)
    chords = rng.uniform(0.1, 1.0, size=(n, n)) * (rng.random((n, n)) < 0.3)
    c = np.triu(c + c.T + chords, 1)
    c += c.T
    return GeneratorMatrix.from_rates(
        n, [(i, j, c[i, j] / pi[i]) for i in range(n) for j in range(n)
            if c[i, j] > 0])


def _general_chain(rng, n):
    """A ring plus random chords, every rate Exp(1): not reversible."""
    rates = {(i, (i + 1) % n): rng.exponential() for i in range(n)}
    for i, j in rng.integers(0, n, size=(2 * n, 2)):
        if i != j:
            rates[(int(i), int(j))] = rng.exponential()
    return GeneratorMatrix.from_rates(
        n, [(i, j, v) for (i, j), v in rates.items()])


@settings(max_examples=25, deadline=None)
@given(st.booleans(), st.integers(2, 8), SEEDS)
def test_reversible_skeleton_is_exp_of_the_gap(birth_death, n, seed):
    # for a reversible chain exp(delta Q) is self-adjoint in L2(pi), so its
    # second eigenvalue is exp(-delta * gap)
    rng = np.random.default_rng(seed)
    Q = build_birth_death(*random_birth_death(rng)) if birth_death \
        else _conductance_chain(rng, n)
    table = skeleton_gap_check(Q, deltas=(0.1, 0.01))
    for row in table.rows:
        assert abs(row.lambda_P
                   - math.exp(-row.delta * table.gap_reference)) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 9), SEEDS)
def test_general_gap_is_invariant_under_relabelling(n, seed):
    rng = np.random.default_rng(seed)
    Q = _general_chain(rng, n)
    order = rng.permutation(n)
    relabelled = GeneratorMatrix(Q.to_dense()[np.ix_(order, order)])
    gap = spectral_gap(Q).gap
    assert abs(spectral_gap(relabelled).gap - gap) <= 1e-12 * Q.max_rate()


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 9), SEEDS)
def test_general_gap_bounds_every_rayleigh_quotient(n, seed):
    rng = np.random.default_rng(seed)
    Q = _general_chain(rng, n)
    pi = stationary_distribution(Q)
    gap = spectral_gap(Q, pi).gap
    f = rng.standard_normal(n)  # nonconstant with probability 1
    assert rayleigh_quotient(Q, pi, f) >= gap - 1e-12 * Q.max_rate()


def test_kernel_weights_that_overflow_multiply_no_zero():
    # pi spans e^-1600: the weight of entry (0, 2) is e^800, which is inf,
    # and that entry of the kernel is 0
    P = np.array([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])
    T = _symmetric_part(P, np.array([0.0, -800.0, -1600.0]))
    assert np.all(np.isfinite(T)) and T[0, 2] == T[2, 0] == 0.0


def test_nan_eigenpair_is_a_numerical_failure():
    A = np.eye(4)
    A[1, 2] = A[2, 1] = np.nan
    with pytest.raises(NumericalFailureError, match="residual"):
        _symeig.deflated_extremal(A, np.full(4, 0.5), largest=True,
                                  method="dense")
