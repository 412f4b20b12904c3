import json
import math

import numpy as np
import pytest
import scipy.sparse as sp

from ctmcgap import GeneratorMatrix, _symeig, build_three_state

# exact stationary law and gap of the bundled three-state chain
THREE_STATE_PI = np.array([1.0 / 3.0, 1.0 / 9.0, 5.0 / 9.0])
THREE_STATE_GAP = (15.0 - math.sqrt(15.0)) / 5.0

# its time reversal and additive reversibilization, worked out by hand
THREE_STATE_DUAL = np.array([
    [-2.0, 1.0 / 3.0, 5.0 / 3.0],
    [3.0, -3.0, 0.0],
    [3.0 / 5.0, 2.0 / 5.0, -1.0],
])
THREE_STATE_SYM = np.array([
    [-2.0, 2.0 / 3.0, 4.0 / 3.0],
    [2.0, -3.0, 1.0],
    [4.0 / 5.0, 1.0 / 5.0, -1.0],
])


@pytest.fixture
def three_state():
    return build_three_state()


@pytest.fixture
def two_state():
    # 0 -> 1 at rate 2, 1 -> 0 at rate 1; pi = (1/3, 2/3), gap = 3
    return GeneratorMatrix.from_rates(2, [(0, 1, 2.0), (1, 0, 1.0)])


@pytest.fixture
def perturbed_eigensolver(monkeypatch):
    """Make the dense eigensolver return a non-eigenvector."""
    solve = _symeig._dense

    def perturbed(A, v0, largest):
        value, vector, w = solve(A, v0, largest)
        vector = vector.copy()
        vector[0] += 1e-3
        return value, vector, w

    monkeypatch.setattr(_symeig, "_dense", perturbed)


def scipy_csr(A):
    """SciPy's CSR matrix on the three CSR arrays of the package's matrix
    `A` (a generator, or the `S` of `symmetrized_form`): the tests' oracle."""
    return sp.csr_matrix((A._data, A._indices, A._indptr), shape=(A.n, A.n))


def random_birth_death(rng, max_levels=30):
    """Random finite birth-death chain with log-uniform rates in [0.1, 10]."""
    n = int(rng.integers(1, max_levels + 1))
    a = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=n))
    b = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=n))
    return a, b


@pytest.fixture
def perturbed_tridiagonal_solver(monkeypatch):
    """Make the tridiagonal eigensolver return a non-eigenvector."""
    solve = _symeig._tridiagonal

    def perturbed(A):
        value, vector = solve(A)
        vector = vector.copy()
        vector[0] += 1e-3
        return value, vector

    monkeypatch.setattr(_symeig, "_tridiagonal", perturbed)


def ring_with_chords(n, skewed, seed):
    """Dense generator of a ring plus 2n random chords.

    A skewed chain drifts toward state 0: up rates 10^(-290/(n-1)), down
    rates 1 and downward chords of at most 1e-4 keep every pi entry between
    about 1e-291 and 1.
    """
    rng = np.random.default_rng(seed)
    A = np.zeros((n, n))
    if n > 1:
        i = np.arange(n - 1)
        rows = rng.integers(1, n, 2 * n)
        if skewed:
            A[i, i + 1] = 10.0 ** (-290 / (n - 1))
            A[i + 1, i] = 1.0
            A[n - 1, 0] += 1.0
            cols = (rng.uniform(size=2 * n) * rows).astype(int)
            rates = rng.uniform(1e-5, 1e-4, 2 * n)
        else:
            A[i, i + 1] = rng.uniform(0.1, 10.0, n - 1)
            A[n - 1, 0] += rng.uniform(0.1, 10.0)
            cols = (rows + rng.integers(1, n, 2 * n)) % n
            rates = 10.0 ** rng.uniform(-1.0, 1.0, 2 * n)
        np.add.at(A, (rows, cols), rates)
    np.fill_diagonal(A, 0.0)
    np.fill_diagonal(A, -A.sum(axis=1))
    return A


def write_model(path, A):
    """Write the dense generator `A` to `path` as a model file."""
    rows, cols = np.nonzero(A)
    off = rows != cols
    path.write_text(json.dumps({"n": len(A), "rates": [
        [int(i), int(j), float(A[i, j])]
        for i, j in zip(rows[off], cols[off])]}))
    return str(path)
