"""Extremal eigenvalues of symmetric matrices after removing one known
eigenvector.

Both the continuous-time gap (second-smallest eigenvalue of a weighted
negative generator) and the discrete-time gap (second-largest eigenvalue of
a weighted kernel) reduce to this: the known vector is the square-root
weight vector, whose eigenvalue is trivial, and the quantity of interest
is the extremal eigenvalue of the orthogonal complement.

This module owns the two numerical rules of that step: which solver runs
by default (the full dense spectrum up to `DENSE_CUTOFF` states and an
iterative Lanczos solver beyond; a caller that knows its matrix is
tridiagonal asks for the tridiagonal solver), and the acceptance test
every returned eigenpair must pass (residual at most 1e-10 times the
largest entry of the matrix, floored at 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh_tridiagonal

from .errors import NumericalFailureError

# Deterministic entropy for the Lanczos start vector.
_START_SEED = 0x5CE17A
DENSE_CUTOFF = 500      # "auto" takes the dense spectrum up to this size
_RESIDUAL_RTOL = 1e-10  # accept ||A v - value v||_2 up to this * max|A| (>= 1)


@dataclass
class DeflatedEigenResult:
    value: float
    vector: np.ndarray          # unit eigenvector of the full matrix
    residual: float             # ||A v - value v||_2
    iterations: int             # matrix-vector products (0 for direct solves)
    trivial_residual: float     # ||A v0||_2 for smallest mode, see callers
    eigenvalues: np.ndarray | None = None  # full spectrum (dense path only)


def _infnorm(A):
    if sp.issparse(A):
        return float(np.max(np.abs(A).sum(axis=1))) if A.nnz else 0.0
    return float(np.max(np.abs(A).sum(axis=1)))


def _dense(A, v0, largest):
    Ad = A.toarray() if sp.issparse(A) else np.asarray(A, dtype=float)
    w, V = np.linalg.eigh(Ad)
    overlaps = np.abs(V.T @ v0)
    trivial = int(np.argmax(overlaps))
    keep = np.ones(w.size, dtype=bool)
    keep[trivial] = False
    idx = np.nonzero(keep)[0]
    pick = idx[np.argmax(w[idx])] if largest else idx[np.argmin(w[idx])]
    return float(w[pick]), V[:, pick].copy(), w


def _tridiagonal(A, v0, largest):
    # the two extremal eigenpairs at the chosen end; one is the known vector
    lo = v0.size - 2 if largest else 0
    w, V = eigh_tridiagonal(A.diagonal(), A.diagonal(1), select="i",
                            select_range=(lo, lo + 1))
    pick = 1 - int(np.argmax(np.abs(V.T @ v0)))
    return float(w[pick]), V[:, pick].copy()


def _lanczos(A, v0, largest):
    n = v0.size
    maxiter = max(1000, 50 * n)
    # push the known eigenvalue out of the way with a rank-one shift
    shift = 1.1 * _infnorm(A) + 1.0
    sign = -1.0 if largest else 1.0
    counter = {"mv": 0}

    def matvec(x):
        counter["mv"] += 1
        return A @ x + sign * shift * (v0 @ x) * v0

    op = spla.LinearOperator((n, n), matvec=matvec, dtype=float)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(_START_SEED)))
    start = rng.standard_normal(n)
    start -= (v0 @ start) * v0
    norm = np.linalg.norm(start)
    if norm < 1e-12:  # essentially impossible; keep a deterministic fallback
        start = np.zeros(n)
        start[0] = 1.0
        start -= (v0 @ start) * v0
        norm = np.linalg.norm(start)
    start /= norm
    try:
        w, V = spla.eigsh(op, k=1, which="LA" if largest else "SA",
                          v0=start, maxiter=maxiter, tol=0.0)
    except spla.ArpackNoConvergence as exc:
        raise NumericalFailureError(
            f"eigensolver did not converge within {maxiter} iterations",
            residual=None) from exc
    return float(w[0]), V[:, 0].copy(), counter["mv"]


def deflated_extremal(A, known_vector, largest, method="auto"):
    """Extremal eigenvalue of symmetric `A` ignoring one known eigenvector.

    Parameters
    ----------
    A : ndarray or sparse matrix, symmetric
    known_vector : ndarray
        Unit vector spanning the eigenspace to exclude.
    largest : bool
        Seek the largest remaining eigenvalue (else the smallest).
    method : {"auto", "dense", "lanczos", "tridiagonal"}
        "dense" takes the full spectrum and drops the eigenvector with the
        largest overlap with `known_vector`; "lanczos" applies a rank-one
        shift to the known direction and asks an iterative solver for the
        extremal mode of the rest; "tridiagonal" reads the three central
        diagonals of `A`, takes the two extremal eigenpairs at the sought
        end by bisection and inverse iteration, and drops the one with the
        larger overlap; "auto" is dense up to `DENSE_CUTOFF` states and
        Lanczos beyond.  `A` is not scanned for its structure: a caller
        that knows it is tridiagonal (``spectral_gap`` on a birth-death
        chain) asks for "tridiagonal".

    Returns
    -------
    (DeflatedEigenResult, str)
        The eigenpair and the method that produced it.

    Raises
    ------
    NumericalFailureError
        On non-convergence, or when the eigenpair residual exceeds 1e-10
        times the largest entry of `A` (floored at 1).
    """
    n = known_vector.size
    if method == "auto":
        method = "dense" if n <= DENSE_CUTOFF else "lanczos"
    if method not in ("dense", "lanczos", "tridiagonal"):
        raise ValueError(f"unknown eigensolver method {method!r}")
    if method == "lanczos" and n < 4:  # ARPACK needs k < n-1
        method = "dense"
    v0 = known_vector / np.linalg.norm(known_vector)
    eigenvalues = None
    iterations = 0
    if method == "dense":
        value, vector, eigenvalues = _dense(A, v0, largest)
    elif method == "tridiagonal":
        value, vector = _tridiagonal(A, v0, largest)
    else:
        value, vector, iterations = _lanczos(A, v0, largest)
    Av = A @ vector
    residual = float(np.linalg.norm(Av - value * vector))
    scale = max(float(abs(A).max()), 1.0)
    if not residual <= _RESIDUAL_RTOL * scale:  # NaN fails too
        raise NumericalFailureError(
            f"eigenpair residual {residual:.3e} exceeds {_RESIDUAL_RTOL:.1e} "
            f"relative to scale {scale:.3e}", residual=residual)
    trivial_residual = float(np.linalg.norm(A @ v0))
    return DeflatedEigenResult(value=value, vector=vector, residual=residual,
                               iterations=iterations,
                               trivial_residual=trivial_residual,
                               eigenvalues=eigenvalues), method
