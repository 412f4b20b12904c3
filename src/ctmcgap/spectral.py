"""Spectral gaps of continuous-time chains, Dirichlet forms, and
complementary lower bounds (birth-death weights, drift certificates).

The gap of a chain with generator `Q` and stationary law `pi` is the
smallest nonzero eigenvalue of the negative additive reversibilization
``-(Q + Qhat)/2``, computed through the similarity transform that makes it
symmetric: ``S[i, j] = sqrt(pi[i]/pi[j]) * Qbar[i, j]``, from ``log pi``.
The square-root weight vector is the eigenvector of the trivial zero mode
and is deflated explicitly.  A birth-death (tridiagonal) chain is
reversible, so its ``S`` comes from the rates alone and its ``pi`` from
the product form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ._report import Report
from ._symeig import deflated_extremal
from .errors import InvalidInputError
from .generator import (_as_law, _as_probs, _birth_death_log_mu,
                        _birth_death_rates, _check_stationary,
                        _irreducible_band, stationary_distribution)

# drift inequalities may be exceeded by this much before they count as broken
_DRIFT_SLACK = 1e-12


@dataclass
class SpectralReport(Report):
    """Result of a spectral-gap computation.

    Attributes
    ----------
    gap : float
        Smallest nonzero eigenvalue of the negative reversibilized generator.
    method : str
        "dense", "lanczos", "tridiagonal", or "closed_form".
    residual : float
        Eigenpair residual ``||(-S) v - gap * v||_2`` (0 for closed form).
    iterations : int
        Matrix-vector products spent by the iterative solver (0 for direct).
    eigenvector : ndarray or None
        Gap-achieving function `f` on states, normalized to unit pi-norm
        with ``pi(f) = 0``; its Rayleigh quotient equals `gap`.  None when
        some entry is not representable (``pi`` spans more than the
        double range).
    trivial_residual : float
        ``||(-S) sqrt(pi)||_2``, a stationarity cross-check on the inputs.
    eigenvalues : ndarray or None
        Full spectrum of ``-S`` in ascending order (dense method only).
    degenerate : bool
        True for a single-state chain, where the gap is vacuous (+inf).
    """

    gap: float
    method: str
    residual: float
    iterations: int
    eigenvector: np.ndarray | None = None
    trivial_residual: float = 0.0
    eigenvalues: np.ndarray | None = None
    degenerate: bool = False

    def to_dict(self):
        return {"gap": float(self.gap), "method": self.method,
                "residual": float(self.residual),
                "iterations": int(self.iterations)}


def _symmetric_part(M, log_pi):
    """``(W + W.T) / 2`` with ``W[i, j] = M[i, j] exp((l[i] - l[j]) / 2)``.

    ``l = log_pi``.  A sparse `M` gives CSR, weighted at its stored
    triplets; a dense `M` is weighted at its nonzero entries only.
    """
    if sp.issparse(M):
        M = M.tocoo()
        w = np.exp(0.5 * (log_pi[M.row] - log_pi[M.col]))
        W = sp.csr_matrix((M.data * w, (M.row, M.col)), shape=M.shape)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            W = np.where(M != 0, M * np.exp(
                0.5 * (log_pi[:, None] - log_pi[None, :])), 0.0)
    return 0.5 * (W + W.T)


def symmetrized_form(Q, pi):
    """Symmetric matrix ``S = D Qbar D^-1`` with ``D = diag(sqrt(pi))``.

    `Qbar` is the additive reversibilization; ``S`` is returned in CSR
    form with the vector ``sqrt(pi)``.  A general `Q` gives
    ``_symmetric_part(Q, log pi)``.  A birth-death (tridiagonal) `Q` is its
    own reversibilization, and by Kolmogorov's criterion ``S`` then has the
    diagonal of `Q` and the off-diagonal ``sqrt(Q[i, i+1] Q[i+1, i])``,
    from the rates alone.  Either way entries of `pi` that underflow to 0
    are harmless, and `pi` must be stationary for `Q`
    (NumericalFailureError otherwise).
    """
    pi = _as_law(pi, Q.n)
    _check_stationary(pi.probs, Q.matrix, Q.max_rate(), "stationary")
    band = Q.structure()[0]
    if band is None:
        S = _symmetric_part(Q.matrix, pi.log_probs)
    else:
        off = np.sqrt(band[0] * band[1])
        S = sp.diags([off, Q.matrix.diagonal(), off], [-1, 0, 1],
                     format="csr")
    return S, np.sqrt(pi.probs)


def spectral_gap(Q, pi=None, method="auto"):
    """Spectral gap of a continuous-time chain.

    The eigenvector is mapped back to states through ``pi.log_probs``, so
    entries of ``pi`` below the double range do no harm.

    Parameters
    ----------
    Q : GeneratorMatrix
        Admissible generator.
    pi : StationaryDistribution or array, optional
        Stationary law; solved from `Q` when omitted, and checked for
        stationarity when given.
    method : {"auto", "dense", "lanczos"}
        "auto" is "tridiagonal" when every nonzero off-diagonal rate of `Q`
        sits next to the diagonal (a birth-death chain; the gap then costs
        O(n)), and otherwise dense up to 500 states, iterative beyond.

    Returns
    -------
    SpectralReport

    Raises
    ------
    InvalidInputError
        When `Q` is reducible (checked first), or a given `pi` is not a
        strictly positive probability vector.
    NumericalFailureError
        When `pi` is not stationary for `Q`, on eigensolver
        non-convergence, or on an out-of-tolerance eigenpair residual.
    """
    if Q.n == 1:
        return SpectralReport(gap=math.inf, method="dense", residual=0.0,
                              iterations=0, eigenvector=None,
                              trivial_residual=0.0, degenerate=True)
    band = _irreducible_band(Q)
    pi = stationary_distribution(Q) if pi is None else _as_law(pi, Q.n)
    S, sq = symmetrized_form(Q, pi)
    if method == "auto" and band is not None:
        method = "tridiagonal"
    result, used = deflated_extremal(-S, sq, largest=False, method=method)
    # map the symmetric-space eigenvector back to a function on states
    with np.errstate(over="ignore", invalid="ignore"):
        f = result.vector * np.exp(-0.5 * pi.log_probs)
    if not np.all(np.isfinite(f)):
        f = None
    elif f[np.argmax(np.abs(f))] < 0:
        f = -f
    return SpectralReport(gap=result.value, method=used,
                          residual=result.residual,
                          iterations=result.iterations, eigenvector=f,
                          trivial_residual=result.trivial_residual,
                          eigenvalues=result.eigenvalues)


def dirichlet_form(Q, pi, f):
    """Energy ``(1/2) sum_ij pi[i] Q[i, j] (f[j] - f[i])^2``.

    Unchanged if `Q` is replaced by its additive reversibilization; zero
    exactly for constant `f`.
    """
    p = _as_probs(pi, Q.n)
    f = np.asarray(f, dtype=float)
    if f.size != Q.n:
        raise InvalidInputError(f"function has {f.size} entries, chain has {Q.n}")
    rows, cols, vals = Q.off_diagonal()
    if rows.size == 0:
        return 0.0
    return float(0.5 * np.sum(p[rows] * vals * (f[cols] - f[rows]) ** 2))


def rayleigh_quotient(Q, pi, f):
    """Dirichlet energy of `f` over its pi-variance, after centering.

    Always at least the spectral gap; equals it when `f` is a gap-achieving
    eigenfunction.

    Raises
    ------
    InvalidInputError
        If `f` is constant (zero variance).
    """
    p = _as_probs(pi, Q.n)
    f = np.asarray(f, dtype=float)
    if f.size != Q.n:
        raise InvalidInputError(f"function has {f.size} entries, chain has {Q.n}")
    centered = f - float(p @ f)
    var = float(p @ centered ** 2)
    if var <= 1e-24 * max(1.0, float(p @ f ** 2)):
        raise InvalidInputError("Rayleigh quotient undefined for constant f")
    return dirichlet_form(Q, p, centered) / var


def bd_closed_form_gap(alpha, beta, n_levels):
    """Gap of the constant-rate birth-death chain.

    Parameters
    ----------
    alpha : float
        Down rate (toward state 0), positive.
    beta : float
        Up rate, positive.
    n_levels : int or math.inf
        Top state; the chain lives on ``0..n_levels``.  Infinite chains
        require ``alpha > beta`` (positive recurrence), where the gap is
        ``(sqrt(alpha) - sqrt(beta))**2``.
    """
    alpha, beta = float(alpha), float(beta)
    if alpha <= 0 or beta <= 0:
        raise InvalidInputError("rates must be positive")
    if n_levels is math.inf or (isinstance(n_levels, float)
                                and math.isinf(n_levels)):
        if alpha <= beta:
            raise InvalidInputError(
                "infinite chain needs alpha > beta for a positive gap")
        return (math.sqrt(alpha) - math.sqrt(beta)) ** 2
    N = int(n_levels)
    if N < 1:
        raise InvalidInputError("n_levels must be >= 1 or infinity")
    return alpha + beta - 2.0 * math.sqrt(alpha * beta) * math.cos(
        math.pi / (N + 1))


@dataclass
class BirthDeathBoundReport:
    """Weighted-path lower bound on a birth-death gap.

    ``mu`` are the product-form weights with ``mu[0] = 1``; `delta` is the
    largest product of a head mass and a tail of reciprocal flow rates, and
    the certified bound is ``1 / (4 delta)``.
    """

    mu: np.ndarray
    delta: float
    lower_bound: float


def bd_lower_bound(death_rates, birth_rates):
    """Lower-bound the gap of a finite birth-death chain from its rates.

    Parameters
    ----------
    death_rates : sequence, length N
        Down rates ``a_1..a_N``.
    birth_rates : sequence, length N
        Up rates ``b_0..b_{N-1}``.

    Returns
    -------
    BirthDeathBoundReport
        With ``lower_bound = 1 / (4 delta) <= gap``.
    """
    a, b = _birth_death_rates(death_rates, birth_rates)
    log_mu = _birth_death_log_mu(b, a)
    # logs of: the sum of mu[0..n], and of 1 / (mu[k] b[k]) over k in n..N-1
    log_head = np.logaddexp.accumulate(log_mu[:-1])
    log_tail = np.logaddexp.accumulate((-log_mu[:-1] - np.log(b))[::-1])[::-1]
    log_delta = float(np.max(log_head + log_tail))
    # past the double range, mu and delta read inf and the bound 0
    with np.errstate(over="ignore"):
        return BirthDeathBoundReport(
            mu=np.exp(log_mu), delta=float(np.exp(log_delta)),
            lower_bound=float(np.exp(-log_delta)) / 4.0)


@dataclass
class CertificateReport:
    """Outcome of a drift-condition check.

    `certified` means ``(Q V)(i) <= -beta V(i)`` held (within 1e-12) at
    every state except the excluded one, which certifies that the gap is
    at least `beta` for a reversible chain.
    """

    certified: bool
    beta: float
    excluded_state: int
    violations: list = field(default_factory=list)  # (state, excess)


def drift_certificate_check(Q, V, beta, excluded_state):
    """Check the drift inequality ``(Q V)(i) <= -beta V(i)`` for ``i != j``.

    Parameters
    ----------
    Q : GeneratorMatrix
    V : array
        Test function with ``V >= 1`` everywhere.
    beta : float
        Positive candidate rate.
    excluded_state : int
        The one state `j` where the inequality is not required.

    Returns
    -------
    CertificateReport
    """
    V = np.asarray(V, dtype=float)
    if V.size != Q.n:
        raise InvalidInputError(f"V has {V.size} entries, chain has {Q.n}")
    if np.any(V < 1.0):
        raise InvalidInputError("certificate requires V >= 1 everywhere")
    if not beta > 0:
        raise InvalidInputError("beta must be positive")
    j = int(excluded_state)
    if not 0 <= j < Q.n:
        raise InvalidInputError(f"excluded state {j} out of range")
    drift = Q.matrix @ V
    excess = drift + beta * V
    violations = [(int(i), float(excess[i]))
                  for i in range(Q.n)
                  if i != j and excess[i] > _DRIFT_SLACK]
    return CertificateReport(certified=not violations, beta=float(beta),
                             excluded_state=j, violations=violations)
