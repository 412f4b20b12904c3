"""Spectral gaps of continuous-time chains, Dirichlet forms, and
complementary lower bounds (birth-death weights, drift certificates).

The gap of a chain with generator `Q` and stationary law `pi` is the
smallest nonzero eigenvalue of the negative additive reversibilization
``-(Q + Qhat)/2``, computed through the similarity transform that makes it
symmetric: ``S[i, j] = sqrt(pi[i]/pi[j]) * Qbar[i, j]``, from ``log pi``.
The square-root weight vector is the eigenvector of the trivial zero mode
and is deflated explicitly.  A birth-death (tridiagonal) chain is
reversible, so its ``-S`` comes from the rates alone (a `BirthDeathForm`,
solved with NumPy alone) and its ``pi`` from the product form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._report import Report
from ._symeig import BirthDeathForm, deflated_extremal
from .errors import InvalidInputError
from .generator import (_CSR, _as_integer, _as_positive, _as_probs,
                        _as_values, _birth_death_log_mu, _birth_death_rates,
                        _check_dense_cap, _dense_cost_in_steps,
                        _irreducible_band, _stationary_law, _symmetric_part,
                        _tridiagonal_csr, stationary_distribution)

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
        with ``pi(f) = 0``.  Its :func:`rayleigh_quotient` equals `gap`
        only while the differences of its entries survive their rounding:
        on a 1 000-state double well, where `f` is flat in each well, it
        is off by 8e184 relative.  None when some entry is not
        representable (``pi`` spans more than the double range).
    trivial_residual : float
        ``||(-S) v - (v . (-S) v) v||_2`` at ``v = sqrt(pi)``, a
        stationarity cross-check on the inputs.
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

    _hidden = ("eigenvector", "trivial_residual", "eigenvalues", "degenerate")


def symmetrized_form(Q, pi):
    """Symmetric matrix ``S = D Qbar D^-1`` with ``D = diag(sqrt(pi))``.

    Returns ``(S, sqrt(pi))``, `S` a NumPy CSR matrix (``S @ x``,
    ``S.to_dense()``, ``S.off_diagonal()``, ``S.nnz``) and `Qbar` the
    additive reversibilization.  A general `Q` gives ``_symmetric_part(Q,
    log pi)``.  A birth-death (tridiagonal) `Q` is its own
    reversibilization, and by Kolmogorov's criterion ``S`` is then minus
    the `BirthDeathForm` of its rates: minus the exit rates on the diagonal
    and ``sqrt(Q[i, i+1] Q[i+1, i])`` beside it, from the rates alone.
    Either way entries of `pi` that underflow to 0 are harmless, and `pi`
    must be stationary for `Q` (NumericalFailureError otherwise).

    :func:`spectral_gap` takes its ``S`` from here for the dense and
    Lanczos solvers; its default route for a birth-death chain, the
    bidiagonal solver, needs no ``S``.
    """
    pi = _stationary_law(Q, pi)
    band = Q.structure()[0]
    if band is None:
        S = _symmetric_part(Q, pi.log_probs)
    else:
        A = BirthDeathForm(*band)  # -S
        S = _CSR(*_tridiagonal_csr(-A.off, -A.diag, -A.off))
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
        stationarity unless it is the law last checked for this `Q`.
    method : {"auto", "dense", "lanczos"}
        Becomes the operand and budget that route the eigensolver:
        "dense" a budget of 0, "lanczos" one of None (Lanczos to its
        restart cap).  "auto" gives a birth-death chain (every nonzero
        off-diagonal rate of `Q` next to the diagonal) to the bidiagonal
        solver as a `BirthDeathForm`: O(n) per bisection step, NumPy
        alone, no ``S``.  Any other chain gets a budget of as many
        matrix-vector products as cost what the dense spectrum costs
        (`_dense_cost_in_steps`), after which the dense solver takes over
        and reports "dense": 0 under 30 products, and None above
        `generator.DENSE_SOLVE_CUTOFF` states.

    Returns
    -------
    SpectralReport

    Raises
    ------
    InvalidInputError
        On any other `method` (checked first), when `Q` is reducible, a
        given `pi` is not a strictly positive probability vector, or
        "dense" exceeds `generator.DENSE_SOLVE_CUTOFF` states (checked
        before `pi` is solved).
    NumericalFailureError
        When `pi` is not stationary for `Q`, on eigensolver
        non-convergence, when the tridiagonal gap cannot be certified to
        1e-10, or on an out-of-tolerance eigenpair residual.
    """
    if method not in ("auto", "dense", "lanczos"):
        raise InvalidInputError(f"unknown gap method {method!r}: use "
                                f"'auto', 'dense' or 'lanczos'")
    if Q.n == 1:
        return SpectralReport(gap=math.inf, method="dense", residual=0.0,
                              iterations=0, eigenvector=None,
                              trivial_residual=0.0, degenerate=True)
    band = _irreducible_band(Q)
    if method == "dense":
        _check_dense_cap(Q.n)  # before pi is solved
    pi = stationary_distribution(Q) if pi is None else _stationary_law(Q, pi)
    # the gap is the smallest nontrivial eigenvalue of -S
    if method == "auto" and band is not None:
        A = BirthDeathForm(*band, log_pi=pi.log_probs)
        sq, budget = np.sqrt(pi.probs), None
    else:
        A, sq = symmetrized_form(Q, pi)
        np.negative(A.data, out=A.data)
        budget = (0 if method == "dense" else None if method == "lanczos"
                  else _dense_cost_in_steps("eigh", Q.n, A.nnz))
    result, used = deflated_extremal(A, sq, largest=False, budget=budget)
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
    p = _as_probs(pi, Q.n, "pi")
    f = _as_values(f, Q.n, "f")
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
    p = _as_probs(pi, Q.n, "pi")
    f = _as_values(f, Q.n, "f")
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
        Down rate (toward state 0), positive and finite.
    beta : float
        Up rate, positive and finite.
    n_levels : int or math.inf
        Top state; the chain lives on ``0..n_levels``.  Infinite chains
        require ``alpha > beta`` (positive recurrence), where the gap is
        ``(sqrt(alpha) - sqrt(beta))**2``.
    """
    alpha, beta = float(alpha), float(beta)
    _birth_death_rates([alpha], [beta])  # positive and finite, as any chain's
    if n_levels == math.inf:
        if alpha <= beta:
            raise InvalidInputError(
                "infinite chain needs alpha > beta for a positive gap")
        return (math.sqrt(alpha) - math.sqrt(beta)) ** 2
    N = _as_integer(n_levels, "n_levels", 1)
    # alpha + beta - 2 sqrt(alpha beta) cos(pi / (N + 1)), as two terms
    # that do not cancel
    return ((math.sqrt(alpha) - math.sqrt(beta)) ** 2
            + 4.0 * math.sqrt(alpha * beta)
            * math.sin(math.pi / (2 * N + 2)) ** 2)


@dataclass
class BirthDeathBoundReport:
    """Weighted-path lower bound on a birth-death gap.

    ``mu`` are the product-form weights with ``mu[0] = 1``; `delta` is the
    largest product of a head mass and a tail of reciprocal flow rates, of
    the chain or of its mirror image (state `k` relabelled ``N - k``, the
    same gap), whichever is smaller, and the certified bound is
    ``1 / (4 delta)``.
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
    # a chain drifting toward state 0 gets a bound near 2^-N, its mirror not
    log_delta = min(_bd_log_delta(log_mu, b),
                    _bd_log_delta(_birth_death_log_mu(a[::-1], b[::-1]),
                                  a[::-1]))
    # past the double range, mu and delta read inf and the bound 0
    with np.errstate(over="ignore"):
        return BirthDeathBoundReport(
            mu=np.exp(log_mu), delta=float(np.exp(log_delta)),
            lower_bound=float(np.exp(-log_delta)) / 4.0)


def _bd_log_delta(log_mu, b):
    """``log delta`` of `bd_lower_bound` for one orientation of the chain."""
    # logs of: the sum of mu[0..n], and of 1 / (mu[k] b[k]) over k in n..N-1
    log_head = np.logaddexp.accumulate(log_mu[:-1])
    log_tail = np.logaddexp.accumulate((-log_mu[:-1] - np.log(b))[::-1])[::-1]
    return float(np.max(log_head + log_tail))


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
        Candidate rate, positive and finite.
    excluded_state : int
        The one state `j` where the inequality is not required.

    Returns
    -------
    CertificateReport

    Raises
    ------
    InvalidInputError
        Unless `V` has one finite entry of at least 1 per state, `beta` is
        positive and finite, and `excluded_state` is a state of `Q`.
    """
    V = _as_values(V, Q.n, "V")
    if np.any(V < 1.0):
        raise InvalidInputError("certificate requires V >= 1 everywhere")
    beta = _as_positive(beta, "beta")
    j = _as_integer(excluded_state, "excluded state", 0, Q.n)
    excess = Q @ V + beta * V
    broken = excess > _DRIFT_SLACK
    broken[j] = False
    states = np.flatnonzero(broken)
    violations = list(zip(states.tolist(), excess[states].tolist()))
    return CertificateReport(certified=not violations, beta=beta,
                             excluded_state=j, violations=violations)
