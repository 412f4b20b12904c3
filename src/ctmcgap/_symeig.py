"""Extremal eigenvalues of symmetric matrices after removing one known
eigenvector.

Both the continuous-time gap (second-smallest eigenvalue of a weighted
negative generator) and the discrete-time gap (second-largest eigenvalue of
a weighted kernel) reduce to this: the known vector is the square-root
weight vector, whose eigenvalue is trivial, and the quantity of interest
is the extremal eigenvalue of the orthogonal complement.

This module solves; the caller gives the operand and the Lanczos budget
(the size and cost rules live in `generator`), and the route follows from
them: a `BirthDeathForm` takes the bidiagonal solver, a budget of 0 or
fewer than 4 states the dense spectrum, and any other budget Lanczos,
which hands a spent positive budget to the dense spectrum.  It owns the
three solvers, all in NumPy (bidiagonal, dense and Lanczos), how the dense
solver drops the known vector (of the two eigenpairs at the sought end,
the one along it), and the test every eigenpair must pass (residual at
most 1e-10 times the largest entry of the matrix, floored at 1).

The bidiagonal solver uses NumPy alone, needs neither the known vector nor
``pi`` for the gap, and drops nothing.  A birth-death chain with up rates
``u`` and down rates ``d`` on ``N + 1`` states has ``-S = R^T R``, with
the ``N x (N + 1)`` bidiagonal ``(R v)_i = sqrt(d_i) v_{i+1} - sqrt(u_i)
v_i`` whose null vector is ``sqrt(pi)``.  So the gap is the smallest
eigenvalue of ``R R^T``, an N x N positive definite M-matrix with diagonal
``u_i + d_i`` and off-diagonal ``-sqrt(d_i u_{i+1})``.  Bisection brackets
it by testing whether ``R R^T - x I`` is positive definite, each test a
cyclic reduction: log2 N vectorized levels, O(N) work (Buzbee, Golub &
Nielson 1970).  Inverse iteration at the lower end, with cyclic-reduction
solves from the all-ones vector, finds the positive Perron vector ``w``,
and ``v = R^T w / |R^T w|`` is the eigenvector of ``-S``.

Every value is certified to 1e-10, relatively, or refused with
NumericalFailureError.  A gap of at least `_SMALL_GAP` times the largest
exit rate is the bracket's upper end; the test must pass at the lower
end, and the Rayleigh quotient of ``w``, formed from the last solve so
that only positive terms add, must lie within 1e-10 of it.  On the
entries of ``R R^T`` the test errs by about eps times the largest rate,
too coarse for a smaller gap.  So a smaller one is the Rayleigh quotient
after further solves at shift 0, bracketed from below by the
Collatz-Wielandt bound ``min y / (R R^T)^-1 y``.  These solves use the
similar matrix of the chain on the edges between states, whose reduction
at shift 0 only adds and multiplies positive rates (as the elimination of
Grassmann, Taksar & Heyman 1985 does), so every entry comes out right to
a few roundings.  When the plain test leaves no usable ``w``, the
bisection is repeated on the edge chain's own test, which subtracts only
the shift (`_reduce_edges`), and the result is certified the same way.
For such a gap ``v`` is summed from the positive differences of ``v /
sqrt(pi)`` (`_eigenvector`).  A gap that lies, or whose ``w`` has an
entry that lies, outside the double range is refused.

The Lanczos solver is a thick-restart (Krylov-Schur) Lanczos in NumPy
(Wu & Simon 2000, SIAM J. Matrix Anal. Appl. 22; Stewart 2001, SIAM J.
Matrix Anal. Appl. 23).  It runs on ``A`` plus a rank-one shift that
sends the known vector's eigenvalue past the infinity norm, from a fixed
start vector orthogonal to it (a SplitMix64 hash of the state index,
`_counter_hash`, so no ``numpy.random`` is loaded).  It builds a basis of
`_KRYLOV_DIM` vectors, each orthogonalized twice against all before it,
and takes the Ritz pairs of the projected matrix.  It stops when the
Krylov estimate of the wanted pair's residual, ``beta |s_m|`` (``beta``
the last coupling, ``s_m`` the last entry of the Ritz vector in the
basis), is at most ``eps max(|theta|, eps^(2/3))``, ARPACK's test at
``tol=0``: unlike a residual formed from ``A``, it does not stall at ``eps
|A|``.  Otherwise it restarts from the `_KEPT` Ritz vectors nearest the
wanted end and the residual direction.  Given a budget of matrix-vector
products (the caller's cost rule, in `generator`), it hands off to the
dense solver when the next restart would pass it; without one it
restarts at most ``max(1000, 50 n)`` times and then refuses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError

# Deterministic entropy for the Lanczos start vector, and the constants of
# SplitMix64 (Steele, Lea & Flood 2014, OOPSLA): word `c` under key `k` is
# the finalizer (`_MIX`, then a shift by 31) of ``k + (c + 1) * gamma``.
_START_SEED = 0x5CE17A
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))
_WORD = 2 ** 64 - 1
# Thick-restart Lanczos: basis size, Ritz vectors kept across a restart,
# and the restart budget, max(_MIN_RESTARTS, _RESTARTS_PER_STATE * n).
_KRYLOV_DIM = 30
_KEPT = 15
_MIN_RESTARTS = 1000
_RESTARTS_PER_STATE = 50
_RESIDUAL_RTOL = 1e-10  # accept ||A v - value v||_2 up to this * max|A| (>= 1)
# The bidiagonal solver: the bisection stops at _BRACKET_RTOL relative
# width; the gap is certified to _CERTIFIED_RTOL; inverse iteration takes
# _INVERSE_STEPS solves.  A gap below _SMALL_GAP times the largest exit rate
# is certified after at most _POLISH_STEPS unshifted solves.
_EPS = np.finfo(float).eps
_BRACKET_RTOL = 4 * _EPS
_CERTIFIED_RTOL = 1e-10
_INVERSE_STEPS = 3
_SMALL_GAP = 1e-4
_POLISH_STEPS = 200


@dataclass
class DeflatedEigenResult:
    value: float
    vector: np.ndarray          # unit eigenvector of the full matrix
    residual: float             # ||A v - value v||_2
    iterations: int             # matrix-vector products (0 for direct solves)
    trivial_residual: float     # ||A v0 - (v0 . A v0) v0||_2
    eigenvalues: np.ndarray | None = None  # full spectrum (dense path only)


class BirthDeathForm:
    """``-S`` of a birth-death chain, held as its rates.

    ``up[i]`` is the rate from state ``i`` to ``i + 1`` and ``down[i]``
    from ``i + 1`` to ``i``, all positive.  The matrix is symmetric
    tridiagonal, with the exit rates on the diagonal and
    ``-sqrt(up * down)`` beside it; ``A @ v`` applies it and `data` lists
    its entries.  `log_pi`, the log of the stationary law if given, lets
    the solver form a slowly mixing chain's eigenvector without
    cancellation.
    """

    def __init__(self, up, down, log_pi=None):
        self.up, self.down, self.log_pi = up, down, log_pi
        self.diag = np.append(up, 0.0) + np.insert(down, 0, 0.0)
        self.off = -np.sqrt(up * down)

    @property
    def data(self):
        return np.concatenate([self.diag, self.off])

    def __matmul__(self, v):
        out = self.diag * v
        out[:-1] += self.off * v[1:]
        out[1:] += self.off * v[:-1]
        return out


def _splitmix64(counter, key):
    """SplitMix64 word `counter` under `key`, in Python ints: the scalar
    twin of `_counter_hash`, for deriving keys."""
    z = (key + (counter + 1) * _GOLDEN_GAMMA) & _WORD
    for shift, mix in _MIX:
        z = (z ^ z >> shift) * mix & _WORD
    return z ^ z >> 31


def _counter_hash(counters, key):
    """Pseudo-random numbers in (0, 1), one per entry of the uint64 array
    `counters`: the SplitMix64 words of those counters under the 64-bit
    `key`, the top 53 bits of each.

    Arithmetic on uint64 arrays wraps without a warning, where NumPy warns
    on a scalar that overflows.
    """
    z = counters * np.uint64(_GOLDEN_GAMMA)
    z += np.uint64((key + _GOLDEN_GAMMA) & _WORD)
    for shift, mix in _MIX:
        z ^= z >> np.uint64(shift)
        z *= np.uint64(mix)
    z ^= z >> np.uint64(31)
    return ((z >> np.uint64(11)).astype(float) + 0.5) * 2.0 ** -53


def _drop_known(w, V, v0):
    """Of two eigenpairs ``(w, V)`` at the sought end, the one not along v0."""
    pick = 1 - int(np.argmax(np.abs(V.T @ v0)))
    return float(w[pick]), V[:, pick].copy()


def _dense(A, v0, largest):
    w, V = np.linalg.eigh(A if isinstance(A, np.ndarray) else A.to_dense())
    end = slice(-2, None) if largest else slice(0, 2)
    return (*_drop_known(w[end], V[:, end], v0), w)


def _reduce(x, diag, sq, levels=None):
    """Cyclic reduction of the tridiagonal ``T - x I``.

    `diag` is the diagonal of `T` and `sq` the squares of its nonpositive
    off-diagonal.  Each level eliminates the odd unknowns, whose pivots
    must be positive, and leaves a tridiagonal Schur complement on the
    even ones.  Returns the last pivot, that of unknown 0, when every
    pivot is positive, so that ``T - x I`` is positive definite, and None
    otherwise (a NaN pivot included).  When `levels` is a list,
    each level's pivots and coupling magnitudes are appended to it, for
    `_solve`.
    """
    d, c = diag - x, sq
    with np.errstate(all="ignore"):  # an overflow only fails the test
        while d.size > 1:
            p = d[1::2]
            if not p.min() > 0:
                return None
            t = 1.0 / p
            left = c[0::2] * t            # odd j into even j
            right = c[1::2] * t[:c.size // 2]  # odd j into even j + 1
            if levels is not None:
                levels.append((p.copy(), np.sqrt(c)))
            d = d[0::2].copy()
            d[:left.size] -= left
            d[1:right.size + 1] -= right
            c = left[:right.size] * right
    return float(d[0]) if d[0] > 0 else None


def _reduce_edges(x, up, down, levels=None):
    """`_reduce` for ``R R^T - x I``, held as the rates of the edge chain.

    ``R R^T`` is similar to the matrix ``F`` of a chain on the N edges
    that moves from edge j to j - 1 at rate ``up[j]`` and to j + 1 at
    rate ``down[j]``, killed at rate ``up[0]`` on edge 0 and ``down[-1]``
    on edge N - 1; the pivots are those of ``R R^T - x I``.  Each level
    keeps, for the even edges, the rates left and right, the killing rate
    ``k`` and the mass ``m`` with which the shift enters, all sums and
    products of positive numbers (Grassmann, Taksar & Heyman 1985); only
    a pivot, ``rates + k - x m``, subtracts.  So the test resolves a gap
    relative to itself, where `_reduce` resolves it only to about eps
    times the largest rate.  But a chain that drifts far toward one end
    makes the terms of a pivot grow without bound at a shift near its gap,
    so :func:`_tridiagonal` bisects on this test only when the plain one
    fails, and certifies what it finds.  At ``x = 0`` nothing subtracts.
    """
    a, b = up[1:], down[:-1]  # rates from edge j + 1 to j, and j to j + 1
    k, m = np.zeros(up.size), np.ones(up.size)
    k[0] += up[0]
    k[-1] += down[-1]
    with np.errstate(all="ignore"):  # an overflow only fails the test
        while k.size > 1:
            h = b.size // 2  # odd edges with an edge to their right
            p = k[1::2] + a[0::2]
            p[:h] += b[1::2]
            p -= x * m[1::2]
            if not p.min() > 0:
                return None
            t = 1.0 / p
            if levels is not None:
                levels.append((p, np.sqrt(a) * np.sqrt(b)))
            k, m = (_gather(q, a, b, t, h) for q in (k, m))
            a, b = a[1::2] * a[0::2][:h] * t[:h], b[0::2][:h] * b[1::2] * t[:h]
        last = k[0] - x * m[0]
    return float(last) if last > 0 else None


def _gather(q, a, b, t, h):
    """The even edges' `q` after the odd ones are eliminated."""
    qt = q[1::2] * t
    out = q[0::2].copy()
    out[:qt.size] += b[0::2] * qt
    out[1:h + 1] += a[1::2] * qt[:h]
    return out


def _solve(levels, last, y):
    """Solve ``(T - x I) w = y`` from the levels `_reduce` kept.

    Every term adds for a positive `y`: the couplings are nonpositive.
    """
    odd = []  # y / p of each level's odd unknowns
    for p, g in levels:
        t = y[1::2] / p
        odd.append(t)
        y = y[0::2].copy()
        y[:t.size] += g[0::2] * t
        y[1:g.size // 2 + 1] += g[1::2] * t[:g.size // 2]
    w = y / last
    for (p, g), t in zip(reversed(levels), reversed(odd)):
        wo = g[0::2] * w[:p.size]
        wo[:g.size // 2] += g[1::2] * w[1:g.size // 2 + 1]
        wo /= p
        out = np.empty(w.size + p.size)
        out[0::2], out[1::2] = w, wo + t
        w = out
    return w


def _tridiagonal(A):
    """The smallest eigenpair of ``-S = R^T R`` off its null vector.

    See the module docstring.  A gap of at least `_SMALL_GAP` times the
    largest exit rate is the upper end of the plain test's final bracket.
    A smaller one is the Rayleigh quotient of the Perron vector after
    unshifted solves, bracketed by Collatz-Wielandt; its vector comes from
    the plain test's bracket or, failing that, the edge test's.
    """
    up, down = A.up, A.down
    diag, sq = up + down, down[:-1] * up[1:]
    small = _SMALL_GAP * float(diag.max())

    def plain(x, levels=None):
        return _reduce(x, diag, sq, levels)

    def edges(x, levels=None):
        return _reduce_edges(x, up, down, levels)

    # R R^T 1: its mean bounds the gap above, as does the least diagonal
    # entry; its least entry bounds it below (Collatz-Wielandt), if the
    # test passes there
    rows, off = diag.copy(), np.sqrt(sq)
    rows[:-1] -= off
    rows[1:] -= off
    start = (float(rows.min()), min(float(rows.mean()), float(diag.min())))
    del rows, off
    lo, hi, w, rayleigh = _bracket(plain, up.size, *start)
    if lo >= small:
        if not rayleigh - lo <= _CERTIFIED_RTOL * lo:
            raise NumericalFailureError(
                f"Rayleigh quotient {rayleigh:.6e} is not within "
                f"{_CERTIFIED_RTOL:.0e} of the gap's certified lower end "
                f"{lo:.6e}")
        return hi, _eigenvector(A, w, False)
    # the plain test errs by about eps times the largest rate, too coarse
    # here.  The unshifted solves certify whatever vector they start from;
    # when the plain test's leads nowhere, the edge test's bracket gives one
    levels = []
    last = _reduce_edges(0.0, up, down, levels)
    value = bound = math.nan
    if last and lo > 0:
        value, bound, w = _polish(levels, last, w)
    if last and not bound >= (1 - _CERTIFIED_RTOL) * value:
        lo, hi, w, _ = _bracket(edges, up.size, *start)
        if lo > 0:
            value, bound, w = _polish(levels, last, w)
    if bound >= (1 - _CERTIFIED_RTOL) * value:
        return value, _eigenvector(A, w, True)
    if not lo > 0:
        raise NumericalFailureError(
            f"positive-definiteness test failed at the gap's certified "
            f"lower end {lo:.6e}")
    lost = (" (nan: the Perron vector left the double range)"
            if math.isnan(bound) or math.isnan(value) else "")
    raise NumericalFailureError(
        f"the gap's Collatz-Wielandt lower bound {bound:.9e} is not within "
        f"{_CERTIFIED_RTOL:.0e} of its Rayleigh quotient {value:.9e}{lost}")


def _bracket(test, n, least, hi):
    """Bisect on `test` from ``[0, hi]``; ``(lo, hi, w, rayleigh)``.

    `least` is tried as the first lower end.  `w`, of size `n`, is the
    Perron vector after `_INVERSE_STEPS` solves at the final lower end,
    from the all-ones vector, and `rayleigh` its Rayleigh quotient, formed
    from the last solve so that only positive terms add; ``lo`` is 0, and
    `w` None, when the test fails at every shift tried.
    """
    lo, floor = 0.0, np.finfo(float).tiny
    if 0 < least < hi and test(least) is not None:
        lo = least
    while hi - lo > _BRACKET_RTOL * hi:
        # geometric steps while the bracket spans more than a factor 4
        mid = (0.5 * (lo + hi) if hi < 4 * lo
               else math.sqrt(max(lo, floor)) * math.sqrt(hi))
        if not lo < mid < hi:
            break
        if test(mid) is None:
            hi = mid
        else:
            lo = mid
    levels = []
    last = test(lo, levels) if lo > 0 else None
    if last is None:
        return 0.0, hi, None, math.nan
    w = np.ones(n)
    with np.errstate(all="ignore"):  # NaN and inf fail the tests after
        for _ in range(_INVERSE_STEPS):
            y = w * (hi / w.max())
            w = _solve(levels, last, y)
        rayleigh = lo + (y @ w) / (w @ w)  # of w; y.w / w.w adds
    return lo, hi, w, rayleigh


def _polish(levels, last, w):
    """Unshifted solves from `w`, with the edge chain's levels at shift 0.

    Returns ``(rayleigh, bound, w)`` after at most `_POLISH_STEPS` solves,
    or the first at which ``bound`` certifies ``rayleigh``.  For positive
    ``y`` and ``w = (R R^T)^-1 y``, the Rayleigh quotient ``y.w / w.w``
    bounds the gap above and ``min y / w`` below (Collatz-Wielandt); at
    shift 0 the edge chain's pivots only add, so every entry of these
    solves is right to a few roundings, whatever test found `w`.
    """
    rayleigh = bound = math.nan
    with np.errstate(all="ignore"):  # NaN and inf fail the bound
        for _ in range(_POLISH_STEPS):
            y = w / w.max()
            w = _solve(levels, last, y)
            unit = w / w.max()
            rayleigh = (y @ unit) / (w @ unit)
            bound = float(np.min(y / w)) if y.min() > 0 else math.nan
            if bound >= (1 - _CERTIFIED_RTOL) * rayleigh:
                break
    return rayleigh, bound, w


def _eigenvector(A, w, slow):
    """The unit eigenvector ``R^T w`` of ``-S``, `w` that of ``R R^T``.

    Each entry of ``R^T w`` subtracts two terms, which leaves it right only
    to about eps times the root of the largest rate over the gap's.  For a
    `slow` chain whose `log_pi` is known, ``v = sqrt(pi) f`` is summed
    instead from the differences of ``f``, proportional to ``w / sqrt(pi
    up)`` and all positive, outward from the most likely state, centred in
    ``pi``, and scaled in logs so that neither `f` nor ``pi`` need lie in
    the double range; this is kept unless it is not finite.
    """
    up, down = A.up, A.down
    with np.errstate(all="ignore"):
        v = np.zeros(up.size + 1)
        v[:-1] -= np.sqrt(up) * w
        v[1:] += np.sqrt(down) * w
        if slow and A.log_pi is not None:
            log_pi = A.log_pi
            log_step = np.log(w) - 0.5 * (log_pi[:-1] + np.log(up))
            top = log_step.max()
            # in logs only where f would leave the double range, since
            # exp(log) rounds an entry by eps times its log
            top = top if top > 600 else 0.0
            k = int(np.argmax(log_pi))
            step = np.exp(log_step - top)
            f = np.zeros(up.size + 1)
            np.cumsum(step[k:], out=f[k + 1:])
            f[:k] = -np.cumsum(step[:k][::-1])[::-1]
            f -= np.exp(log_pi) @ f
            if top:
                log_v = 0.5 * log_pi + np.log(np.abs(f))
                summed = np.sign(f) * np.exp(log_v - log_v.max())
            else:
                summed = np.exp(0.5 * log_pi) * f
            if np.all(np.isfinite(summed)) and summed.any():
                v = summed
        # a power of 2, exact, so that no square overflows
        v = np.ldexp(v, -int(np.frexp(np.abs(v).max())[1]))
        return v / np.linalg.norm(v)


def _lanczos(A, v0, largest, budget=None):
    """The extremal eigenpair of `A` off `v0` by thick-restart Lanczos.

    Returns ``(value, vector, matvecs)``, or None when the next restart
    would pass `budget` matrix-vector products; see the module docstring.
    """
    n = v0.size
    restarts = max(_MIN_RESTARTS, _RESTARTS_PER_STATE * n)
    budget = math.inf if budget is None else budget
    # push the known eigenvalue past the infinity norm with a rank-one shift
    shift = 1.1 * float(np.max(abs(A) @ np.ones(n))) + 1.0
    sign = -1.0 if largest else 1.0
    end = slice(None, None, -1) if largest else slice(None)  # wanted first
    start = _counter_hash(np.arange(n, dtype=np.uint64), _START_SEED) - 0.5
    start -= (v0 @ start) * v0
    m = min(_KRYLOV_DIM, n)
    V = np.zeros((m + 1, n))  # the basis, one vector per row
    V[0] = start / np.linalg.norm(start)
    T = np.zeros((m, m))      # A projected on the basis
    kept = matvecs = 0
    for _ in range(restarts):
        if matvecs + m - kept > budget:
            return None
        size = m
        for j in range(kept, m):
            w = A @ V[j] + sign * shift * (v0 @ V[j]) * v0
            matvecs += 1
            for _ in range(2):  # orthogonalize against the whole basis, twice
                h = V[:j + 1] @ w
                w -= h @ V[:j + 1]
                T[j, j] += h[j]
            beta = float(np.linalg.norm(w))
            if j + 1 == n or not beta > _EPS * shift:  # an invariant space
                size, beta = j + 1, 0.0
                break
            V[j + 1] = w / beta
            if j + 1 < m:
                T[j, j + 1] = T[j + 1, j] = beta
        theta, Y = np.linalg.eigh(T[:size, :size])
        theta, Y = theta[end], Y[:, end]
        # ARPACK's test at tol=0, on the Krylov estimate of the residual
        if beta * abs(Y[-1, 0]) <= _EPS * max(abs(theta[0]), _EPS ** (2 / 3)):
            vector = Y[:, 0] @ V[:size]
            return float(theta[0]), vector / np.linalg.norm(vector), matvecs
        # restart from the Ritz vectors nearest the wanted end and the
        # residual direction: T becomes diagonal bordered by their couplings
        kept = _KEPT
        V[:kept] = Y[:, :kept].T @ V[:m]
        V[kept] = V[m]
        T[:] = 0.0
        T[range(kept), range(kept)] = theta[:kept]
        T[kept, :kept] = T[:kept, kept] = beta * Y[-1, :kept]
    raise NumericalFailureError(
        f"eigensolver did not converge within {restarts} restarts "
        f"({matvecs} matrix-vector products)", residual=None)


def deflated_extremal(A, known_vector, largest, budget=None):
    """Extremal eigenvalue of symmetric `A` ignoring one known eigenvector.

    The route follows from `A` and `budget`, as the module docstring
    says.  The dense spectrum drops, of the two eigenpairs at the sought
    end, the one along `known_vector`; Lanczos shifts that direction
    away; the bidiagonal solver needs no deflation (its null vector is
    the known one) and certifies its value to 1e-10 relative or refuses.

    Parameters
    ----------
    A : ndarray, generator._CSR or BirthDeathForm, symmetric
    known_vector : ndarray
        Unit vector spanning the eigenspace to exclude.
    largest : bool
        Seek the largest remaining eigenvalue (else the smallest).  A
        `BirthDeathForm` gives only its smallest.
    budget : int, optional
        The matrix-vector products after which Lanczos hands off to the
        dense spectrum, whose result then reads exactly as a dense one;
        0 runs the dense spectrum at once, and None lets Lanczos run to
        its restart cap and refuse past it.

    Returns
    -------
    (DeflatedEigenResult, str)
        The eigenpair and the method that produced it: "tridiagonal",
        "dense" or "lanczos".

    Raises
    ------
    InvalidInputError
        When the dense spectrum is asked of a sparse `A` that its
        `to_dense` refuses.
    ValueError
        When the largest eigenvalue is asked of a `BirthDeathForm`.
    NumericalFailureError
        When Lanczos without a budget exhausts its restarts, when the
        bidiagonal solver cannot certify its value, or when the eigenpair
        residual exceeds 1e-10 times the largest entry of `A` (floored
        at 1).
    """
    v0 = known_vector / np.linalg.norm(known_vector)
    eigenvalues = None
    iterations = 0
    if isinstance(A, BirthDeathForm):
        if largest:
            raise ValueError("a BirthDeathForm gives only its smallest "
                             "eigenvalue")
        method = "tridiagonal"
        value, vector = _tridiagonal(A)
    else:
        found = (None if v0.size < 4 or budget == 0  # no Krylov space
                 else _lanczos(A, v0, largest, budget))
        if found is None:  # or out of its budget: the dense solver runs
            method = "dense"
            value, vector, eigenvalues = _dense(A, v0, largest)
        else:
            method = "lanczos"
            value, vector, iterations = found
    residual = float(np.linalg.norm(A @ vector - value * vector))
    vals = A if isinstance(A, np.ndarray) else A.data
    scale = max(float(vals.max(initial=0)), -float(vals.min(initial=0)), 1.0)
    if not residual <= _RESIDUAL_RTOL * scale:  # NaN fails too
        raise NumericalFailureError(
            f"eigenpair residual {residual:.3e} exceeds {_RESIDUAL_RTOL:.1e} "
            f"relative to scale {scale:.3e}", residual=residual)
    if not abs(np.linalg.norm(vector) - 1.0) <= 1e-8:  # a 0 vector fits
        raise NumericalFailureError("eigenvector is not a unit vector",
                                    residual=residual)
    Av0 = A @ v0
    trivial_residual = float(np.linalg.norm(Av0 - (v0 @ Av0) * v0))
    return DeflatedEigenResult(value=value, vector=vector, residual=residual,
                               iterations=iterations,
                               trivial_residual=trivial_residual,
                               eigenvalues=eigenvalues), method
