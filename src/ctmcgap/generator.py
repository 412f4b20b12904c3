"""Rate matrices of continuous-time Markov chains: construction, validation,
stationary distributions, time reversal, and additive reversibilization.

A rate matrix (generator) `Q` has nonnegative off-diagonal entries and zero
row sums; `Q[i, j]` is the jump rate from state `i` to state `j`.  Matrices
are stored sparsely with the diagonal kept explicit.  All objects here are
treated as immutable after construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dtrtri

from .errors import InvalidInputError, NumericalFailureError

# Above this size the stationary solve of a chain that is not birth-death
# switches from elimination to power iteration on the uniformized kernel.
# At the cutoff the solve's dense copy takes 128 MB and a few seconds.
DENSE_SOLVE_CUTOFF = 4096
_GTH_PANEL = 64  # states eliminated per panel of the blocked solve

# Relative to the largest exit rate (floored at 1): the stationarity residual
# max|p Q|, and row sums, negative rates and detailed-balance defects.
_STATIONARY_RTOL = 1e-10
_RATE_RTOL = 1e-12
_PROB_SUM_ATOL = 1e-12  # a probability vector sums to 1 within this
_POWER_MAX_ITERATIONS = 200_000


class GeneratorMatrix:
    """Rate matrix of a continuous-time Markov chain on `n` states.

    Parameters
    ----------
    matrix : array_like or scipy sparse matrix, shape (n, n)
        Entries of the generator, diagonal included.
    labels : sequence of str, optional
        Human-readable state names, length `n`.

    Notes
    -----
    Construction does not enforce admissibility (zero row sums, nonnegative
    off-diagonal, irreducibility); use :func:`validate_generator` to check.
    This keeps deliberately defective matrices constructible for diagnosis.
    """

    def __init__(self, matrix, labels=None):
        if sp.issparse(matrix):
            m = matrix.tocsr().astype(float)
        else:
            arr = np.asarray(matrix, dtype=float)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise InvalidInputError(
                    f"generator must be square, got shape {arr.shape}")
            m = sp.csr_matrix(arr)
        if m.shape[0] != m.shape[1]:
            raise InvalidInputError(
                f"generator must be square, got shape {m.shape}")
        if m.shape[0] < 1:
            raise InvalidInputError("generator needs at least one state")
        if not np.all(np.isfinite(m.data)):
            raise InvalidInputError("generator entries must be finite")
        if labels is not None:
            labels = [str(s) for s in labels]
            if len(labels) != m.shape[0]:
                raise InvalidInputError(
                    f"{len(labels)} labels for {m.shape[0]} states")
        self._matrix = m
        self._labels = labels
        self._dense = None
        self._structure = None

    @classmethod
    def from_rates(cls, n, rates, labels=None):
        """Build from triplets ``(i, j, rate)``.

        Off-diagonal triplets give jump rates.  Diagonal triplets, when
        present, are stored as given; for every row without an explicit
        diagonal entry the diagonal is set to minus the row's off-diagonal
        sum.  Indices must be integers in ``[0, n)`` and rates finite; a
        repeated ``(i, j)`` pair is rejected.
        """
        if n < 1:
            raise InvalidInputError("n must be >= 1")
        return _assemble(n, _checked_triplets(n, rates), labels)

    @property
    def n(self):
        return self._matrix.shape[0]

    @property
    def matrix(self):
        """The generator in CSR form.  Do not mutate."""
        return self._matrix

    @property
    def labels(self):
        return self._labels

    def to_dense(self):
        """Dense ndarray view of the generator (cached; do not mutate)."""
        if self._dense is None:
            self._dense = self._matrix.toarray()
        return self._dense

    def structure(self):
        """``(band, irreducible)``, read once in O(nnz) (cached).

        `band` is ``(up, down)`` with ``up[i] = Q[i, i+1]`` and
        ``down[i] = Q[i+1, i]`` when every nonzero off-diagonal rate sits
        next to the diagonal (a birth-death chain), else None.
        `irreducible` is true when the positive rates connect every state
        to every other.
        """
        if self._structure is None:
            band = _band_rates(self._matrix)
            irreducible = (_strongly_connected(self) if band is None
                           else bool(np.all(np.minimum(*band) > 0)))
            self._structure = (band, irreducible)
        return self._structure

    def exit_rates(self):
        """Total jump rate out of each state, ``-Q[i, i]`` for admissible Q."""
        return -self._matrix.diagonal()

    def max_rate(self):
        """Largest exit rate; sets the scale for relative tolerances."""
        rates = self.exit_rates()
        return float(rates.max()) if rates.size else 0.0

    def off_diagonal(self):
        """Off-diagonal entries as arrays ``(rows, cols, values)``."""
        coo = self._matrix.tocoo()
        keep = coo.row != coo.col
        return coo.row[keep], coo.col[keep], coo.data[keep]

    def row_rates(self, i):
        """Jump targets and rates out of state `i` (strictly positive only)."""
        lo, hi = self._matrix.indptr[i], self._matrix.indptr[i + 1]
        cols = self._matrix.indices[lo:hi]
        vals = self._matrix.data[lo:hi]
        keep = (cols != i) & (vals > 0)
        return cols[keep], vals[keep]

    def __repr__(self):
        return f"GeneratorMatrix(n={self.n}, nnz={self._matrix.nnz})"


def _checked_triplets(n, rates):
    """The triplets ``(i, j, rate)`` of `rates` as one ``(m, 3)`` float array.

    Indices must be integers (``1.0`` passes) in ``[0, n)``, rates finite,
    and no ``(i, j)`` pair may repeat, diagonal pairs included.  Each error
    names the first offending entry by its position ``rates[k]``.
    """
    try:
        a = np.asarray(rates)
    except (TypeError, ValueError):  # ragged
        a = np.empty(1, dtype=object)
    # strings, None and integers past int64 leave no numeric dtype
    if a.dtype.kind not in "biuf" or a.size and a.shape[1:] != (3,):
        raise InvalidInputError("rates must be (i, j, rate) triplets of numbers")
    a = a.reshape(-1, 3).astype(float)
    ij = a[:, :2]
    integral = np.all(ij == np.floor(ij), axis=1)  # NaN is not
    # no state past the largest intp can be addressed, whatever n claims
    inside = np.all((ij >= 0) & (ij < min(n, np.iinfo(np.intp).max)), axis=1)
    if not np.all(integral & inside):
        k = int(np.argmin(integral & inside))
        what = "out of range" if integral[k] else "not an integer"
        raise InvalidInputError(
            f"rates[{k}] index ({ij[k, 0]:.15g}, {ij[k, 1]:.15g}) {what} "
            f"for n={n}: indices are integers in [0, n)")
    finite = np.isfinite(a[:, 2])
    if not np.all(finite):
        k = int(np.argmin(finite))
        raise InvalidInputError(f"rates[{k}] rate {a[k, 2]} is not finite")
    # a stable sort puts each repeat after the earlier entries of its pair
    order = np.lexsort((ij[:, 1], ij[:, 0]))
    repeat = np.all(ij[order[1:]] == ij[order[:-1]], axis=1)
    if np.any(repeat):
        k = int(order[1:][repeat].min())
        raise InvalidInputError(f"duplicate rate entry for ({ij[k, 0]:.0f}, "
                                f"{ij[k, 1]:.0f}) at rates[{k}]")
    return a


def _assemble(n, a, labels):
    """The generator of valid triplets `a` (repeats add), as `from_rates`."""
    rows, cols = a[:, 0].astype(np.intp), a[:, 1].astype(np.intp)
    off = rows != cols
    M = sp.coo_matrix((a[off, 2], (rows[off], cols[off])),
                      shape=(n, n)).tocsr()
    d = -np.asarray(M.sum(axis=1)).ravel()
    d[rows[~off]] = a[~off, 2]
    return GeneratorMatrix(M + sp.diags(d, format="csr", shape=(n, n)),
                           labels=labels)


class StationaryDistribution:
    """Stationary law of a chain, carried as ``log_probs``.

    ``probs`` is its linear-scale view.  A law given in linear scale is kept
    there bit for bit; one formed in log scale (a birth-death product form)
    reads ``exp(log_probs)``, so its entries below the double range read 0
    in ``probs`` while ``log_probs`` keeps them.

    Raises
    ------
    InvalidInputError
        If any entry is not strictly positive or the sum deviates from 1
        by more than 1e-12.
    """

    def __init__(self, probs):
        p = np.asarray(probs, dtype=float)
        if p.ndim != 1 or p.size < 1:
            raise InvalidInputError("probability vector must be 1-D and nonempty")
        if not np.all(np.isfinite(p)):
            raise InvalidInputError("probabilities must be finite")
        if np.any(p <= 0):
            raise InvalidInputError("stationary distribution must be strictly positive")
        if abs(p.sum() - 1.0) > _PROB_SUM_ATOL:
            raise InvalidInputError(
                f"probabilities sum to {p.sum()!r}, not 1 within "
                f"{_PROB_SUM_ATOL}")
        self.probs = p
        self.log_probs = np.log(p)

    @classmethod
    def _from_log(cls, log_probs):
        """The law with the finite, normalized logarithms `log_probs`."""
        law = cls.__new__(cls)
        law.probs = np.exp(log_probs)
        law.log_probs = log_probs
        return law

    @property
    def n(self):
        return self.probs.size

    def __repr__(self):
        return f"StationaryDistribution(n={self.n})"


class ObservableFunction:
    """Real function on the state space with a declared range ``[lower, upper]``.

    The declared range must contain every value; it is what tail bounds use
    for the span ``upper - lower``, so a loose range weakens bounds but is
    legal.
    """

    def __init__(self, values, lower, upper):
        try:
            v = np.asarray(values, dtype=float)
            lower, upper = float(lower), float(upper)
        except (TypeError, ValueError, OverflowError):
            raise InvalidInputError("function values and range must be numbers")
        if v.ndim != 1 or v.size < 1:
            raise InvalidInputError("function values must be 1-D and nonempty")
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("function values must be finite")
        if not lower <= upper:
            raise InvalidInputError(f"empty range [{lower}, {upper}]")
        if v.min() < lower or v.max() > upper:
            raise InvalidInputError(
                f"values fall outside declared range [{lower}, {upper}]")
        self.values = v
        self.lower = lower
        self.upper = upper

    @property
    def span(self):
        return self.upper - self.lower

    def __repr__(self):
        return (f"ObservableFunction(n={self.values.size}, "
                f"range=[{self.lower}, {self.upper}])")


@dataclass
class ValidationReport:
    """Outcome of admissibility checks on a generator.

    `admissible` is true iff there are no row-sum defects, no negative
    off-diagonal entries, and the transition graph is strongly connected.
    """

    row_sum_defects: list = field(default_factory=list)   # (row, defect)
    negative_entries: list = field(default_factory=list)  # (i, j, value)
    strongly_connected: bool = True
    messages: list = field(default_factory=list)

    @property
    def admissible(self):
        return (not self.row_sum_defects and not self.negative_entries
                and self.strongly_connected)


def _strongly_connected(Q):
    from scipy.sparse.csgraph import connected_components

    # the edges are the strictly positive off-diagonal rates
    rows, cols, vals = Q.off_diagonal()
    keep = vals > 0
    graph = sp.csr_matrix((vals[keep], (rows[keep], cols[keep])),
                          shape=(Q.n, Q.n))
    count, _ = connected_components(graph, directed=True, connection="strong")
    return count == 1


def validate_generator(Q):
    """Check admissibility of a rate matrix.

    Row sums must vanish, and off-diagonal entries must not be negative,
    within 1e-12 times the largest exit rate (floored at 1).

    Parameters
    ----------
    Q : GeneratorMatrix

    Returns
    -------
    ValidationReport
        Never raises for a defective matrix; defects are reported.
    """
    report = ValidationReport()
    atol = _RATE_RTOL * max(Q.max_rate(), 1.0)
    row_sums = np.asarray(Q.matrix.sum(axis=1)).ravel()
    for i in np.nonzero(np.abs(row_sums) > atol)[0]:
        report.row_sum_defects.append((int(i), float(row_sums[i])))
        report.messages.append(f"row {i} sums to {row_sums[i]:.3e}")
    rows, cols, vals = Q.off_diagonal()
    neg = vals < -atol
    report.negative_entries = list(zip(rows[neg].tolist(), cols[neg].tolist(),
                                       vals[neg].tolist()))
    report.messages += [f"negative rate {v:.3e} at ({i}, {j})"
                        for i, j, v in report.negative_entries]
    report.strongly_connected = Q.structure()[1]
    if not report.strongly_connected:
        report.messages.append("transition graph is not strongly connected")
    return report


def _gth_solve(A):
    """Stationary vector of a conservative rate matrix by state elimination.

    Grassmann-Taksar-Heyman elimination, blocked: states are eliminated
    from the last down in panels of `_GTH_PANEL`.  A panel is eliminated
    in a work block of its own rates plus one lumped column, each panel
    state's total rate into the states left of the panel, so every pivot
    is still the row's sum left of its diagonal.  The panel's final rows
    and columns outside it then follow as matrix products with the
    unit-triangular transforms ``(I - triu(B, 1)/s)^-1`` and
    ``(I - tril(B, -1)/s)^-1`` of the eliminated block `B` and its pivots
    `s`, which are sums of powers of nonnegative matrices; the rows above
    the panel and the trailing block are updated a strip of rows at a
    time, so no temporary of the matrix's size is made.  Every update adds
    products of nonnegative off-diagonal rates (the diagonal is never
    read), so the method is subtraction-free and every entry keeps full
    relative accuracy even when the distribution spans hundreds of orders
    of magnitude.  The last panel is eliminated in `A` itself, so chains of
    at most `_GTH_PANEL` states take exactly the arithmetic of the
    unblocked loop.

    `A` is a float ndarray the solve owns: it is overwritten.  A pivot that
    is not positive raises NumericalFailureError; for an irreducible chain
    it means that ``pi`` left the double range.
    """
    n = A.shape[0]
    s = np.zeros(n)
    for hi in range(n, 1, -_GTH_PANEL):
        lo = max(hi - _GTH_PANEL, 1)
        # row and column k >= 1 of W are state lo-1+k; column 0 lumps the
        # states 0 .. lo-1 (row 0 is state 0 when lo == 1, else zeros)
        if lo == 1:
            W = A[:hi, :hi]
        else:
            W = np.zeros((hi - lo + 1, hi - lo + 1))
            W[1:, 0] = A[lo:hi, :lo].sum(axis=1)
            W[1:, 1:] = A[lo:hi, lo:hi]
        for k in range(hi - lo, 0, -1):
            pivot = s[lo - 1 + k] = W[k, :k].sum()
            if pivot <= 0:
                raise NumericalFailureError(
                    f"elimination pivot {pivot!r} at state {lo - 1 + k}; the "
                    "stationary law underflows the double range")
            W[:k, :k] += np.outer(W[:k, k] / pivot, W[k, :k])
        if lo == 1:
            break
        B, d = W[1:, 1:], s[lo:hi]
        A[lo:hi, lo:hi] = B
        eye = np.eye(hi - lo)
        U, _ = dtrtri(eye - np.triu(B, 1) / d)
        L, _ = dtrtri(eye - np.tril(B, -1) / d[:, None], lower=1)
        X = (U / d[:, None]) @ A[lo:hi, :lo]  # panel rows, each over its pivot
        for i in range(0, lo, _GTH_PANEL):
            rows = slice(i, min(i + _GTH_PANEL, lo))
            C = A[rows, lo:hi] @ L  # the panel columns of these rows
            A[rows, lo:hi] = C
            A[rows, :lo] += C @ X
    x = np.zeros(n)
    x[0] = 1.0
    for k in range(1, n):
        x[k] = (x[:k] @ A[:k, k]) / s[k]
    return x / x.sum()


def _check_stationary(p, M, scale, what):
    """Raise unless `p` is stationary for `M`; `what` opens the message."""
    resid = float(np.max(np.abs(p @ M)))
    if not resid <= _STATIONARY_RTOL * max(scale, 1.0):
        raise NumericalFailureError(
            f"{what} residual {resid:.3e} exceeds {_STATIONARY_RTOL:.1e} * "
            f"{max(scale, 1.0):.3e}", residual=resid)


def _power_iteration_solve(Q):
    """Left fixed vector of the uniformized kernel, for large sparse chains.

    Stops once every component is stationary to `_STATIONARY_RTOL` relative
    to its own flow, ``|(pi Q)_j| <= rtol * pi_j * q_j``: an absolute test
    accepts small entries that are still far from converged.
    """
    n = Q.n
    rates = Q.exit_rates()
    q = 1.05 * Q.max_rate()
    if q <= 0:
        raise NumericalFailureError("all exit rates vanish")
    M = Q.matrix
    pi = np.full(n, 1.0 / n)
    check_every = 50
    for it in range(1, _POWER_MAX_ITERATIONS + 1):
        pi = pi + (pi @ M) / q
        pi = np.maximum(pi, 0.0)
        pi /= pi.sum()
        if it % check_every == 0:
            flow = pi * rates
            resid = np.max(np.abs(pi @ M) / np.where(flow > 0, flow, np.nan))
            if resid <= _STATIONARY_RTOL:
                return pi
    raise NumericalFailureError(
        f"stationary iteration did not reach tolerance after "
        f"{_POWER_MAX_ITERATIONS} steps", residual=float(resid))


def _band_rates(M):
    """The band of CSR matrix `M`, as in :meth:`GeneratorMatrix.structure`."""
    rows = np.repeat(np.arange(M.shape[0], dtype=M.indices.dtype),
                     np.diff(M.indptr))
    if np.any(M.data[np.abs(M.indices - rows) > 1] != 0):
        return None
    return M.diagonal(1), M.diagonal(-1)


def _exact_cumsum(x):
    """Cumulative sums of `x`, each within one rounding of the exact sum."""
    # the high parts lie on a grid coarse enough for every partial sum of
    # them to be exact; the remainders are too small to lose anything
    quantum = 2.0 ** (np.ceil(np.log2(np.abs(x).sum() + 1.0)) - 50)
    high = np.round(x / quantum) * quantum
    return np.cumsum(high) + np.cumsum(x - high)


def _log_sum_exp(x):
    """``log(sum(exp(x)))`` of a nonempty array, free of overflow."""
    top = x.max()
    return top + np.log(np.exp(x - top).sum())


def _birth_death_log_mu(up, down):
    """``log mu[k] = sum_{i<k} log(up[i]) - log(down[i])``, the product form
    of a birth-death chain with positive rates: each entry within a few
    roundings of the exact sum of its terms, and none underflows."""
    return np.concatenate([[0.0], _exact_cumsum(np.log(up) - np.log(down))])


def _irreducible_band(Q):
    """The band of ``Q.structure()``; InvalidInputError if `Q` is reducible."""
    band, irreducible = Q.structure()
    if not irreducible:
        raise InvalidInputError(
            "generator is reducible: its positive rates do not connect "
            "every state to every other")
    return band


def stationary_distribution(Q):
    """Solve ``pi Q = 0`` with ``pi > 0`` summing to 1.

    A birth-death chain's ``pi`` is the product form, built in log scale in
    O(n): its ``log_probs`` hold at any size, while ``probs`` reads 0 below
    the double range.  Any other chain's is solved in linear scale: by
    blocked subtraction-free elimination (componentwise relative accuracy)
    on a dense copy of `Q` up to `DENSE_SOLVE_CUTOFF` (4 096) states, each
    panel of `_GTH_PANEL` states eliminated with one lumped column for the
    states left of it, its rows and columns outside it formed by
    nonnegative unit-triangular transforms, and the trailing block updated
    in strips of rows; and by power iteration on the
    uniformized kernel beyond, run until ``|(pi Q)_j| <= 1e-10 pi_j q_j``
    for every state `j` with exit rate `q_j`.  The result is accepted when
    ``max|pi Q|`` is at most 1e-10 times the largest exit rate (floored
    at 1).

    Parameters
    ----------
    Q : GeneratorMatrix
        Admissible generator (irreducible, conservative).

    Returns
    -------
    StationaryDistribution

    Raises
    ------
    InvalidInputError
        If `Q` is reducible; checked before any solver runs.
    NumericalFailureError
        If the residual test fails, carrying the achieved residual, or if
        ``pi`` leaves the double range in linear scale: then an elimination
        pivot vanishes, or an entry of an elimination or iteration result
        is not positive (NaN included).  Reducible chains never get here.
    """
    band = _irreducible_band(Q)
    if band is not None:
        log_mu = _birth_death_log_mu(*band)
        pi = StationaryDistribution._from_log(log_mu - _log_sum_exp(log_mu))
    else:
        # an overflow leaves NaN or 0 in p, which the test below rejects
        with np.errstate(over="ignore", invalid="ignore"):
            p = _gth_solve(Q.matrix.toarray()) \
                if Q.n <= DENSE_SOLVE_CUTOFF else _power_iteration_solve(Q)
        if not np.all(p > 0):
            raise NumericalFailureError(
                "stationary solve produced non-positive or NaN entries")
        pi = StationaryDistribution(p)
    _check_stationary(pi.probs, Q.matrix, Q.max_rate(), "stationary")
    return pi


def _as_probs(pi, n=None):
    """Accept StationaryDistribution or array; return the ndarray."""
    p = pi.probs if isinstance(pi, StationaryDistribution) else \
        np.asarray(pi, dtype=float)
    if n is not None and p.size != n:
        raise InvalidInputError(f"distribution has {p.size} entries, chain has {n}")
    return p


def _as_law(pi, n):
    """Accept StationaryDistribution or array; return the former."""
    p = _as_probs(pi, n)
    return pi if isinstance(pi, StationaryDistribution) else \
        StationaryDistribution(p)


def dual_generator(Q, pi):
    """Time-reversed generator ``Qhat[i, j] = pi[j] Q[j, i] / pi[i]``.

    The reversal has the same stationary distribution and the same exit
    rates; its diagonal is recomputed so rows sum to zero exactly.

    Raises
    ------
    InvalidInputError
        If `pi` has a zero (or negative) entry.
    NumericalFailureError
        If `pi` is not stationary for the result within 1e-10 relative to
        the largest exit rate of `Q`.
    """
    p = _as_probs(pi, Q.n)
    if np.any(p <= 0):
        raise InvalidInputError("time reversal needs strictly positive pi")
    rows, cols, vals = Q.off_diagonal()
    # entry Q[j, i] = v contributes Qhat[i, j] = pi[j] v / pi[i]
    hat_rows, hat_cols = cols, rows
    hat_vals = vals * p[rows] / p[cols]
    off = sp.coo_matrix((hat_vals, (hat_rows, hat_cols)),
                        shape=(Q.n, Q.n)).tocsr()
    diag = -np.asarray(off.sum(axis=1)).ravel()
    Qhat = GeneratorMatrix(off + sp.diags(diag, format="csr", shape=(Q.n, Q.n)),
                           labels=Q.labels)
    _check_stationary(p, Qhat.matrix, Q.max_rate(),
                      "pi is not stationary for the reversal:")
    return Qhat


def additive_symmetrization(Q, pi):
    """Reversible generator ``(Q + Qhat) / 2`` with `Qhat` the time reversal.

    Detailed balance of the result with respect to `pi` is verified; the
    spectral gap of the original chain is by definition the gap of this
    reversibilization.
    """
    p = _as_probs(pi, Q.n)
    Qhat = dual_generator(Q, p)
    Qbar = GeneratorMatrix((Q.matrix + Qhat.matrix) * 0.5, labels=Q.labels)
    if not is_reversible(Qbar, p):
        raise NumericalFailureError(
            "additive symmetrization failed detailed balance")
    return Qbar


def is_reversible(Q, pi):
    """Detailed balance test: ``pi[i] Q[i, j] == pi[j] Q[j, i]`` for all pairs.

    The comparison is within 1e-12 times the largest exit rate.
    """
    p = _as_probs(pi, Q.n)
    F = Q.matrix.multiply(p[:, None])
    asym = (F - F.T).tocoo()
    worst = float(np.max(np.abs(asym.data))) if asym.nnz else 0.0
    return worst <= _RATE_RTOL * max(Q.max_rate(), 1.0)


def _birth_death_rates(death_rates, birth_rates, level=1):
    """Positive finite down and up rates of one length; entry i links
    levels ``level + i - 1`` and ``level + i``."""
    a = np.asarray(death_rates, dtype=float)
    b = np.asarray(birth_rates, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.size != b.size or a.size < 1:
        raise InvalidInputError(
            "death and birth rate lists must be 1-D with equal length >= 1")
    bad = ~((a > 0) & (b > 0) & (a < np.inf) & (b < np.inf))  # NaN too
    if bad.any():
        raise InvalidInputError(f"rate at level {level + int(np.argmax(bad))} "
                                "is not positive and finite")
    return a, b


def build_birth_death(death_rates, birth_rates, labels=None):
    """Tridiagonal generator on states ``0..N``.

    Parameters
    ----------
    death_rates : sequence of float, length N
        Down rates ``a_1..a_N``; ``Q[i, i-1] = a_i`` for ``i = 1..N``.
    birth_rates : sequence of float, length N
        Up rates ``b_0..b_{N-1}``; ``Q[i, i+1] = b_i`` for ``i = 0..N-1``.
    """
    a, b = _birth_death_rates(death_rates, birth_rates)
    exit_rates = np.append(b, 0.0) + np.insert(a, 0, 0.0)
    Q = sp.diags([a, -exit_rates, b], [-1, 0, 1], format="csr")
    return GeneratorMatrix(Q, labels=labels)


def build_three_state():
    """The bundled three-state demo chain (non-reversible, known gap)."""
    return GeneratorMatrix.from_rates(
        3,
        [(0, 1, 1.0), (0, 2, 1.0),
         (1, 0, 1.0), (1, 2, 2.0),
         (2, 0, 1.0)],
        labels=["s0", "s1", "s2"])


def parse_model(obj, source="<model>"):
    """Build a GeneratorMatrix from the model-file dictionary.

    Expected shape::

        {"n": int, "rates": [[i, j, rate], ...], "labels": [...]?}

    Triplets are checked as by :meth:`GeneratorMatrix.from_rates`, and
    off-diagonal rates must be nonnegative; diagonals are then dropped and
    recomputed as minus the row sums.  A reducible chain has no unique
    ``pi`` and is rejected, before any O(n) allocation when it has fewer
    positive off-diagonal rates than states.
    """
    if not isinstance(obj, dict):
        raise InvalidInputError(f"{source}: top level must be an object")
    n = obj.get("n")
    if (isinstance(n, bool) or not isinstance(n, (int, float))
            or isinstance(n, float) and not n.is_integer() or n < 1):
        raise InvalidInputError(
            f"{source}: field 'n' must be a positive integer")
    n = int(n)
    raw = obj.get("rates")
    if not isinstance(raw, list):
        raise InvalidInputError(f"{source}: field 'rates' must be a list")
    for k, entry in enumerate(raw):
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise InvalidInputError(f"{source}: rates[{k}] must be [i, j, rate]")
    labels = obj.get("labels")
    if labels is not None and (not isinstance(labels, list)
                               or len(labels) != n):
        raise InvalidInputError(
            f"{source}: 'labels' must be a list of length n={n}")
    try:
        a = _checked_triplets(n, raw)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{source}: {exc}")
    off = a[:, 0] != a[:, 1]
    negative = off & (a[:, 2] < 0)
    if np.any(negative):
        k = int(np.argmax(negative))
        raise InvalidInputError(
            f"{source}: rates[{k}] value {a[k, 2]} must be nonnegative")
    # a strongly connected graph on n >= 2 states has at least n edges
    if n < 2 or np.count_nonzero(off & (a[:, 2] > 0)) >= n:
        Q = _assemble(n, a[off], labels)
        if Q.structure()[1]:
            return Q
    raise InvalidInputError(
        f"{source}: transition graph is not strongly connected")


def _read_json(path, what):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InvalidInputError(f"{what} file not found: {path}")
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path}: invalid JSON at line {exc.lineno}, "
                                f"column {exc.colno}: {exc.msg}")
    except (OSError, ValueError) as exc:  # a directory, bytes not UTF-8
        raise InvalidInputError(f"cannot read {what} file {path}: {exc}")


def load_model(path):
    """Read a model JSON file; see :func:`parse_model` for the schema."""
    return parse_model(_read_json(path, "model"), source=str(path))


def parse_observable(obj, source="<function>"):
    """Build an ObservableFunction from ``{"values": [...], "range": [a, b]}``."""
    if not isinstance(obj, dict):
        raise InvalidInputError(f"{source}: top level must be an object")
    values = obj.get("values")
    rng = obj.get("range")
    if not isinstance(values, list) or not values:
        raise InvalidInputError(f"{source}: 'values' must be a nonempty list")
    if not isinstance(rng, (list, tuple)) or len(rng) != 2:
        raise InvalidInputError(f"{source}: 'range' must be [a, b]")
    try:
        return ObservableFunction(values, rng[0], rng[1])
    except InvalidInputError as exc:
        raise InvalidInputError(f"{source}: {exc}")


def load_observable(path):
    """Read a function JSON file; see :func:`parse_observable`."""
    return parse_observable(_read_json(path, "function"), source=str(path))
