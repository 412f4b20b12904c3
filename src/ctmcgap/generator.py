"""Rate matrices of continuous-time Markov chains: construction, validation,
stationary distributions, and additive reversibilization.

A rate matrix (generator) `Q` has nonnegative off-diagonal entries and zero
row sums; `Q[i, j]` is the jump rate from state `i` to state `j`.  Matrices
are stored as NumPy arrays in compressed sparse row form, the diagonal kept
explicit; one assembled from rates stores no cell of value 0.  All objects
here are treated as immutable after construction.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from ._symeig import _counter_hash
from .errors import InvalidInputError, NumericalFailureError

# The size and cost rules, here alone.  `to_dense` refuses more states than
# DENSE_SOLVE_CUTOFF (128 MB): no elimination, dense spectrum or skeleton
# beyond.  Below it `_dense_cost_in_steps` sets each iteration's budget.
DENSE_SOLVE_CUTOFF = 4096
# The cost rule's fit, in seconds: the dense route on n states takes
# c3 n^3 + c2 n^2 + c1 n, and a step of the iteration that stands in for
# it c0 + cn n, plus _SPARSE_ENTRY_S per stored entry its products multiply
# or _DENSE_ENTRY_S per entry of a dense matrix.  Fitted by least squares
# in relative error to warm in-process timings on 20 to 2 500 states of
# perfbench's `general_chain` (a ring plus five random out-edges a state),
# on a 2-core x86-64 machine with Python 3.11 and NumPy 2.4 (OpenBLAS).
# Each dense route came within 0.45-1.3 times its measured time, each
# step within 0.75-1.1 times.  A budget under _HANDOFF_FLOOR steps (about
# one Krylov basis) leaves no room to converge: the dense route then runs
# at once.
_ROUTE_COSTS = {  # route: ((c3, c2, c1), (c0, cn))
    "eigh": ((4.6e-11, 1.1e-7, 0.0), (21.5e-6, 50e-9)),  # Lanczos steps
    "elimination": ((3.3e-11, 0.0, 1.25e-5), (10e-6, 0.0)),  # pi iteration
}
_SPARSE_ENTRY_S = 3.5e-9
_DENSE_ENTRY_S = 0.3e-9
_HANDOFF_FLOOR = 30
_GTH_PANEL = 64  # states eliminated per panel of the blocked solve

# Relative to the largest exit rate (floored at 1): the stationarity residual
# max|p Q|, and row sums and negative rates.
_STATIONARY_RTOL = 1e-10
_RATE_RTOL = 1e-12
_PROB_SUM_ATOL = 1e-12  # a stationary law sums to 1 within this
_WEIGHT_SUM_ATOL = 1e-9  # and a caller's probability weights within this
# The stationary iteration: steps it may take above DENSE_SOLVE_CUTOFF,
# steps between residual checks, and the componentwise residual at which
# it replaces elimination (its two iterates then agree to ten times that).
_ITERATION_BUDGET = 10_000
_ITERATION_CHECK = 10
_ITERATION_RTOL = 1e-13


def _dense_cost_in_steps(route, n, nnz):
    """How many steps of an iteration cost as much as the dense `route`
    on `n` states, by the fit of `_ROUTE_COSTS`.

    `route` is "eigh", whose steps are Lanczos steps (one product and its
    re-orthogonalization), or "elimination", whose steps are those of the
    stationary iteration (one product per start).  `nnz` counts the stored
    entries one step multiplies, or is None for a dense n x n matrix.
    Returns 0 below `_HANDOFF_FLOOR` steps (take the dense route at once),
    and None above `DENSE_SOLVE_CUTOFF` states, where no dense route exists
    to hand off to.
    """
    if n > DENSE_SOLVE_CUTOFF:
        return None
    (c3, c2, c1), (c0, cn) = _ROUTE_COSTS[route]
    products = (_DENSE_ENTRY_S * n * n if nnz is None
                else _SPARSE_ENTRY_S * nnz)
    steps = int((c3 * n ** 3 + c2 * n ** 2 + c1 * n)
                / (c0 + cn * n + products))
    return steps if steps >= _HANDOFF_FLOOR else 0


def _check_dense_cap(n):
    """Refuse (InvalidInputError) a dense n x n copy above the cap; a route
    that will need one calls this before it does any other work."""
    if n > DENSE_SOLVE_CUTOFF:
        raise InvalidInputError(f"{n} states exceed the dense cap "
                                f"of {DENSE_SOLVE_CUTOFF}")


class _CSR:
    """A square matrix in compressed sparse row form, held as NumPy arrays.

    `_indptr`, `_indices` and `_data` are the CSR arrays, each row's
    entries in ascending column order.  ``A @ x`` sums each row in stored
    order, as SciPy's ``csr_matvec`` does, so its results are bit for bit
    SciPy's.
    """

    def __init__(self, indptr, indices, data):
        self._indptr, self._indices, self._data = indptr, indices, data
        self._rows = None

    @property
    def n(self):
        return self._indptr.size - 1

    @property
    def nnz(self):
        return self._data.size

    @property
    def data(self):
        """The stored entries (the array itself: writes change the matrix)."""
        return self._data

    def _row_index(self):
        """The row of every stored entry (cached)."""
        if self._rows is None:
            rows = np.arange(self.n, dtype=self._indices.dtype)
            self._rows = np.repeat(rows, np.diff(self._indptr))
        return self._rows

    def to_dense(self):
        """A new dense ndarray copy of the matrix; repeated entries add.
        Refused (InvalidInputError) above `DENSE_SOLVE_CUTOFF` states."""
        _check_dense_cap(self.n)
        dense = np.zeros((self.n, self.n))
        np.add.at(dense, (self._row_index(), self._indices), self._data)
        return dense

    def off_diagonal(self):
        """Off-diagonal entries as arrays ``(rows, cols, values)``."""
        rows = self._row_index()
        keep = rows != self._indices
        return rows[keep], self._indices[keep], self._data[keep]

    def __matmul__(self, x):
        """``A @ x`` for a vector `x`, each row summed in stored order."""
        return np.bincount(self._row_index(),
                           weights=self._data * x[self._indices],
                           minlength=self.n)

    def vecmat(self, p):
        """``p @ A``, each column summed in row order."""
        return np.bincount(self._indices,
                           weights=self._data * p[self._row_index()],
                           minlength=self.n)

    def __abs__(self):
        return _CSR(self._indptr, self._indices, np.abs(self._data))


class GeneratorMatrix(_CSR):
    """Rate matrix of a continuous-time Markov chain on `n` states.

    Parameters
    ----------
    matrix : array_like or sparse matrix, shape (n, n)
        Entries of the generator, diagonal included.  A sparse matrix is
        anything with a ``tocsr()`` method, such as SciPy's.
    labels : sequence of str, optional
        Human-readable state names, length `n`.

    Notes
    -----
    Construction does not enforce admissibility (zero row sums, nonnegative
    off-diagonal, irreducibility); use :func:`validate_generator` to check.
    This keeps deliberately defective matrices constructible for diagnosis.

    The entries are held as the three CSR arrays; a sparse input that is
    already float64 is kept without a copy, its stored entries as given.
    """

    def __init__(self, matrix, labels=None):
        if hasattr(matrix, "tocsr"):  # a SciPy sparse matrix or array
            m = matrix.tocsr().astype(float, copy=False)
            if m.shape[0] != m.shape[1]:
                raise InvalidInputError(
                    f"generator must be square, got shape {m.shape}")
            self._init(m.indptr, m.indices, m.data, labels)
            return
        arr = np.asarray(matrix, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidInputError(
                f"generator must be square, got shape {arr.shape}")
        rows, cols = np.nonzero(arr)
        self._init(_row_pointers(rows, arr.shape[0]), cols, arr[rows, cols],
                   labels)

    @classmethod
    def _from_csr(cls, indptr, indices, data, labels=None):
        """The generator with CSR arrays ``(indptr, indices, data)``."""
        Q = cls.__new__(cls)
        Q._init(indptr, indices, data, labels)
        return Q

    def _init(self, indptr, indices, data, labels):
        n = indptr.size - 1
        if n < 1:
            raise InvalidInputError("generator needs at least one state")
        if not np.all(np.isfinite(data)):
            raise InvalidInputError("generator entries must be finite")
        if labels is not None:
            labels = [str(s) for s in labels]
            if len(labels) != n:
                raise InvalidInputError(
                    f"{len(labels)} labels for {n} states")
        super().__init__(indptr, indices, data)
        self._labels = labels
        self._structure = None
        self._checked_law = None  # set by _stationary_law

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
    def labels(self):
        return self._labels

    def diagonal(self, k=0):
        """The `k`-th diagonal, ``Q[i, i + k]``, as an array of ``n - |k|``."""
        rows = self._row_index()
        hit = self._indices - rows == k
        at = rows[hit] if k >= 0 else self._indices[hit]
        return np.bincount(at, weights=self._data[hit],
                           minlength=self.n - abs(k))

    def structure(self):
        """``(band, irreducible)``, read once in O(nnz) (cached).

        `band` is ``(up, down)`` with ``up[i] = Q[i, i+1]`` and
        ``down[i] = Q[i+1, i]`` when every nonzero off-diagonal rate sits
        next to the diagonal (a birth-death chain), else None.
        `irreducible` is true when the positive rates connect every state
        to every other.
        """
        if self._structure is None:
            band = _band_rates(self)
            irreducible = (_strongly_connected(self) if band is None
                           else bool(np.all(np.minimum(*band) > 0)))
            self._structure = (band, irreducible)
        return self._structure

    def exit_rates(self):
        """Total jump rate out of each state, ``-Q[i, i]`` for admissible Q."""
        return -self.diagonal()

    def max_rate(self):
        """Largest exit rate; sets the scale for relative tolerances."""
        rates = self.exit_rates()
        return float(rates.max()) if rates.size else 0.0

    def row_rates(self, i):
        """Jump targets and rates out of state `i` (strictly positive only)."""
        lo, hi = self._indptr[i], self._indptr[i + 1]
        cols = self._indices[lo:hi]
        vals = self._data[lo:hi]
        keep = (cols != i) & (vals > 0)
        return cols[keep], vals[keep]

    def __repr__(self):
        return f"GeneratorMatrix(n={self.n}, nnz={self.nnz})"


def _row_pointers(rows, n):
    """CSR row pointers of entries whose rows `rows` ascend, for `n` rows."""
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr


def _row_sums(indptr, data):
    """Row sums of CSR entries, each row added in stored (column) order as
    ``np.add.reduceat`` adds it; an assembled matrix stores no zeros, so
    its sums depend on its nonzero entries alone."""
    sums = np.zeros(indptr.size - 1)
    filled = np.flatnonzero(np.diff(indptr))
    sums[filled] = np.add.reduceat(data, indptr[filled])
    return sums


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


def _summed_cells(n, rows, cols, vals):
    """CSR arrays ``(indptr, indices, data)`` of the cells ``(rows[k],
    cols[k])`` of `n` rows; a repeated cell sums its values left to right
    (a stable sort keeps their order for `bincount`), and a cell whose sum
    is 0 is not stored.  The package drops zero cells here alone."""
    # cell numbers i n + j pass int32 from n = 46 341 states
    cells = rows.astype(np.int64) * n + cols
    order = np.argsort(cells, kind="stable")
    cells = cells[order]
    first = np.diff(cells, prepend=-1) != 0
    sums = np.bincount(np.cumsum(first) - 1, weights=vals[order])
    nonzero = sums != 0
    cells = cells[first][nonzero]
    return _row_pointers(cells // n, n), cells % n, sums[nonzero]


def _assemble(n, a, labels):
    """The generator of valid triplets `a` (repeats add), as `from_rates`.

    Entries come out row by row in ascending column order, each row's
    diagonal minus the sum of the rest unless given.  Repeated cells, which
    only a collapsed chain makes, add left to right.  A cell that adds to
    0 is dropped before the row sums, so a listed zero rate changes
    nothing.
    """
    rows, cols = a[:, 0].astype(np.intp), a[:, 1].astype(np.intp)
    off = rows != cols
    indptr, indices, data = _summed_cells(n, rows[off], cols[off], a[off, 2])
    d = -_row_sums(indptr, data)
    d[rows[~off]] = a[~off, 2]
    diag = np.arange(n)
    rows = np.concatenate([np.repeat(diag, np.diff(indptr)), diag])
    return GeneratorMatrix._from_csr(*_summed_cells(
        n, rows, np.concatenate([indices, diag]), np.concatenate([data, d])),
        labels)


class StationaryDistribution:
    """Stationary law of a chain, carried as ``log_probs``.

    ``probs`` is its linear-scale view.  A law given in linear scale is kept
    there bit for bit; one formed in log scale (a birth-death product form)
    reads ``exp(log_probs)``, so its entries below the double range read 0
    in ``probs`` while ``log_probs`` keeps them.

    A law from :func:`stationary_distribution` records how it was solved:
    `solver` is "product_form", "iteration" or "elimination", `iterations`
    the steps of the iteration (0 for the others), and `residual` the
    componentwise residual ``max_j |(pi Q)_j| / (pi_j q_j)`` (0 for the
    product form, a closed form).  A law built from given probabilities
    has `solver` None.

    Raises
    ------
    InvalidInputError
        If any entry is not strictly positive or the sum deviates from 1
        by more than 1e-12.
    """

    solver = None
    iterations = 0
    residual = None

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
                f"probabilities sum to {float(p.sum())!r}, not 1 within "
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
    """Whether state 0 reaches every state along the edges of `Q`, and is
    reached from every state: a search forward, then one backward."""
    # the edges are the strictly positive off-diagonal rates
    rows, cols, vals = Q.off_diagonal()
    keep = vals > 0
    rows, cols = rows[keep], cols[keep]
    back = np.argsort(cols, kind="stable")
    return all(len(_bfs_order(_row_pointers(tails, Q.n), heads)) == Q.n
               for tails, heads in ((rows, cols), (cols[back], rows[back])))


def _bfs_order(indptr, indices):
    """The states reached from state 0 along the edges ``i -> indices[k]``,
    ``indptr[i] <= k < indptr[i + 1]``, in breadth-first order.

    One pass over Python lists, O(n + nnz) however deep the graph: a
    level-by-level NumPy search pays one round trip per level, which on a
    relabelled path is one per state.
    """
    indptr, indices = indptr.tolist(), indices.tolist()
    seen = [False] * (len(indptr) - 1)
    seen[0] = True
    order = [0]
    for u in order:  # grows while it is read
        for v in indices[indptr[u]:indptr[u + 1]]:
            if not seen[v]:
                seen[v] = True
                order.append(v)
    return order


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
    row_sums = _row_sums(Q._indptr, Q._data)
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
    `s`, which are sums of powers of nonnegative matrices, each formed as
    a product of ``I + N^(2^j)`` (`_unit_triangular_inverse`); the rows
    above the panel and the trailing block are updated a strip of rows at
    a time, so no temporary of the matrix's size is made.  Every update
    adds products of nonnegative off-diagonal rates (the diagonal is never
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
        U = _unit_triangular_inverse(np.triu(B, 1) / d)
        L = _unit_triangular_inverse(np.tril(B, -1) / d[:, None])
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


def _unit_triangular_inverse(N):
    """``(I - N)^-1`` of a strictly triangular `N` of size `p`.

    ``N^p = 0``, so the inverse is ``sum_k N^k``, formed as the product of
    ``I + N^(2^j)`` over ``2^j < p``: about ``2 log2 p`` matrix products,
    and, for a nonnegative `N`, free of subtraction like the elimination.
    """
    inverse = np.eye(len(N)) + N
    for _ in range((len(N) - 1).bit_length() - 1):
        N = N @ N
        inverse += inverse @ N
    return inverse


def _check_stationary(p, Q, what):
    """Raise unless `p` is stationary for generator `Q`, within 1e-10 of its
    largest exit rate (floored at 1); `what` opens the message."""
    resid = float(np.max(np.abs(Q.vecmat(p))))
    scale = max(Q.max_rate(), 1.0)
    if not resid <= _STATIONARY_RTOL * scale:
        raise NumericalFailureError(
            f"{what} residual {resid:.3e} exceeds {_STATIONARY_RTOL:.1e} * "
            f"{scale:.3e}", residual=resid)


def _power_iteration_solve(Q, target, budget=_ITERATION_BUDGET):
    """``pi_j <- pi_j + (pi Q)_j / (1.05 q_j)`` from two starting laws.

    Each state is uniformized at its own exit rate `q_j` (damped Jacobi):
    with one rate `q` for all states, a state leaving at ``q_j << q``
    barely moves per step, and its change falls below the rounding of
    ``pi_j`` once ``|(pi Q)_j| / (pi_j q_j)`` nears ``eps q / q_j``.  The
    iteration runs on `Q`'s own CSR arrays, from the uniform law and from
    a fixed pseudo-random one (`_counter_hash`) side by side: on a nearly
    decomposable chain the componentwise residual reaches its floor while
    the mass of each cluster still holds its start's share, so only
    agreement of the two shows that ``pi`` is found.

    The residual, the larger of the two iterates', is checked every
    `_ITERATION_CHECK` steps.  The iteration stops at its rounding floor
    (at most `_ITERATION_RTOL` and no longer falling); when its decay per
    check over the later half of the checks so far cannot bring it to
    `target` within `budget` steps; or at the end of that budget.  A zero
    entry of an iterate gives a residual of inf or NaN, which no
    tolerance accepts.

    Returns ``(pi, steps, residual, spread)``: the last iterate from the
    uniform law, normalized, the residual, and the largest relative
    difference between the two iterates over the entries of `pi`.
    """
    # a zero exit rate (a defective Q) or entry of pi gives inf or NaN
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        scale = 1.0 / (1.05 * Q.exit_rates())

        def step(pis):
            return np.stack([Q.vecmat(p) for p in pis]) * scale

        pis = np.stack([np.ones(Q.n),
                        _counter_hash(np.arange(Q.n, dtype=np.uint64), 0)])
        history = []
        for steps in range(0, budget + 1, _ITERATION_CHECK):
            pis /= pis.sum(axis=1, keepdims=True)
            y = step(pis)
            resid = 1.05 * np.max(np.abs(y) / pis)
            history.append(resid)
            k = steps // _ITERATION_CHECK
            if k:
                decay = resid / history[k // 2]
                left = (budget - steps) / _ITERATION_CHECK
                floor = resid <= _ITERATION_RTOL and not resid < history[-2]
                hopeless = not (resid <= target or resid
                                * decay ** (left / (k - k // 2)) <= target)
                if floor or hopeless or steps + _ITERATION_CHECK > budget:
                    spread = np.max(np.abs(pis[1] - pis[0]) / pis[0])
                    return pis[0].copy(), steps, float(resid), float(spread)
            pis += y
            for _ in range(_ITERATION_CHECK - 1):
                pis += step(pis)


def _band_rates(Q):
    """The band of `Q`, as in :meth:`GeneratorMatrix.structure`."""
    if np.any(Q._data[np.abs(Q._indices - Q._row_index()) > 1] != 0):
        return None
    return Q.diagonal(1), Q.diagonal(-1)


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

    The first rung that applies gives ``pi``:

    1. A birth-death chain's is the product form, built in log scale in
       O(n): its ``log_probs`` hold at any size, while ``probs`` reads 0
       below the double range.
    2. Any other chain's, up to `DENSE_SOLVE_CUTOFF` (4 096) states, is
       iterated, each state uniformized at its own exit rate,
       ``pi_j <- pi_j + (pi Q)_j / (1.05 q_j)``, for as many steps as
       cost what elimination costs (`_dense_cost_in_steps`; none when
       that is under 30 steps).  It is taken once every state is
       stationary relative to its own flow, ``|(pi Q)_j| <= 1e-13 pi_j
       q_j``, the residual no longer falls, and the iterates from two
       starting laws agree to 1e-12 in every entry.  It stops early once
       the decay of its residual cannot reach 1e-13 within the budget.
    3. When the iteration stops short of that, or is not run, blocked
       subtraction-free elimination (componentwise relative accuracy) on a
       dense copy of `Q`, each panel of `_GTH_PANEL` states eliminated with
       one lumped column for the states left of it, its rows and columns
       outside it formed by nonnegative unit-triangular transforms, and the
       trailing block updated in strips of rows.
    4. A larger chain's is the same iteration with a budget of 10 000
       steps, taken at a componentwise residual of 1e-10 with its iterates
       1e-9 apart, and refused otherwise.

    The result is accepted when ``max|pi Q|`` is at most 1e-10 times the
    largest exit rate (floored at 1); its `solver`, `iterations` and
    `residual` say how it was found.

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
        pivot vanishes, or an entry of an elimination result is not
        positive (NaN included), or the iteration of a chain above the
        cutoff stops short of its tolerance.  Reducible chains never get
        here.
    """
    band = _irreducible_band(Q)
    if band is not None:
        log_mu = _birth_death_log_mu(*band)
        pi = StationaryDistribution._from_log(log_mu - _log_sum_exp(log_mu))
        pi.solver, pi.residual = "product_form", 0.0
    else:
        p = None
        # each step multiplies Q by both starting laws
        budget = _dense_cost_in_steps("elimination", Q.n, 2 * Q.nnz)
        capped = budget is None  # no elimination to fall back on
        if budget != 0:
            tol = _STATIONARY_RTOL if capped else _ITERATION_RTOL
            p, steps, resid, spread = _power_iteration_solve(
                Q, tol, budget or _ITERATION_BUDGET)
            solver = "iteration"
            if not (resid <= tol and spread <= 10 * tol):
                if capped:
                    raise NumericalFailureError(
                        f"stationary iteration stopped after {steps} steps "
                        f"at componentwise residual {resid:.3e} with its "
                        f"two starts {spread:.1e} apart; it needs "
                        f"{tol:.0e} and {10 * tol:.0e}", residual=resid)
                p = None
        if p is None:
            # an overflow leaves NaN or 0 in p, which the test below rejects
            with np.errstate(over="ignore", invalid="ignore"):
                p = _gth_solve(Q.to_dense())
            with np.errstate(divide="ignore", invalid="ignore"):
                resid = float(np.max(np.abs(Q.vecmat(p))
                                     / (p * Q.exit_rates())))
            solver, steps = "elimination", 0
        if not np.all(p > 0):
            raise NumericalFailureError(
                "stationary solve produced non-positive or NaN entries")
        pi = StationaryDistribution(p)
        pi.solver, pi.iterations, pi.residual = solver, steps, resid
    return _stationary_law(Q, pi)


def _as_values(f, n, what):
    """`f`, an ObservableFunction or array, as a 1-D array of `n` finite
    values (InvalidInputError naming `what`); ``n=None`` takes any length."""
    v = f.values if isinstance(f, ObservableFunction) else \
        np.asarray(f, dtype=float)
    if v.shape != (n or v.size,):
        raise InvalidInputError(
            f"{what} must have shape ({n or 'n'},), not {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError(f"{what} must be finite")
    return v


def _as_integer(x, what):
    """`x`, an integral number (``10`` or ``10.0``), as an int; any other
    value, NaN and inf included, raises InvalidInputError naming `what`."""
    if isinstance(x, numbers.Integral) or (isinstance(x, numbers.Real)
                                           and float(x).is_integer()):
        return int(x)
    raise InvalidInputError(f"{what} {x!r} is not an integer")


def _bound_span(eps, lower, upper):
    """The span ``upper - lower`` of a tail bound's range, with `eps`:
    InvalidInputError unless `eps` is positive and finite and the span
    positive."""
    if not 0 < eps < math.inf:
        raise InvalidInputError("eps must be positive and finite")
    span = float(upper) - float(lower)
    if not span > 0:
        raise InvalidInputError("range must have positive width")
    return span


def _as_probs(p, n, what):
    """`p`, a StationaryDistribution or array, as `_as_values` does, with
    entries nonnegative and summing to 1 within `_WEIGHT_SUM_ATOL`."""
    p = _as_values(p.probs if isinstance(p, StationaryDistribution) else p,
                   n, what)
    if np.any(p < 0):
        raise InvalidInputError(f"{what} has negative entries")
    total = float(p.sum())
    if not abs(total - 1.0) <= _WEIGHT_SUM_ATOL:
        raise InvalidInputError(f"{what} sums to {total!r}, not 1")
    return p


def _as_law(pi, n):
    """`pi`, a StationaryDistribution or an array it accepts, of `n` states."""
    if not isinstance(pi, StationaryDistribution):
        pi = StationaryDistribution(pi)
    _as_values(pi.probs, n, "pi")
    return pi


def _stationary_law(Q, pi, what="stationary"):
    """`pi` as `_as_law` takes it, refused (NumericalFailureError, its
    message opened by `what`) unless stationary for `Q`.  The package
    checks a law here alone and records it on `Q`, so the law last
    checked for `Q` is not checked again."""
    pi = _as_law(pi, Q.n)
    if pi is not Q._checked_law:
        _check_stationary(pi.probs, Q, what)
        Q._checked_law = pi
    return pi


def _symmetric_part(M, log_pi):
    """``(W + W.T) / 2`` with ``W[i, j] = M[i, j] exp((l[i] - l[j]) / 2)``.

    ``l = log_pi``.  A CSR `M` (a `GeneratorMatrix`) gives a `_CSR`,
    weighted at its stored entries: each pair ``W[i, j] + W[j, i]`` is
    added once, and a sum of 0 is not stored.  A dense `M` is weighted at
    its nonzero entries only.
    """
    if isinstance(M, np.ndarray):
        with np.errstate(over="ignore", invalid="ignore"):
            W = np.where(M != 0, M * np.exp(
                0.5 * (log_pi[:, None] - log_pi[None, :])), 0.0)
        return 0.5 * (W + W.T)
    rows, cols = M._row_index(), M._indices
    W = M._data * np.exp(0.5 * (log_pi[rows] - log_pi[cols]))
    indptr, indices, sums = _summed_cells(
        M.n, np.concatenate([rows, cols]), np.concatenate([cols, rows]),
        np.concatenate([W, W]))
    return _CSR(indptr, indices, 0.5 * sums)


def additive_symmetrization(Q, pi):
    """Additive reversibilization ``(Q + Qhat) / 2``, `Qhat` the time reversal
    ``Qhat[i, j] = pi[j] Q[j, i] / pi[i]``; its gap is the gap of `Q`.

    Off the diagonal ``Qbar[i, j] = S[i, j] exp((l[j] - l[i]) / 2)``, with
    ``l = log pi`` and ``S = _symmetric_part(Q, l)`` the matrix the gap is
    read from, so detailed balance holds by construction and entries of
    `pi` below the double range do no harm; each diagonal entry is minus
    its row sum.  A `pi` given as an array must be a strictly positive
    probability vector (InvalidInputError), and `pi` must be stationary
    for `Q` (NumericalFailureError).
    """
    log_pi = _stationary_law(Q, pi).log_probs
    rows, cols, vals = _symmetric_part(Q, log_pi).off_diagonal()
    vals = vals * np.exp(0.5 * (log_pi[cols] - log_pi[rows]))
    return _assemble(Q.n, np.column_stack([rows, cols, vals]), Q.labels)


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
    return GeneratorMatrix._from_csr(*_tridiagonal_csr(a, -exit_rates, b),
                                     labels)


def _tridiagonal_csr(below, diag, above):
    """CSR arrays ``(indptr, indices, data)`` of the tridiagonal matrix with
    ``M[i + 1, i] = below[i]``, ``M[i, i] = diag[i]``, ``M[i, i + 1] =
    above[i]``, every entry stored."""
    n = diag.size
    # rows of (M[i, i-1], M[i, i], M[i, i+1]), less the two outside the matrix
    data = np.column_stack([np.insert(below, 0, 0.0), diag,
                            np.append(above, 0.0)]).ravel()[1:-1]
    # int32 indices while they fit: they take half the memory of intp
    index = np.int32 if 3 * n < 2 ** 31 else np.intp
    cols = np.repeat(np.arange(n, dtype=index), 3)
    cols[0::3] -= 1
    cols[2::3] += 1
    indptr = np.clip(3 * np.arange(n + 1, dtype=index) - 1, 0, 3 * n - 2)
    return indptr, cols[1:-1], data


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
