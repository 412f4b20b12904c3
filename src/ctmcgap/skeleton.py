"""Discrete skeletons of a continuous-time chain: transition matrices
``P = exp(delta Q)``, their spectral gaps, and the matching discrete-time
tail bound.

Sampling a continuous chain every `delta` time units gives a discrete chain
whose gap ``1 - lambda_P`` approaches ``delta`` times the continuous gap as
``delta -> 0``; `skeleton_gap_check` tabulates that convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._report import Report
from ._symeig import deflated_extremal
from .errors import InvalidInputError, NumericalFailureError
from .generator import (_as_integer, _as_law, _as_positive, _bound_span,
                        _dense_cost_in_steps, _irreducible_band,
                        _symmetric_part, stationary_distribution)
from .spectral import spectral_gap

# exp(delta * q) overflows the uniformization weights past this point
_MAX_UNIFORMIZATION_EXPONENT = 700.0
_POISSON_TAIL_TOL = 1e-14   # Poisson mass uniformization may leave out
_NEGATIVE_ATOL = 1e-14      # StochasticMatrix clamps entries down to -this
_ROWSUM_ATOL = 1e-12        # and accepts row sums within this of 1
_STATIONARITY_ATOL = 1e-10  # max|pi P - pi| that dtmc_spectral_gap accepts


class StochasticMatrix:
    """Row-stochastic matrix (dense).

    Entries in ``[-1e-14, 0)`` are clamped to zero and rows renormalized;
    anything more negative, or row sums off 1 beyond 1e-12, is rejected.
    """

    def __init__(self, matrix):
        P = np.array(matrix, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise InvalidInputError(f"matrix must be square, got {P.shape}")
        if not np.all(np.isfinite(P)):
            raise InvalidInputError("matrix entries must be finite")
        low = P.min()
        if low < -_NEGATIVE_ATOL:
            raise InvalidInputError(
                f"entry {low!r} below the clamping tolerance "
                f"{-_NEGATIVE_ATOL}")
        if low < 0:
            P[P < 0] = 0.0
        sums = P.sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > _ROWSUM_ATOL:
            worst = int(np.argmax(np.abs(sums - 1.0)))
            raise InvalidInputError(
                f"row {worst} sums to {sums[worst]!r}, not 1")
        P /= sums[:, None]
        self.matrix = P

    @property
    def n(self):
        return self.matrix.shape[0]

    def __repr__(self):
        return f"StochasticMatrix(n={self.n})"


def transition_matrix_exp(Q, delta):
    """Transition matrix ``exp(delta Q)`` by uniformization.

    Writes the exponential as a Poisson-weighted sum of powers of the
    uniformized kernel ``I + Q/q`` (`q` the largest exit rate), truncated
    once the accumulated Poisson mass reaches ``1 - 1e-14``.  All terms
    are nonnegative, so no cancellation occurs; rows are renormalized to
    absorb the truncated tail.  A sequence `delta` gives a list, one
    matrix per entry in its order, summed from one shared sequence of
    powers of the kernel: each is bit for bit its own delta's matrix.

    Raises
    ------
    InvalidInputError
        When `delta` is empty or an entry is not positive and finite, or
        `Q.to_dense` refuses `Q` (the result is dense), before any n x n
        array exists.
    NumericalFailureError
        When ``delta * q`` is too large for the Poisson weights (> 700);
        split the interval instead.
    """
    deltas = [_as_positive(d, "delta") for d in np.atleast_1d(delta)]
    if not deltas:
        raise InvalidInputError("need at least one delta")
    kernel = Q.to_dense()  # the first n x n array, refused above the cap
    n, q = Q.n, Q.max_rate()
    xs = [d * q for d in deltas]
    if max(xs) > _MAX_UNIFORMIZATION_EXPONENT:
        raise NumericalFailureError(
            f"delta * max_rate = {max(xs):.3e} too large for uniformization; "
            "use a smaller delta")
    weights = [_poisson_weights(x) for x in xs]
    kernel /= q or 1.0  # I + Q/q, in place; Q = 0 leaves I
    kernel.flat[::n + 1] += 1.0
    outs = [w[0] * np.eye(n) for w in weights]
    for m in range(1, max(map(len, weights))):
        power = kernel if m == 1 else power @ kernel
        for out, w in zip(outs, weights):
            if m < len(w):
                out += w[m] * power
    kernels = [StochasticMatrix(out) for out in outs]
    return kernels[0] if np.ndim(delta) == 0 else kernels


def _poisson_weights(x):
    """``exp(-x) x^m / m!`` for ``m = 0, 1, ...`` until the mass left out is
    at most `_POISSON_TAIL_TOL`."""
    max_terms = int(math.ceil(x + 40.0 * math.sqrt(x) + 40.0))
    weight = math.exp(-x)
    weights = [weight]
    accumulated = weight
    for m in range(1, max_terms + 1):
        weight *= x / m
        weights.append(weight)
        accumulated += weight
        if 1.0 - accumulated <= _POISSON_TAIL_TOL:
            return weights
    raise NumericalFailureError(
        f"Poisson tail {1.0 - accumulated:.3e} above {_POISSON_TAIL_TOL} "
        f"after {max_terms} terms", residual=1.0 - accumulated)


@dataclass
class DtmcGapReport:
    """Gap of a discrete-time chain.

    `lambda_P` is the second-largest eigenvalue of the additively
    reversibilized kernel (it may be negative); ``gap = 1 - lambda_P``.
    """

    lambda_P: float
    gap: float
    method: str
    residual: float
    iterations: int = 0
    trivial_residual: float = 0.0


def dtmc_spectral_gap(P, pi):
    """Spectral gap of a discrete-time kernel with stationary law `pi`.

    `lambda_P` is the second eigenvalue of the dense
    ``_symmetric_part(P, log pi)``, so `pi` may underflow.  It is found by
    Lanczos with a budget of as many matrix-vector products as cost what
    its dense spectrum costs (`generator._dense_cost_in_steps`), after
    which the dense solver takes over and reports "dense"; by the dense
    spectrum at once when that budget is under 30 products.

    Parameters
    ----------
    P : StochasticMatrix
    pi : StationaryDistribution or array
        Checked for stationarity (``max|pi P - pi| <= 1e-10``).

    Returns
    -------
    DtmcGapReport
    """
    if not isinstance(P, StochasticMatrix):
        P = StochasticMatrix(P)
    pi = _as_law(pi, P.n)
    resid = float(np.max(np.abs(pi.probs @ P.matrix - pi.probs)))
    if resid > _STATIONARITY_ATOL:
        raise InvalidInputError(
            f"pi is not stationary for P: residual {resid:.3e} exceeds "
            f"{_STATIONARITY_ATOL:.1e}")
    if P.n == 1:
        return DtmcGapReport(lambda_P=0.0, gap=1.0, method="dense",
                             residual=0.0)
    T = _symmetric_part(P.matrix, pi.log_probs)
    result, used = deflated_extremal(
        T, np.sqrt(pi.probs), largest=True,
        budget=_dense_cost_in_steps("eigh", P.n, None))
    lam = result.value
    if lam > 1.0 + 1e-12:
        raise NumericalFailureError(
            f"second eigenvalue {lam!r} exceeds 1; deflation failed")
    return DtmcGapReport(lambda_P=lam, gap=1.0 - lam, method=used,
                         residual=result.residual,
                         iterations=result.iterations,
                         trivial_residual=result.trivial_residual)


@dataclass
class SkeletonRow:
    delta: float
    lambda_P: float
    ratio: float      # (1 - lambda_P) / delta
    abs_error: float  # |ratio - continuous gap|


@dataclass
class SkeletonTable(Report):
    """Convergence of skeleton gaps to the continuous gap as delta shrinks."""

    gap_reference: float
    rows: list

    def _csv_table(self):
        cols = ["delta", "lambda_P", "ratio", "abs_error"]
        return cols, [[row[c] for c in cols] for row in self.to_dict()["rows"]]


def skeleton_gap_check(Q, pi=None, deltas=(0.1, 0.05, 0.01)):
    """Tabulate ``(1 - lambda_P)/delta`` against the continuous gap.

    Parameters
    ----------
    Q : GeneratorMatrix
    pi : StationaryDistribution or array, optional
        Solved from `Q` when omitted.
    deltas : sequence of float
        Strictly decreasing, finite and positive sampling intervals.

    Returns
    -------
    SkeletonTable

    Raises
    ------
    InvalidInputError
        Before `pi` is solved: on bad `deltas`, a reducible `Q` (checked
        before any n x n array exists), or a `Q` of more states than
        `transition_matrix_exp` takes.
    NumericalFailureError
        Before `pi` is solved, when ``delta * q`` is too large for
        uniformization; after it, when `pi` or a gap misses its tolerance.
    """
    deltas = [float(d) for d in deltas]
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise InvalidInputError("deltas must be strictly decreasing")
    _irreducible_band(Q)  # refuses a reducible Q
    kernels = transition_matrix_exp(Q, deltas)  # every refusal before pi
    pi = stationary_distribution(Q) if pi is None else _as_law(pi, Q.n)
    gap_ref = spectral_gap(Q, pi).gap
    rows = []
    for d, P in zip(deltas, kernels):
        rep = dtmc_spectral_gap(P, pi)
        ratio = rep.gap / d
        rows.append(SkeletonRow(delta=d, lambda_P=rep.lambda_P, ratio=ratio,
                                abs_error=abs(ratio - gap_ref)))
    return SkeletonTable(gap_reference=gap_ref, rows=rows)


def dtmc_hoeffding_bound(lambda_P, n_steps, eps, lower, upper):
    """Tail bound for additive functionals of a discrete-time chain.

    ``exp(-((1 - r)/(1 + r)) * 2 n eps^2 / (upper - lower)^2)`` with
    ``r = max(lambda_P, 0)``; at ``lambda_P <= 0`` this is the classical
    independent-sampling bound, and at ``lambda_P = 1`` it degenerates to 1.
    """
    n_steps = _as_integer(n_steps, "n_steps", 1)
    span = _bound_span(eps, lower, upper)
    if not lambda_P <= 1.0 + 1e-12:  # NaN too
        raise InvalidInputError("lambda_P cannot exceed 1")
    r = min(max(float(lambda_P), 0.0), 1.0)
    if r == 1.0:
        return 1.0
    return math.exp(-(1.0 - r) / (1.0 + r) * 2.0 * n_steps * eps ** 2
                    / span ** 2)
