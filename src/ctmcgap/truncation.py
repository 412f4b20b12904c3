"""Finite approximations of countable-state chains by collapsing the
complement of a retained set into one absorbing-and-returning tail state.

The collapsed chain keeps every rate inside the retained set, routes all
outbound rate to the tail state `e`, and gives `e` the stationary-flow
averaged return rates.  Its stationary law restricts to the original one on
the set (with the tail mass at `e`), and its spectral gap converges to the
gap of the full chain as the retained set grows.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ._report import Report
from .errors import InvalidInputError, NumericalFailureError
from .generator import (GeneratorMatrix, ObservableFunction,
                        StationaryDistribution, _as_integer, _as_values,
                        _assemble, _birth_death_log_mu, _birth_death_rates,
                        _log_sum_exp, _stationary_law)
from .spectral import spectral_gap

_TAIL_SUM_RELTOL = 1e-17
_TAIL_SUM_MAX_TERMS = 10_000_000
_TAIL_BLOCK = 4096  # tail levels summed per pass, none of them kept


class _ProductForm:
    """``log mu_k`` (``mu_0 = 1``) of a birth-death chain with down rates
    ``a(k)``, ``k >= 1``, and up rates ``b(k)``; `ratio` is ``b / a`` when
    both are constant.  The levels asked for so far sit in one array that
    doubles as it grows, recomputed from level 0 at each growth so that its
    rounding does not build up with the level."""

    def __init__(self, a, b, ratio=None):
        self.a, self.b, self.ratio = a, b, ratio
        self.log_mu = np.zeros(1)

    def log_mu_from(self, lo, hi):
        """``log mu_k / mu_lo`` for ``k = lo..hi``."""
        down, up = _birth_death_rates([self.a(k + 1) for k in range(lo, hi)],
                                      [self.b(k) for k in range(lo, hi)],
                                      lo + 1)
        return _birth_death_log_mu(up, down)

    def log_weight(self, k):
        if k >= self.log_mu.size:
            self.log_mu = self.log_mu_from(0, max(2 * self.log_mu.size, k))
        return float(self.log_mu[k])

    def log_tail_weight(self, n):
        """``log mu_n + log sum_{k>=n} mu_k / mu_n``: the geometric sum in
        closed form, else `_TAIL_BLOCK` levels at a time until a block ends
        on a term below `_TAIL_SUM_RELTOL` of the sum."""
        if self.ratio is not None:
            return self.log_weight(n) - math.log1p(-self.ratio)
        total, offset = -math.inf, 0.0
        for lo in range(n, n + _TAIL_SUM_MAX_TERMS, _TAIL_BLOCK):
            # log mu_k / mu_n for k = lo..lo + _TAIL_BLOCK, the last of
            # which starts the next block
            rel = offset + self.log_mu_from(lo, lo + _TAIL_BLOCK)
            total = float(np.logaddexp(total, _log_sum_exp(rel[:-1])))
            if rel[-2] - total <= math.log(_TAIL_SUM_RELTOL):
                return self.log_weight(n) + total
            offset = float(rel[-1])
        raise NumericalFailureError("tail weight sum did not converge; "
                                    "is the chain positive recurrent?")


class CountableModel:
    """Countable-state chain described by callbacks.

    Parameters
    ----------
    row : callable
        ``row(i)`` returns the finitely many ``(j, rate)`` pairs out of
        state `i` (off-diagonal, positive rates only).
    log_weight : callable
        ``log_weight(k)`` is the log of an unnormalized stationary weight
        of state `k` (any fixed positive multiple of the stationary law).
    log_tail_weight : callable
        ``log_tail_weight(n)`` is the logarithm of the total weight of
        states ``n, n+1, ...`` (finite for positive-recurrent chains).
    in_reach : callable, optional
        ``in_reach(n)`` lists the states ``>= n`` that have an edge into
        ``{0..n-1}``.  Required for infinite chains.
    finite_size : int, optional
        State count when the chain is actually finite.
    """

    def __init__(self, row, log_weight, log_tail_weight, in_reach=None,
                 finite_size=None):
        self.row = row
        self.log_weight = log_weight
        self.log_tail_weight = log_tail_weight
        self.in_reach = in_reach
        self.finite_size = finite_size

    @classmethod
    def birth_death(cls, death_rate, birth_rate):
        """Birth-death chain on ``0, 1, 2, ...``.

        Parameters
        ----------
        death_rate : float or callable
            Down rate; a callable receives the level ``k >= 1``.
        birth_rate : float or callable
            Up rate; a callable receives the level ``k >= 0``.

        For constant rates the chain is positive recurrent only when the
        death rate exceeds the birth rate; that is checked eagerly and the
        geometric tail is summed in closed form (else block by block in log
        scale).
        """
        a = death_rate if callable(death_rate) else (lambda k, _v=float(death_rate): _v)
        b = birth_rate if callable(birth_rate) else (lambda k, _v=float(birth_rate): _v)
        ratio = None
        if not (callable(death_rate) or callable(birth_rate)):
            alpha, beta = float(death_rate), float(birth_rate)
            _birth_death_rates([alpha], [beta])  # positive and finite
            if beta >= alpha:
                raise InvalidInputError(
                    "constant-rate chain needs death rate > birth rate "
                    "for positive recurrence")
            ratio = beta / alpha
        weights = _ProductForm(a, b, ratio)

        def row(i):
            return [(i + 1, b(i)), (i - 1, a(i))] if i else [(1, b(0))]

        # only level n feeds back into {0..n-1}
        return cls(row, weights.log_weight, weights.log_tail_weight,
                   lambda n: (n,))

    @classmethod
    def from_generator(cls, Q, pi):
        """Wrap a finite chain so it can be collapsed like a countable one.

        `pi` must be stationary for `Q` (NumericalFailureError otherwise):
        a collapse checks balance at the retained states alone."""
        log_p = _stationary_law(Q, pi).log_probs
        suffix = np.logaddexp.accumulate(np.append(log_p, -np.inf)[::-1])[::-1]

        def row(i):
            cols, vals = Q.row_rates(i)
            return list(zip(cols.tolist(), vals.tolist()))

        return cls(row, lambda k: float(log_p[k]),
                   lambda n: float(suffix[n]), finite_size=Q.n)


@dataclass
class CollapsedModel:
    """Finite chain obtained by collapsing the complement of a state set.

    The final index (`tail_index`) is the collapsed tail state; `pi_tilde`
    places the exact tail mass there and the original stationary masses on
    the retained states.
    """

    generator: GeneratorMatrix
    pi_tilde: StationaryDistribution
    tail_index: int
    retained: tuple


def _collapsed_chain(model, retained, feeders, log_tail):
    """Rates and stationary law of the chain collapsed onto `retained`.

    `retained` lists the kept states in increasing order, one row each; the
    tail state is row ``len(retained)`` and takes the rates out of the set.
    `feeders` are the states outside it that may jump in; their rates into
    the set, each scaled by the feeder's share of the tail weight (log
    `log_tail`), leave the tail.  Rates on the same cell add up.
    """
    m = len(retained)
    shares = [1.0] * m + [math.exp(model.log_weight(k) - log_tail)
                          for k in feeders]
    # one pass that keeps no row alive: far fewer garbage-collector runs
    sizes, dst, rate = [], [], []
    for s, share in zip(list(retained) + list(feeders), shares):
        out = model.row(s)
        sizes.append(len(out))
        for j, v in out:
            dst.append(j)
            rate.append(v * share)
    src = np.repeat(np.minimum(np.arange(len(sizes)), m), sizes)
    dst, rate = np.array(dst, dtype=np.int64), np.array(rate, dtype=float)
    # each target's row, or the tail's for a state outside the set
    kept = np.asarray(retained, dtype=np.int64)
    col = np.searchsorted(kept, dst)
    inside = kept[np.minimum(col, m - 1)] == dst
    col[~inside] = m
    keep = (src < m) | inside
    Q = _assemble(m + 1, np.column_stack([src, col, rate])[keep], None)
    log_w = np.array([model.log_weight(s) for s in retained] + [log_tail])
    law = StationaryDistribution._from_log(log_w - model.log_tail_weight(0))
    return Q, law


def collapse(model, retained):
    """Collapse everything outside a retained set into one tail state.

    Parameters
    ----------
    model : CountableModel
    retained : int or sequence of int
        An int keeps the prefix ``{0..retained-1}``; a sequence keeps
        exactly those states (finite chains only).

    Returns
    -------
    CollapsedModel

    Raises
    ------
    InvalidInputError
        If the complement has zero stationary mass (nothing to collapse).
    NumericalFailureError
        If the collapsed stationary law fails its residual check.
    """
    nf = model.finite_size
    if nf is not None:
        if np.isscalar(retained):
            retained = range(min(_as_integer(retained, "retained"), nf))
        retained = sorted(set(_as_integer(s, "retained state")
                              for s in retained))
        if not retained:
            raise InvalidInputError("retained set is empty")
        if retained[0] < 0 or retained[-1] >= nf:
            raise InvalidInputError("retained states out of range")
        feeders = sorted(set(range(nf)) - set(retained))
        if not feeders:
            raise InvalidInputError(
                "retained set covers the whole chain; tail mass is zero")
        log_tail = np.logaddexp.reduce([model.log_weight(k) for k in feeders])
    elif not np.isscalar(retained):
        raise InvalidInputError(
            "explicit retained sets require a finite chain; "
            "use a prefix size for infinite chains")
    else:
        if model.in_reach is None:
            raise InvalidInputError(
                "infinite model needs an in_reach callback to collapse")
        n = _as_integer(retained, "retained")
        if n < 1:
            raise InvalidInputError("prefix size must be >= 1")
        log_tail = model.log_tail_weight(n)
        if not math.isfinite(log_tail):
            raise InvalidInputError(f"log tail weight {log_tail!r} must be "
                                    "finite")
        retained = list(range(n))
        feeders = model.in_reach(n)
    Qt, pi_tilde = _collapsed_chain(model, retained, feeders, log_tail)
    pi_tilde = _stationary_law(Qt, pi_tilde, "collapsed stationary")
    return CollapsedModel(generator=Qt, pi_tilde=pi_tilde,
                          tail_index=len(retained), retained=tuple(retained))


def collapse_function(g, retained):
    """Restrict an observable to a retained set, putting 0 at the tail state.

    Parameters
    ----------
    g : ObservableFunction or array
        Finite values that cover every retained index; an array's range
        is that of its values.
    retained : int or sequence of int
        Same convention as :func:`collapse`.

    Returns
    -------
    (ObservableFunction, bool)
        The collapsed observable and a flag that is True when the declared
        range had to be widened to contain the 0 at the tail state.
    """
    if np.isscalar(retained):
        idx = list(range(_as_integer(retained, "retained")))
    else:
        idx = sorted(set(_as_integer(s, "retained state") for s in retained))
    if not idx:
        raise InvalidInputError("retained set is empty")
    v = _as_values(g, None, "g")
    if idx[0] < 0 or idx[-1] >= v.size:
        raise InvalidInputError("observable does not cover the retained set")
    lower, upper = ((g.lower, g.upper) if isinstance(g, ObservableFunction)
                    else (float(v.min()), float(v.max())))
    collapsed = ObservableFunction(np.concatenate([v[idx], [0.0]]),
                                   min(lower, 0.0), max(upper, 0.0))
    return collapsed, not lower <= 0.0 <= upper


@dataclass
class GapSweep(Report):
    """Collapsed-chain gaps over a growing family of retained prefixes.

    ``diffs[k] = |gaps[k] - gaps[k-1]|`` with ``diffs[0] = nan``;
    `seconds` are wall-clock build-plus-solve times.
    """

    sizes: list
    gaps: list
    diffs: list
    seconds: list
    limit_hint: float | None = None

    def _csv_table(self):
        # the first diff is an empty cell; seconds are fixed to microseconds
        d = self.to_dict()
        seconds = [f"{x:.6f}" for x in d["seconds"]]
        return (["size", "gap", "diff", "seconds"],
                zip(d["sizes"], d["gaps"], d["diffs"], seconds))


def _prefix_sizes(sizes):
    """`sizes` as ints, refused (InvalidInputError) unless there is at
    least one, each an integral number at least 1, in strictly increasing
    order."""
    sizes = [_as_integer(s, "size") for s in sizes]
    if not sizes:
        raise InvalidInputError("need at least one size")
    if any(s < 1 for s in sizes):
        raise InvalidInputError("sizes must be >= 1")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise InvalidInputError("sizes must be strictly increasing")
    return sizes


def gap_convergence_sweep(model, sizes, limit_hint=None):
    """Gap of the collapsed chain at each retained-prefix size.

    Parameters
    ----------
    model : CountableModel
    sizes : sequence of int
        Strictly increasing prefix sizes.
    limit_hint : float, optional
        Known limiting gap, stored on the result for reporting.

    Returns
    -------
    GapSweep

    Raises
    ------
    InvalidInputError
        Before any chain is collapsed, when `sizes` is empty, holds a size
        below 1 or does not increase strictly; later, as `collapse` does.
    NumericalFailureError
        As `collapse` and `spectral_gap` do.
    """
    sizes = _prefix_sizes(sizes)
    gaps, seconds = [], []
    for s in sizes:
        t0 = time.perf_counter()
        cm = collapse(model, s)
        gaps.append(spectral_gap(cm.generator, cm.pi_tilde).gap)
        seconds.append(time.perf_counter() - t0)
    diffs = [math.nan] + [abs(b - a) for a, b in zip(gaps, gaps[1:])]
    return GapSweep(sizes=sizes, gaps=gaps, diffs=diffs, seconds=seconds,
                    limit_hint=limit_hint)
