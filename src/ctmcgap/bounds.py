"""Concentration bounds for time averages of a continuous-time chain, and
an end-to-end verifier that checks them against exact simulation.

The main bound for a stationary chain with spectral gap ``lam`` and an
observable with declared range ``[a, b]`` is::

    P( (1/t) int_0^t g(X_s) ds - pi(g) >= eps ) <= exp(-lam t eps^2 / (b-a)^2)

A classical alternative has denominator ``12 ||g||^2`` in place of
``(b-a)^2`` under extra hypotheses (centered g, unit sup norm); with those
hypotheses the sharpened variant replaces 12 by 4, a uniform factor-3
improvement in the exponent.  For a non-stationary start with density
``d nu / d pi`` in L^p, the bound picks up the density's p-norm as a
prefactor and a Hölder-conjugate factor q in the denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._report import Report
from .errors import InvalidInputError
from .generator import (ObservableFunction, StationaryDistribution,
                        _as_probs, _bound_span, stationary_distribution)
from .simulate import _tail_estimates, _walk_arguments, clopper_pearson_upper
from .spectral import spectral_gap


def _check_bound_args(lam, t, eps, lower, upper):
    """The span ``upper - lower`` of a bound's arguments, each checked."""
    if not lam >= 0:
        raise InvalidInputError("spectral gap must be nonnegative")
    if not 0 < t < math.inf:
        raise InvalidInputError("horizon t must be positive and finite")
    return _bound_span(eps, lower, upper)


def _conjugate(p):
    """The Hölder conjugate of a density order `p` > 1 or inf."""
    if p == math.inf:
        return 1.0
    p = float(p)
    if not p > 1:  # NaN too
        raise InvalidInputError("p must be > 1 (or inf) for a finite "
                                "conjugate exponent")
    return p / (p - 1.0)


def ctmc_hoeffding_bound(lam, t, eps, lower, upper):
    """Stationary-start tail bound ``exp(-lam t eps^2 / (upper - lower)^2)``."""
    span = _check_bound_args(lam, t, eps, lower, upper)
    return math.exp(-lam * t * eps ** 2 / span ** 2)


@dataclass
class LezaudComparison:
    """Classical exponent-12 bound next to the sharpened exponent-4 variant.

    Both assume a centered observable with sup norm at most 1; `improved`
    is always ``classical ** 3`` up to rounding.
    """

    classical: float
    improved: float


def lezaud_bound(lam, t, eps):
    """Classical and sharpened bounds under the unit-sup-norm hypotheses.

    Returns
    -------
    LezaudComparison
        With ``classical = exp(-lam t eps^2 / 12)`` and
        ``improved = exp(-lam t eps^2 / 4)``.
    """
    _check_bound_args(lam, t, eps, -1.0, 1.0)  # the unit sup norm assumed
    x = lam * t * eps ** 2
    return LezaudComparison(classical=math.exp(-x / 12.0),
                            improved=math.exp(-x / 4.0))


def density_pnorm(nu, pi, p):
    """``L^p(pi)`` norm of the density ``d nu / d pi``.

    Parameters
    ----------
    nu : array or StationaryDistribution
        Initial distribution.
    pi : StationaryDistribution or array
        Reference (stationary) distribution, strictly positive; a law is
        read through its ``log_probs``, so entries below the double range
        count.
    p : float
        Order in ``[1, inf]``; ``p = inf`` gives ``max nu[i] / pi[i]``.
    """
    probs = _as_probs(pi, None, "pi")
    if isinstance(pi, StationaryDistribution):
        log_pi = pi.log_probs
    elif np.any(probs <= 0):
        raise InvalidInputError("pi must be strictly positive")
    else:
        log_pi = np.log(probs)
    return _density_pnorm(_as_probs(nu, probs.size, "nu"), probs, log_pi, p)


def _density_pnorm(nu, pi, log_pi, p):
    """:func:`density_pnorm` of a checked law `nu` against a checked law
    given as `pi` and its logarithms `log_pi`."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = nu / pi
        # log(nu / pi), from the quotient itself where it is a double
        log_ratio = np.where(ratio < math.inf, np.log(ratio),
                             np.log(nu) - log_pi)
    top = float(log_ratio.max())
    if p == math.inf:
        return math.exp(top)
    p = float(p)
    if not p >= 1:  # NaN too
        raise InvalidInputError("p must be >= 1 (or inf)")
    # log of pi (nu / pi)^p, taken relative to the largest ratio and summed
    # relative to its largest term, so that nothing overflows or underflows
    terms = log_pi + p * (log_ratio - top)
    high = float(terms.max())
    log_sum = high + math.log(float(np.exp(terms - high).sum()))
    return math.exp(top + log_sum / p)


def nu_initial_bound(lam, t, eps, lower, upper, p, density_norm):
    """Tail bound for a non-stationary start with density in ``L^p(pi)``.

    ``density_norm * exp(-lam t eps^2 / (q (upper - lower)^2))`` with `q`
    the Hölder conjugate of `p`; at ``p = inf`` (q = 1) and unit norm this
    reduces exactly to :func:`ctmc_hoeffding_bound`.
    """
    span = _check_bound_args(lam, t, eps, lower, upper)
    if not 1.0 - 1e-12 <= density_norm < math.inf:  # NaN too
        raise InvalidInputError("density norm must be finite and at least 1")
    q = _conjugate(p)
    return float(density_norm) * math.exp(-lam * t * eps ** 2 / (q * span ** 2))


@dataclass
class VerificationRow(Report):
    """One epsilon's worth of simulation-versus-bound comparison.

    `verdict` is "PASS" when the exact one-sided lower confidence limit of
    the tail, ``1 - clopper_pearson_upper(reps - count, reps)`` at
    `DEFAULT_CI_LEVEL`, is at most the bound: the simulation does not show,
    at that level, a tail above the certified bound.  `uninformative`
    marks rows where the exact CI slack on the hit or the miss fraction
    reaches 0.5 (too few replications for the verdict to carry
    evidence).
    """

    eps: float
    t: float
    reps: int
    p_hat: float
    ci_upper: float
    bound_main: float
    bound_lezaud: float | None
    verdict: str
    bound_nu: float | None = None
    uninformative: bool = False

    def to_dict(self):
        d = super().to_dict()
        if self.bound_nu is None:
            del d["bound_nu"]
        return d


@dataclass
class VerificationReport(Report):
    """Full record of an empirical bound check.

    Rows are ordered by increasing epsilon.  `all_pass` is the headline
    verdict; `pi_g`, `g_sup_norm`, and `g_pi2_norm` document the observable.
    `lezaud_hypotheses` is None when the exponent-12 bound was not asked
    for, ``"hold"`` when the centered observable ``g - pi(g)`` has sup
    norm at most 1 (and the rows carry that bound), and otherwise names the
    failed condition with its value (and the rows carry no such bound).
    """

    rows: list
    gap: float
    gap_method: str
    gap_residual: float
    seed: int
    pi_g: float
    g_sup_norm: float
    g_pi2_norm: float
    lezaud_hypotheses: str | None = None

    _extra = ("all_pass",)

    @property
    def all_pass(self):
        return all(r.verdict == "PASS" for r in self.rows)

    def _csv_table(self):
        # one line per epsilon, with the chain's gap and its method appended
        cols = ["eps", "t", "reps", "p_hat", "ci_upper", "bound_main",
                "bound_lezaud", "verdict"]
        d = self.to_dict()
        return cols + ["gap", "gap_method"], [
            [r[c] for c in cols] + [d["gap"], d["gap_method"]]
            for r in d["rows"]]


def verify(Q, g, t, eps_grid, reps, seed, init=None, p=None,
           assert_lezaud_hypotheses=False):
    """Check the tail bounds against exact simulation on one chain.

    Simulates `reps` independent replications of the chain over
    ``[0, t]`` once, and for each epsilon estimates from those same paths
    the probability that the time average of `g` exceeds its stationary
    mean by epsilon, then compares against the certified bound with exact
    one-sided confidence slack.

    Parameters
    ----------
    Q : GeneratorMatrix
    g : ObservableFunction
        The declared range supplies the span in the exponent.
    t : float
        Averaging horizon, positive and finite.
    eps_grid : sequence of float
        Positive, finite deviation levels (reported in increasing order).
    reps : int
        Replications, shared by every epsilon.
    seed : int
        Base seed in ``[0, 2**64)``; each replication is walked once, on
        the words of the streams under `seed` that
        :func:`tail_probability_mc` names, and judged at every epsilon, so
        the reported tail estimates are monotone in epsilon by
        construction (common random numbers).
    init : array, optional
        Initial distribution; default is the stationary law.  When given,
        `p` is required and the verdict tests the non-stationary bound
        (with the density p-norm prefactor) instead of the main one.
    p : float, optional
        Density-norm order, > 1 or inf, for a non-stationary start.
    assert_lezaud_hypotheses : bool
        Also report the exponent-12 bound in every row, when its
        hypotheses hold.  They apply to ``f = g - pi(g)``, the function
        whose time average the tail event measures: ``pi(f) = 0`` by
        construction, and ``sup|f| <= 1`` is checked.  The report's
        `lezaud_hypotheses` says whether it holds.  A non-stationary start
        multiplies the bound by ``||d init / d pi||_2``.

    Returns
    -------
    VerificationReport

    Raises
    ------
    InvalidInputError
        Before `pi` is solved, as every argument is: on a `g` that is not
        an ObservableFunction of one entry per state, a bad `t`,
        `eps_grid`, `reps`, `seed` or `init` (the rules of
        `tail_probability_mc`), `init` without `p`, a `p` not > 1 or inf,
        or a reducible `Q`.
    NumericalFailureError
        When `pi` or the gap misses its tolerance, or (ExplosionGuardError)
        a path needs more than `simulate.DEFAULT_MAX_JUMPS` jumps.
    """
    if not isinstance(g, ObservableFunction):
        raise InvalidInputError("g must be an ObservableFunction "
                                "(values with a declared range)")
    values, t, eps_list, reps, seed = _walk_arguments(Q, g, t, eps_grid,
                                                      reps, seed)
    eps_list.sort()
    if init is not None:
        if p is None:
            raise InvalidInputError(
                "a non-stationary start needs p for the density-norm bound")
        init = _as_probs(init, Q.n, "init")
        _conjugate(p)
    pi = stationary_distribution(Q)
    gap_report = spectral_gap(Q, pi)
    lam = gap_report.gap
    pi_g = float(pi.probs @ g.values)
    hypotheses = None
    if assert_lezaud_hypotheses:
        sup_f = float(np.max(np.abs(g.values - pi_g)))
        hypotheses = "hold" if sup_f <= 1.0 \
            else f"sup|g - pi(g)| = {sup_f!r} > 1"
    norm = None
    lez_norm = 1.0
    if init is not None:
        norm = _density_pnorm(init, pi.probs, pi.log_probs, p)
        lez_norm = _density_pnorm(init, pi.probs, pi.log_probs, 2)
    start = pi.probs if init is None else init
    estimates = _tail_estimates(Q, values, start, t, eps_list, reps, seed,
                                pi_g)
    rows = []
    for eps, est in zip(eps_list, estimates):
        bound_main = ctmc_hoeffding_bound(lam, t, eps, g.lower, g.upper)
        bound_lez = lez_norm * lezaud_bound(lam, t, eps).classical \
            if hypotheses == "hold" else None
        bound_nu = None
        effective = bound_main
        if norm is not None:
            bound_nu = nu_initial_bound(lam, t, eps, g.lower, g.upper, p,
                                        norm)
            effective = bound_nu
        # the upper limit of the miss fraction gives the hits' lower limit
        miss_upper = clopper_pearson_upper(reps - est.count, reps)
        verdict = "PASS" if 1.0 - miss_upper <= effective else "FAIL"
        slack = est.ci_upper - est.p_hat
        miss_slack = miss_upper - (1.0 - est.p_hat)
        rows.append(VerificationRow(
            eps=eps, t=t, reps=reps, p_hat=est.p_hat,
            ci_upper=est.ci_upper, bound_main=bound_main,
            bound_lezaud=bound_lez, verdict=verdict, bound_nu=bound_nu,
            uninformative=max(slack, miss_slack) >= 0.5))
    return VerificationReport(
        rows=rows, gap=lam, gap_method=gap_report.method,
        gap_residual=gap_report.residual, seed=seed, pi_g=pi_g,
        g_sup_norm=float(np.max(np.abs(g.values))),
        g_pi2_norm=float(math.sqrt(pi.probs @ g.values ** 2)),
        lezaud_hypotheses=hypotheses)
