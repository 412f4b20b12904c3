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
from .generator import ObservableFunction, _as_probs, stationary_distribution
from .simulate import clopper_pearson_upper, tail_probability_mc
from .spectral import spectral_gap


def _check_bound_args(lam, t, eps):
    if not lam >= 0:
        raise InvalidInputError("spectral gap must be nonnegative")
    if not t > 0:
        raise InvalidInputError("t must be positive")
    if not eps > 0:
        raise InvalidInputError("eps must be positive")


def ctmc_hoeffding_bound(lam, t, eps, lower, upper):
    """Stationary-start tail bound ``exp(-lam t eps^2 / (upper - lower)^2)``."""
    _check_bound_args(lam, t, eps)
    span = float(upper) - float(lower)
    if not span > 0:
        raise InvalidInputError("range must have positive width")
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
    _check_bound_args(lam, t, eps)
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
        Reference (stationary) distribution, strictly positive.
    p : float
        Order in ``[1, inf]``; ``p = inf`` gives ``max nu[i] / pi[i]``.
    """
    pi = _as_probs(pi)
    nu = _as_probs(nu, pi.size)
    if np.any(pi <= 0):
        raise InvalidInputError("pi must be strictly positive")
    if np.any(nu < 0):
        raise InvalidInputError("nu must be nonnegative")
    if abs(nu.sum() - 1.0) > 1e-9:
        raise InvalidInputError(f"nu sums to {nu.sum()!r}, not 1")
    ratio = nu / pi
    if p == math.inf:
        return float(ratio.max())
    p = float(p)
    if p < 1:
        raise InvalidInputError("p must be >= 1 (or inf)")
    return float((pi @ ratio ** p) ** (1.0 / p))


def nu_initial_bound(lam, t, eps, lower, upper, p, density_norm):
    """Tail bound for a non-stationary start with density in ``L^p(pi)``.

    ``density_norm * exp(-lam t eps^2 / (q (upper - lower)^2))`` with `q`
    the Hölder conjugate of `p`; at ``p = inf`` (q = 1) and unit norm this
    reduces exactly to :func:`ctmc_hoeffding_bound`.
    """
    _check_bound_args(lam, t, eps)
    span = float(upper) - float(lower)
    if not span > 0:
        raise InvalidInputError("range must have positive width")
    if density_norm < 1.0 - 1e-12:
        raise InvalidInputError("density norm cannot be below 1")
    if p == math.inf:
        q = 1.0
    else:
        p = float(p)
        if p <= 1:
            raise InvalidInputError("p must be > 1 (or inf) for a finite "
                                    "conjugate exponent")
        q = p / (p - 1.0)
    return float(density_norm) * math.exp(-lam * t * eps ** 2 / (q * span ** 2))


@dataclass
class VerificationRow:
    """One epsilon's worth of simulation-versus-bound comparison.

    `verdict` is "PASS" when ``p_hat <= bound + (ci_upper - p_hat)``, i.e.
    the empirical tail stays below the certified bound within one-sided
    confidence slack.  `uninformative` marks rows where the exact CI slack
    on the hit or the miss fraction reaches 0.5 (too few replications for
    the verdict to carry evidence).
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
        d = {"eps": float(self.eps), "t": float(self.t),
             "reps": int(self.reps), "p_hat": float(self.p_hat),
             "ci_upper": float(self.ci_upper),
             "bound_main": float(self.bound_main),
             "bound_lezaud": None if self.bound_lezaud is None
             else float(self.bound_lezaud),
             "verdict": self.verdict,
             "uninformative": bool(self.uninformative)}
        if self.bound_nu is not None:
            d["bound_nu"] = float(self.bound_nu)
        return d


@dataclass
class VerificationReport(Report):
    """Full record of an empirical bound check.

    Rows are ordered by increasing epsilon.  `all_pass` is the headline
    verdict; `pi_g`, `g_sup_norm`, and `g_pi2_norm` document the observable
    so a reader can tell whether the unit-norm hypotheses of the
    exponent-12/4 bounds actually held (the tool reports them and leaves
    any normalization to the caller).
    """

    rows: list
    gap: float
    gap_method: str
    gap_residual: float
    seed: int
    pi_g: float
    g_sup_norm: float
    g_pi2_norm: float
    lezaud_hypotheses_asserted: bool = False

    @property
    def all_pass(self):
        return all(r.verdict == "PASS" for r in self.rows)

    def to_dict(self):
        return {"rows": [r.to_dict() for r in self.rows],
                "gap": float(self.gap), "gap_method": self.gap_method,
                "gap_residual": float(self.gap_residual),
                "seed": int(self.seed), "pi_g": float(self.pi_g),
                "g_sup_norm": float(self.g_sup_norm),
                "g_pi2_norm": float(self.g_pi2_norm),
                "lezaud_hypotheses_asserted":
                    bool(self.lezaud_hypotheses_asserted),
                "all_pass": self.all_pass}

    def _csv_table(self):
        # one line per epsilon, with the chain's gap and its method appended
        cols = ["eps", "t", "reps", "p_hat", "ci_upper", "bound_main",
                "bound_lezaud", "verdict"]
        rows = []
        for r in self.rows:
            d = r.to_dict()
            rows.append([d[c] for c in cols]
                        + [float(self.gap), self.gap_method])
        return cols + ["gap", "gap_method"], rows


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
        Base seed in ``[0, 2**64)``; replication `r` uses the stream
        derived from ``(seed, r)`` at every epsilon, so the reported tail
        estimates are monotone in epsilon by construction (common random
        numbers).
    init : array, optional
        Initial distribution; default is the stationary law.  When given,
        `p` is required and the verdict tests the non-stationary bound
        (with the density p-norm prefactor) instead of the main one.
    p : float, optional
        Density-norm order for a non-stationary start.
    assert_lezaud_hypotheses : bool
        Set when `g` is centered with sup norm <= 1; only then are the
        exponent-12 bounds reported.

    Returns
    -------
    VerificationReport
    """
    if not isinstance(g, ObservableFunction):
        raise InvalidInputError("g must be an ObservableFunction "
                                "(values with a declared range)")
    if g.values.size != Q.n:
        raise InvalidInputError(
            f"observable has {g.values.size} entries, chain has {Q.n}")
    eps_list = sorted(float(e) for e in eps_grid)
    if not eps_list:
        raise InvalidInputError("eps grid is empty")
    if not all(0 < e < math.inf for e in eps_list):
        raise InvalidInputError("eps values must be positive and finite")
    reps = int(reps)
    if reps < 1:
        raise InvalidInputError("reps must be >= 1")
    if not 0 < t < math.inf:
        raise InvalidInputError("t must be positive and finite")
    if init is not None and p is None:
        raise InvalidInputError(
            "a non-stationary start needs p for the density-norm bound")
    pi = stationary_distribution(Q)
    gap_report = spectral_gap(Q, pi)
    lam = gap_report.gap
    pi_g = float(pi.probs @ g.values)
    norm = None
    if init is not None:
        init = _as_probs(init, Q.n)
        norm = density_pnorm(init, pi, p)
    start = pi.probs if init is None else init
    estimates = tail_probability_mc(Q, g, start, t, eps_list, reps, seed,
                                    mean=pi_g)
    rows = []
    for eps, est in zip(eps_list, estimates):
        bound_main = ctmc_hoeffding_bound(lam, t, eps, g.lower, g.upper)
        bound_lez = lezaud_bound(lam, t, eps).classical \
            if assert_lezaud_hypotheses else None
        bound_nu = None
        effective = bound_main
        if norm is not None:
            bound_nu = nu_initial_bound(lam, t, eps, g.lower, g.upper, p,
                                        norm)
            effective = bound_nu
        slack = est.ci_upper - est.p_hat
        verdict = "PASS" if est.p_hat <= effective + slack else "FAIL"
        miss_slack = (clopper_pearson_upper(reps - est.count, reps)
                      - (1.0 - est.p_hat))
        rows.append(VerificationRow(
            eps=eps, t=float(t), reps=reps, p_hat=est.p_hat,
            ci_upper=est.ci_upper, bound_main=bound_main,
            bound_lezaud=bound_lez, verdict=verdict, bound_nu=bound_nu,
            uninformative=max(slack, miss_slack) >= 0.5))
    return VerificationReport(
        rows=rows, gap=lam, gap_method=gap_report.method,
        gap_residual=gap_report.residual, seed=int(seed), pi_g=pi_g,
        g_sup_norm=float(np.max(np.abs(g.values))),
        g_pi2_norm=float(math.sqrt(pi.probs @ g.values ** 2)),
        lezaud_hypotheses_asserted=bool(assert_lezaud_hypotheses))
