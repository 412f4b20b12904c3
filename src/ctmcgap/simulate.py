"""Exact trajectory simulation and Monte Carlo estimation of time-average
tail probabilities.

Trajectories are sampled from the jump chain: exponential holding times at
the current state's exit rate, then a jump drawn proportionally to the
off-diagonal rates.  Every replication gets its own counter-based random
stream derived from ``(seed, replication_index)``, so results are
reproducible bit-for-bit regardless of scheduling or worker count.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import betaincinv

from ._report import Report
from .errors import ExplosionGuardError, InvalidInputError
from .generator import ObservableFunction, _as_probs, stationary_distribution

DEFAULT_MAX_JUMPS = 10_000_000
DEFAULT_CI_LEVEL = 0.999


def substream(seed, index):
    """Independent random stream for replication `index` under `seed`."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.Philox(ss))


@dataclass
class TrajectorySample:
    """One simulated path up to a time horizon.

    `jump_times[k]` is when the chain entered `states[k]`; the first entry
    is time 0 at the initial state.  The path stays in its last state
    through the horizon.
    """

    jump_times: np.ndarray
    states: np.ndarray
    horizon: float
    time_average: float | None = None

    def average(self, values):
        """Time average of a state function along this path.

        A zero-length horizon returns the value at the initial state.
        """
        values = np.asarray(values, dtype=float)
        if self.horizon == 0.0:
            return float(values[self.states[0]])
        ends = np.append(self.jump_times[1:], self.horizon)
        sojourns = ends - self.jump_times
        return float(sojourns @ values[self.states] / self.horizon)


def _observable_values(g, n):
    values = g.values if isinstance(g, ObservableFunction) else \
        np.asarray(g, dtype=float)
    if values.size != n:
        raise InvalidInputError(
            f"observable has {values.size} entries, chain has {n}")
    return values


def _draw(cum, u):
    """Category of uniform `u` under the cumulative table `cum`."""
    return min(bisect_right(cum, u), len(cum) - 1)


class _PreparedChain:
    """Per-state exit rates, jump targets and cumulative jump probabilities,
    as plain lists that the walker reads one entry at a time."""

    def __init__(self, Q):
        self.exit = Q.exit_rates().tolist()
        self.targets = []
        self.cum_probs = []
        for i in range(Q.n):
            cols, vals = Q.row_rates(i)
            if self.exit[i] > 0 and not vals.size:
                raise InvalidInputError(
                    f"state {i} has exit rate {self.exit[i]!r} but no "
                    "positive jump rate")
            self.targets.append(cols.tolist())
            self.cum_probs.append((np.cumsum(vals) / vals.sum()).tolist())


def _walk(prep, x0, horizon, rng, values, max_jumps):
    """Simulate one path; returns (times, states, time average of values)."""
    times = [0.0]
    states = [x0]
    x = x0
    now = 0.0
    weighted = 0.0
    while True:
        rate = prep.exit[x]
        # an absorbing state holds forever and draws nothing
        hold = math.inf if rate <= 0.0 else rng.exponential(1.0 / rate)
        if now + hold >= horizon:
            weighted += (horizon - now) * values[x]
            break
        now += hold
        weighted += hold * values[x]
        x = prep.targets[x][_draw(prep.cum_probs[x], rng.random())]
        times.append(now)
        states.append(x)
        if len(times) > max_jumps:
            raise ExplosionGuardError(
                f"trajectory exceeded {max_jumps} jumps before time "
                f"{horizon}; explosion guard tripped")
    return times, states, values[x0] if horizon == 0.0 else weighted / horizon


def sample_path(Q, x0, horizon, rng, g=None, max_jumps=DEFAULT_MAX_JUMPS):
    """Simulate the chain exactly from `x0` up to `horizon`.

    Parameters
    ----------
    Q : GeneratorMatrix
    x0 : int
        Initial state.
    horizon : float
        Nonnegative, finite time horizon; 0 yields a single-point path.
    rng : numpy.random.Generator
        Source of randomness (see :func:`substream`).
    g : ObservableFunction or array, optional
        When given, the path's time average of `g` is filled in
        (``g(x0)`` for a zero horizon).

    Returns
    -------
    TrajectorySample

    Raises
    ------
    ExplosionGuardError
        If the path needs more than `max_jumps` jumps.
    InvalidInputError
        If a state has a positive exit rate but no positive jump rate.
    """
    x0 = int(x0)
    if not 0 <= x0 < Q.n:
        raise InvalidInputError(f"initial state {x0} out of range")
    horizon = float(horizon)
    if not 0 <= horizon < math.inf:
        raise InvalidInputError("horizon must be nonnegative and finite")
    values = [0.0] * Q.n if g is None else _observable_values(g, Q.n).tolist()
    times, states, avg = _walk(_PreparedChain(Q), x0, horizon, rng, values,
                               max_jumps)
    return TrajectorySample(jump_times=np.asarray(times),
                            states=np.asarray(states, dtype=np.int64),
                            horizon=horizon,
                            time_average=None if g is None else avg)


def clopper_pearson_upper(successes, trials, level=DEFAULT_CI_LEVEL):
    """One-sided upper confidence limit for a binomial proportion.

    Exact (beta-quantile) construction; returns 1 when every trial
    succeeded.
    """
    k, n = int(successes), int(trials)
    if not 0 <= k <= n or n < 1:
        raise InvalidInputError(f"invalid counts {k}/{n}")
    if k == n:
        return 1.0
    return float(betaincinv(k + 1, n - k, level))


@dataclass
class TailEstimate(Report):
    """Monte Carlo estimate of a one-sided tail probability.

    `p_hat` estimates the chance that the time average of the observable
    exceeds its stationary mean by at least `epsilon`; `ci_upper` is the
    exact one-sided upper confidence limit at `level`.
    """

    p_hat: float
    reps: int
    ci_upper: float
    seed: int
    epsilon: float
    t: float
    count: int = 0
    level: float = DEFAULT_CI_LEVEL

    def to_dict(self):
        return {"p_hat": float(self.p_hat), "reps": int(self.reps),
                "ci_upper": float(self.ci_upper), "seed": int(self.seed),
                "epsilon": float(self.epsilon), "t": float(self.t),
                "count": int(self.count), "level": float(self.level)}


def _count_chunk(prep, init_cum, values, horizon, thresholds, seed, lo, hi):
    """Per threshold, how many of replications ``lo..hi-1`` reach it."""
    counts = np.zeros(thresholds.size, dtype=np.int64)
    for r in range(lo, hi):
        rng = substream(seed, r)
        x0 = _draw(init_cum, rng.random())
        _, _, avg = _walk(prep, x0, horizon, rng, values, DEFAULT_MAX_JUMPS)
        counts += avg - thresholds >= 0.0
    return counts


def tail_probability_mc(Q, g, init, horizon, eps, reps, seed, mean=None,
                        workers=1):
    """Estimate ``P(time average of g - mean >= eps)`` by simulation.

    Parameters
    ----------
    Q : GeneratorMatrix
    g : ObservableFunction or array
    init : StationaryDistribution or array
        Initial distribution; must sum to 1.
    horizon : float
        Averaging window, positive and finite.
    eps : float or sequence of float
        Deviation threshold, positive and finite.  A sequence is judged on
        one set of replications: each path is simulated once and its time
        average compared with every threshold.
    reps : int
        Number of independent replications, >= 1.
    seed : int
        Stream seed; replication `r` always uses the stream derived from
        ``(seed, r)``, so estimates are reproducible for any `workers`.
    mean : float, optional
        Stationary mean of `g`; computed from the stationary law of `Q`
        when omitted.
    workers : int
        Process count for parallel replication.

    Returns
    -------
    TailEstimate or list of TailEstimate
        One estimate for a float `eps`, or one per entry of a sequence in
        its order, each with a `DEFAULT_CI_LEVEL` upper confidence limit.

    Raises
    ------
    ExplosionGuardError
        If a path needs more than `DEFAULT_MAX_JUMPS` jumps.
    InvalidInputError
        If a state has a positive exit rate but no positive jump rate.
    """
    values = _observable_values(g, Q.n)
    init = _as_probs(init, Q.n)
    if np.any(init < 0):
        raise InvalidInputError("initial distribution has negative entries")
    if abs(init.sum() - 1.0) > 1e-9:
        raise InvalidInputError(
            f"initial distribution sums to {init.sum()!r}, not 1")
    horizon = float(horizon)
    if not 0 < horizon < math.inf:
        raise InvalidInputError("horizon must be positive and finite")
    eps_list = [float(e) for e in np.atleast_1d(eps)]
    if not eps_list:
        raise InvalidInputError("eps grid is empty")
    if not all(0 < e < math.inf for e in eps_list):
        raise InvalidInputError("eps must be positive and finite")
    reps = int(reps)
    if reps < 1:
        raise InvalidInputError("reps must be >= 1")
    if mean is None:
        pi = stationary_distribution(Q)
        mean = float(pi.probs @ values)
    thresholds = float(mean) + np.array(eps_list)
    prep = _PreparedChain(Q)
    init_cum = np.cumsum(init).tolist()
    values = values.tolist()
    workers = max(1, int(workers))
    if workers == 1 or reps < 2 * workers:
        counts = _count_chunk(prep, init_cum, values, horizon, thresholds,
                              seed, 0, reps)
    else:
        # at least two replications per worker, so no chunk is empty
        edges = np.linspace(0, reps, workers + 1).astype(int).tolist()
        chunk = partial(_count_chunk, prep, init_cum, values, horizon,
                        thresholds, seed)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            counts = sum(pool.map(chunk, edges[:-1], edges[1:]))
    estimates = [TailEstimate(p_hat=c / reps, reps=reps,
                              ci_upper=clopper_pearson_upper(c, reps),
                              seed=int(seed), epsilon=e, t=horizon, count=c)
                 for e, c in zip(eps_list, counts.tolist())]
    return estimates[0] if np.ndim(eps) == 0 else estimates
