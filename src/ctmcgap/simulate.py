"""Exact trajectory simulation and Monte Carlo estimation of time-average
tail probabilities.

Trajectories are sampled from the jump chain: exponential holding times at
the current state's exit rate, then a jump drawn proportionally to the
off-diagonal rates.  The replications of a chunk are walked in lockstep,
one jump of every live path per NumPy step.  The random numbers are laid
out by jump, in counter-based streams that can be entered at any word
(Salmon et al. 2011, SC'11): stream `i` under `seed` is SplitMix64 under
the key ``h(h((seed + 1) g) + (i + 1) g)`` (`_stream_key`), with ``h`` its
finalizer and ``g`` its golden gamma, and its word `k` is the hash of
counter `k`, as a double in (0, 1) from the top 53 bits.  Replication `r`
takes its initial-state uniform from word `r` of stream 0, and its `j`-th
jump (from 0) reads words ``2r`` and ``2r + 1`` of stream ``j + 1``.  The
first gives the holding time ``-log1p(-u) / rate``, the second picks the
target.  So each step hashes the two words of each live path and no
others, and results are reproducible bit for bit and do not depend on how
replications are chunked.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from itertools import count

import numpy as np

from ._report import Report
from ._symeig import _counter_hash, _splitmix64
from .errors import (ExplosionGuardError, InvalidInputError,
                     NumericalFailureError)
from .generator import (_as_integer, _as_positive, _as_probs, _as_values,
                        stationary_distribution)

DEFAULT_MAX_JUMPS = 10_000_000
DEFAULT_CI_LEVEL = 0.999

# replications walked in lockstep; a chunk's per-path state and one step's
# draws and temporaries take about 0.25 KB per path, 2 MB in all
_CHUNK = 8192


def _stream_key(seed, index):
    """The SplitMix64 key of stream `index` under `seed`: word `index` of
    the stream keyed by word `seed` under key 0."""
    return _splitmix64(index, _splitmix64(seed, 0))


class _CounterStream:
    """The words of the stream keyed `key`, read in order."""

    def __init__(self, key):
        self.key, self.position = key, 0

    def random(self, size=None):
        """The next words as doubles in (0, 1): one float, or an array of
        shape `size` filled in C order."""
        shape = () if size is None else size
        end = self.position + int(np.prod(shape))
        words = np.arange(self.position, end, dtype=np.uint64)
        self.position = end
        u = _counter_hash(words, self.key).reshape(shape)
        return float(u) if size is None else u


def substream(seed, index):
    """Random stream `index` under `seed`, from its word 0: an object
    whose ``random(size=None)`` returns its next words as doubles in
    (0, 1), as ``numpy.random.Generator.random`` does.

    :func:`tail_probability_mc` reads stream 0 for its replications'
    initial states, word `r` for replication `r`, and stream ``j + 1`` for
    their `j`-th jumps, words ``2r`` and ``2r + 1``.

    Raises
    ------
    InvalidInputError
        Unless `seed` and `index` are integral numbers in ``[0, 2**64)``;
        an integral float such as ``3.0`` is taken as its int.
    """
    return _CounterStream(_stream_key(_as_integer(seed, "seed", 0, 2 ** 64),
                                      _as_integer(index, "index", 0, 2 ** 64)))


@dataclass
class TrajectorySample:
    """One simulated path up to a time horizon.

    `jump_times[k]` is when the chain entered `states[k]`; the first entry
    is time 0 at the initial state.  The path stays in its last state
    through the horizon.  `n_states`, the chain's size, is what `average`
    checks a state function against (None: any length).
    """

    jump_times: np.ndarray
    states: np.ndarray
    horizon: float
    time_average: float | None = None
    n_states: int | None = None

    def average(self, values):
        """Time average of a state function (an ObservableFunction or
        array of finite values, one per state) along this path.

        A zero-length horizon returns the value at the initial state.
        """
        values = _as_values(values, self.n_states, "values")
        if self.horizon == 0.0:
            return float(values[self.states[0]])
        ends = np.append(self.jump_times[1:], self.horizon)
        sojourns = ends - self.jump_times
        return float(sojourns @ values[self.states] / self.horizon)


class _Chain:
    """CSR-shaped jump tables: exit rates, and per state a row of targets
    with cumulative jump probabilities ``np.cumsum(vals) / vals.sum()``.

    Row `i` spans ``start[i]`` to ``last[i]`` in `targets` and `cum`.
    """

    def __init__(self, Q):
        exit_rates = Q.exit_rates()
        # an absorbing state's rate is +0.0, so its holding time is infinite
        self.exit = np.where(exit_rates > 0, exit_rates, 0.0)
        rows, cols, vals = Q.off_diagonal()  # in CSR order
        keep = vals > 0
        sizes = np.bincount(rows[keep], minlength=Q.n)
        stuck = (self.exit > 0) & (sizes == 0)
        if np.any(stuck):
            i = int(np.argmax(stuck))
            raise InvalidInputError(
                f"state {i} has exit rate {float(self.exit[i])!r} but no "
                "positive jump rate")
        ends = np.cumsum(sizes)
        self.start, self.last = ends - sizes, ends - 1
        self.targets, self.cum = cols[keep], vals[keep]
        # each row's rates v become np.cumsum(v) / v.sum(), bit for bit,
        # for all rows of one length at once; the lengths come from a
        # bincount, as np.unique would load numpy.ma
        for length in (np.flatnonzero(np.bincount(sizes)[1:]) + 1).tolist():
            at = self.start[sizes == length, None] + np.arange(length)
            block = self.cum[at]
            self.cum[at] = (np.cumsum(block, axis=1)
                            / block.sum(axis=1, keepdims=True))
        # bisection steps that settle a search over len(row) - 1 entries
        self.depth = int(sizes.max() - 1).bit_length()

    def jump(self, x, u):
        """Targets of jumps out of states `x` on uniforms `u`.

        In row ``x`` the entry taken is ``min(bisect_right(cum, u),
        len(cum) - 1)``, that is ``bisect_right`` over all but the row's
        last entry: every path bisects its own row, in lockstep.
        """
        lo, hi = self.start[x], self.last[x]
        for _ in range(self.depth):
            mid = (lo + hi) >> 1
            right = u >= self.cum[mid]
            lo = np.where(right & (lo < hi), mid + 1, lo)
            hi = np.where(right, hi, mid)
        return self.targets[lo]


class _JumpDraws:
    """The uniforms of a chunk of replications under `seed`, hashed from
    the streams as the module docstring lays them out."""

    def __init__(self, seed):
        self._seed, self._lo = seed, 0

    def start(self, lo, hi):
        """Make paths ``0..hi-lo-1`` replications ``lo..hi-1``; returns their
        initial-state uniforms."""
        self._lo = lo
        return _counter_hash(np.arange(lo, hi, dtype=np.uint64),
                             _stream_key(self._seed, 0))

    def __call__(self, made, live):
        """The uniforms of jump `made` of the paths in `live`: row 0 their
        holding-time words, row 1 their jump words, and no others."""
        words = (live + self._lo).astype(np.uint64) << np.uint64(1)
        return _counter_hash(np.stack([words, words + np.uint64(1)]),
                             _stream_key(self._seed, made + 1))


def _lockstep(chain, x, horizon, values, draws, max_jumps, steps=None):
    """Time averages of `values` over ``[0, horizon]`` along one path per
    initial state in `x`, every live path making one jump per step.

    ``draws(k, live)`` gives a ``(2, live.size)`` array ``u`` of uniforms
    for the k-th jump of the paths in `live`: path ``live[i]`` holds for
    ``-log1p(-u[0, i]) / rate`` and jumps on ``u[1, i]``.  When `steps` is
    a list, each step appends the jump times and new states of the paths
    still live.
    """
    averages = np.empty(x.size)
    live = np.arange(x.size)
    now = np.zeros(x.size)
    weighted = np.zeros(x.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for made in count():
            u = draws(made, live)
            hold = -np.log1p(-u[0]) / chain.exit[x]
            jump_u = u[1]
            end = now + hold
            going = end < horizon
            kept = np.count_nonzero(going)
            if kept < live.size:
                stop = ~going
                averages[live[stop]] = (
                    weighted[stop]
                    + (horizon - now[stop]) * values[x[stop]]) / horizon
                if not kept:
                    return averages
                keep = np.flatnonzero(going)
                live, x, now, weighted, hold, end, jump_u = (
                    a[keep]
                    for a in (live, x, now, weighted, hold, end, jump_u))
            weighted += hold * values[x]
            now = end
            x = chain.jump(x, jump_u)
            if steps is not None:
                steps.append((now, x))
            # every live path now holds made + 2 jump times, time 0 included
            if made + 2 > max_jumps:
                raise ExplosionGuardError(
                    f"trajectory exceeded {max_jumps} jumps before time "
                    f"{horizon}; explosion guard tripped")


def sample_path(Q, x0, horizon, rng, g=None, max_jumps=DEFAULT_MAX_JUMPS):
    """Simulate the chain exactly from `x0` up to `horizon`.

    The path is walked by the lockstep walker behind
    :func:`tail_probability_mc`, fed from `rng`: each jump takes the next
    two uniforms ``u`` of ``rng.random``, holding for ``-log1p(-u[0]) /
    rate`` and jumping on ``u[1]``.

    Parameters
    ----------
    Q : GeneratorMatrix
    x0 : int
        Initial state.
    horizon : float
        Nonnegative, finite time horizon; 0 yields a single-point path.
    rng : object with ``random(shape)``
        Source of randomness, whose ``random(shape)`` returns an array of
        its next uniforms in [0, 1) (a :func:`substream`, or a
        ``numpy.random.Generator``).
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
    x0 = _as_integer(x0, "initial state", 0, Q.n)
    horizon = float(horizon)
    if not 0 <= horizon < math.inf:
        raise InvalidInputError("horizon must be nonnegative and finite")
    values = np.zeros(Q.n) if g is None else _as_values(g, Q.n, "g")
    chain = _Chain(Q)
    steps = []
    avg = _lockstep(chain, np.array([x0]), horizon, values,
                    lambda *_: rng.random((2, 1)), max_jumps, steps)
    times = np.concatenate([[0.0], *(t for t, _ in steps)])
    states = np.concatenate([[x0], *(x for _, x in steps)])
    return TrajectorySample(
        jump_times=times, states=states.astype(np.int64), horizon=horizon,
        time_average=None if g is None
        else float(values[x0] if horizon == 0.0 else avg[0]), n_states=Q.n)


# Loader's stirlerr(x) = log(x!) - log(sqrt(2 pi x) (x/e)^x) at x = 0..15,
# and the Stirling series that gives it to 3e-20 from x = 16 on
_STIRLERR = (0.0, 0.08106146679532726, 0.0413406959554093,
             0.02767792568499834, 0.020790672103765093, 0.016644691189821193,
             0.013876128823070748, 0.01189670994589177, 0.010411265261972096,
             0.009255462182712733, 0.00833056343336287, 0.007573675487951841,
             0.00694284010720953, 0.006408994188004207, 0.0059513701127588475,
             0.005554733551962801)
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
             1 / 156)
# up to this many trials the last ulp of a Clopper-Pearson limit is settled
# in exact rational arithmetic, which costs at most a few milliseconds there
_EXACT_TRIALS = 300


def _stirlerr(x):
    """Loader's stirlerr at the integers in the float array `x`."""
    big = np.maximum(x, 16.0)
    w = 1.0 / (big * big)
    s = np.zeros_like(big)
    for c in reversed(_STIRLING):
        s = c + w * s
    s /= big
    small = x < 16
    s[small] = np.take(_STIRLERR, x[small].astype(np.intp))
    return s


def _bd0(y, d, m):
    """Loader's deviance ``y log(y/m) + m - y``, from ``d = y - m`` held to
    full relative precision: with ``v = d/(y + m)`` it is
    ``d v + 2y (v^3/3 + v^5/5 + ...)``, summed where ``|v| < 1/2``."""
    v = d / (y + m)
    out = y * np.log1p(d / m) - d
    near = np.abs(v) < 0.5
    if near.any():
        v, w, y = v[near], v[near] ** 2, y[near]
        # series terms until the next is below 2^-56 of the first
        wmax = float(w.max())
        terms = 1 if wmax == 0.0 else math.ceil(-56 * math.log(2)
                                                / math.log(wmax))
        s = 0.0
        for i in range(terms, 0, -1):
            s = 1.0 / (2 * i + 1) + w * s
        out[near] = d[near] * v + 2.0 * y * v * w * s
    return out


def _tail_terms(k, n, p, lower):
    """``P(Bin(n, p) = j)``, each to a few ulps, for the `j` of
    ``P(Bin(n, p) <= k)`` (`lower`) or ``P(Bin(n, p) > k)`` that matter,
    from the one next to `k` outward.

    Loader's saddle-point form ``exp(-e_j) / sqrt(2 pi j (n - j) / n)``
    (R's ``dbinom_raw``).  A binomial is log-concave, so the terms beyond
    10 standard deviations and 30 steps of the mode fall below 2^-60 of
    the tail.
    """
    mode = int((n + 1) * p)
    reach = int(10 * math.sqrt(n * p * (1.0 - p))) + 30
    lo, hi = ((max(0, min(k, mode) - reach), k) if lower
              else (k + 1, min(n, max(k + 1, mode) + reach)))
    mean = n * p
    # n p - mean, correctly rounded as one quotient of integers
    a, b = p.as_integer_ratio()
    c, d = mean.as_integer_ratio()
    mean_lo = (n * a * d - c * b) / (b * d)
    j = np.arange(max(lo, 1), min(hi, n - 1) + 1, dtype=float)
    d = (j - mean) - mean_lo                  # j - np to full precision
    e = (_stirlerr(j) + _stirlerr(n - j) - _stirlerr(np.array([float(n)]))
         + _bd0(j, d, mean) + _bd0(n - j, -d, (n - mean) - mean_lo))
    terms = np.exp(-e) / np.sqrt(j * (n - j) * (2 * math.pi / n))
    head = [math.exp(n * math.log1p(-p))] if lo == 0 else []
    terms = np.concatenate([head, terms, [p ** n] if hi == n else []])
    return terms[::-1] if lower else terms


def _bits(x):
    """The bit pattern of the double `x` as an int."""
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _double(bits):
    """The double whose bit pattern is the int `bits`."""
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _exact_lower_excess(k, n, p, level):
    """``P(Bin(n, p) <= k) - (1 - level)`` in rational arithmetic, for
    doubles `p` and `level`."""
    from fractions import Fraction  # the exact range alone needs it
    a, b = p.as_integer_ratio()
    c = b - a
    flip = 2 * k > n    # then sum the shorter tail, P(Bin(n, 1 - p) < n - k)
    if flip:
        k, a, c = n - k - 1, c, a
    # sum_{j <= k} C(n, j) a^j c^(n - j), by Horner's rule in c
    total, coef, power = 0, 1, 1
    for j in range(k + 1):
        total = total * c + coef * power
        coef, power = coef * (n - j) // (j + 1), power * a
    tail = Fraction(total * c ** (n - k), b ** n)
    return (1 - tail if flip else tail) - (1 - Fraction(level))


def _clopper_pearson_root(k, n, lower, target):
    """The `p`, to within a few ulps, at which ``P(Bin(n, p) <= k)``
    (`lower`) or ``P(Bin(n, p) > k)`` equals `target`, for ``0 < k < n - 1``.

    Either tail is a beta distribution function of ``s = 1 - p`` (lower)
    or ``s = p``, and its log is concave in ``log s``.  So Newton's method
    on that scale climbs monotonically to the root from smaller ``s``, and
    from larger ``s`` first steps past it, never leaving (0, 1); the
    bracket only guards a tail that underflows.  The start, Wilson's
    score limit with an overestimated normal quantile, lies at smaller
    ``s``; where it falls outside (0, 1), the beta median, at larger, does.
    """
    z = math.sqrt(-2.0 * math.log(target))
    x = k + 1 if lower else k
    spread = z * math.sqrt(x * (n - x) / n + z * z / 4)
    p = (x + z * z / 2 + (spread if lower else -spread)) / (n + z * z)
    if not 0.0 < p < 1.0:
        p = (k + 1) / (n + 1)
    lo, hi = 0.0, 1.0
    for _ in range(200):
        terms = _tail_terms(k, n, p, lower)
        tail, edge = math.fsum(terms), float(terms[0])
        # a tail that underflows lies far on its small side
        h = math.log(tail) - math.log(target) if tail > 0.0 else -math.inf
        # d log(tail)/d log s = (n - k) b(k) or (k + 1) b(k + 1), / tail;
        # log s moves by delta (capped where exp would overflow)
        delta = min(-h * tail / ((n - k if lower else k + 1) * edge), 700.0) \
            if edge > 0.0 else math.nan
        new = p - (1.0 - p) * math.expm1(delta) if lower \
            else p * math.exp(delta)
        if (h > 0) == lower:
            lo = p
        else:
            hi = p
        if abs(new - p) <= 4 * math.ulp(p) or hi - lo <= 8 * math.ulp(p):
            return p
        p = new if lo < new < hi else (math.sqrt(lo * hi) if lo > 0.0
                                       else 0.5 * hi)
    raise NumericalFailureError(
        f"Clopper-Pearson limit for {k}/{n} did not converge")


def clopper_pearson_upper(successes, trials, level=DEFAULT_CI_LEVEL):
    """One-sided upper confidence limit for a binomial proportion.

    The exact (Clopper–Pearson) limit: the `p` at which ``k`` or fewer
    successes in ``n`` trials have probability ``1 - level``, the
    ``level`` quantile of Beta(k + 1, n - k).  Returns 1 when every trial
    succeeded.  The binomial tail is summed from Loader's saddle-point
    terms (C. Loader, *Fast and Accurate Computation of Binomial
    Probabilities*, 2000) and the root settled on neighbouring doubles.
    Up to `_EXACT_TRIALS` trials they are compared in exact rational
    arithmetic, so the result is within an ulp of the true quantile.
    Beyond, the floating-point tail decides: within 3 ulps for levels from
    0.01 to 0.999999, and more where the tail's log is large, up to about
    ``|log tail| / (k + 1)`` ulps for the upper tail of a tiny `level`.
    """
    n = _as_integer(trials, "trials", 1)
    k = _as_integer(successes, "successes", 0, n + 1)
    if not 0.0 < level < 1.0:
        raise InvalidInputError(
            f"confidence level {level!r} must lie strictly between 0 and 1")
    if k == n:
        return 1.0
    # sum the smaller tail: 1 - level of P(Bin <= k), or level of P(Bin > k)
    lower = level >= 0.5
    target = 1.0 - level if lower else level
    if k == 0:          # (1 - p)^n = 1 - level
        p = -math.expm1(math.log1p(-level) / n)
        if n > _EXACT_TRIALS:
            return p
    elif k == n - 1:    # 1 - p^n = 1 - level
        p = math.exp(math.log(level) / n)
    else:
        p = _clopper_pearson_root(k, n, lower, target)

    def above(x):
        # > 0 where the root lies above x: P(Bin(n, x) <= k) - (1 - level)
        # in value, and in sign where the upper tail is summed
        if not 0.0 < x < 1.0:
            return level if x <= 0.0 else level - 1.0
        if n <= _EXACT_TRIALS:
            return _exact_lower_excess(k, n, x, level)
        excess = math.fsum([*_tail_terms(k, n, x, lower), -target])
        return excess if lower else -excess

    # find the two neighbouring doubles the root lies between, galloping
    # from p toward it and then bisecting on the bit patterns (ordered as
    # the nonnegative doubles are), and return the nearer one
    x = _bits(p)
    gx = above(p)
    up = gx > 0
    stride = 1 if up else -1
    while True:
        y = min(max(x + stride, 0), _bits(1.0))
        gy = above(_double(y))
        if (gy > 0) != up:
            break
        x, gx, stride = y, gy, 2 * stride
    while abs(y - x) > 1:
        mid = (x + y) // 2
        gm = above(_double(mid))
        if (gm > 0) == up:
            x, gx = mid, gm
        else:
            y, gy = mid, gm
    return _double(x if abs(gx) <= abs(gy) else y)


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


def _count_reaching(Q, values, init, horizon, thresholds, seed, reps):
    """Per threshold, how many of replications ``0..reps-1`` have a time
    average at or above it."""
    chain = _Chain(Q)
    init_cum = np.cumsum(init)
    draws = _JumpDraws(seed)
    counts = np.zeros(thresholds.size, dtype=np.int64)
    for lo in range(0, reps, _CHUNK):
        first = draws.start(lo, min(lo + _CHUNK, reps))
        x0 = np.minimum(np.searchsorted(init_cum, first, "right"), Q.n - 1)
        avg = _lockstep(chain, x0, horizon, values, draws, DEFAULT_MAX_JUMPS)
        counts += np.count_nonzero(avg[:, None] - thresholds >= 0.0, axis=0)
    return counts


def _walk_arguments(Q, g, init, horizon, eps, reps, seed, mean=None):
    """``(values, init, horizon, eps_list, reps, seed)`` of a walk of `Q`,
    each checked (InvalidInputError) without solving anything, and a given
    `mean` checked finite; `init` may be None, for a start not yet solved."""
    values = _as_values(g, Q.n, "g")
    horizon = _as_positive(horizon, "horizon t")
    eps_list = [_as_positive(e, "eps") for e in np.atleast_1d(eps)]
    if not eps_list:
        raise InvalidInputError("eps grid is empty")
    reps = _as_integer(reps, "reps", 1)
    seed = _as_integer(seed, "seed", 0, 2 ** 64)
    if init is not None:
        init = _as_probs(init, Q.n, "init")
    if not (mean is None or math.isfinite(mean)):
        raise InvalidInputError("mean must be finite")
    return values, init, horizon, eps_list, reps, seed


def tail_probability_mc(Q, g, init, horizon, eps, reps, seed, mean=None):
    """Estimate ``P(time average of g - mean >= eps)`` by simulation.

    Parameters
    ----------
    Q : GeneratorMatrix
    g : ObservableFunction or array
    init : StationaryDistribution or array
        Initial distribution: finite, nonnegative, summing to 1.
    horizon : float
        Averaging window, positive and finite.
    eps : float or sequence of float
        Deviation threshold, positive and finite.  A sequence is judged on
        one set of replications: each path is simulated once and its time
        average compared with every threshold.
    reps : int
        Number of independent replications, >= 1.
    seed : int
        Stream seed in ``[0, 2**64)``.  Replication `r` reads word `r` of
        ``substream(seed, 0)`` for its initial state and words ``2r`` and
        ``2r + 1`` of ``substream(seed, j + 1)`` for its `j`-th jump, so
        estimates are reproducible and do not depend on chunking.
    mean : float, optional
        Stationary mean of `g`, finite; computed from the stationary law
        of `Q` when omitted.

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
        Before any path is walked or `pi` solved: on a bad `g`, `init`,
        `horizon`, `eps`, `reps` or `seed`, the seed outside ``[0,
        2**64)``, or a given `mean` that is NaN or infinite.  While the
        jump tables are built: when a state has a positive exit rate but
        no positive jump rate.
    """
    values, init, horizon, eps_list, reps, seed = _walk_arguments(
        Q, g, init, horizon, eps, reps, seed, mean)
    if mean is None:
        mean = stationary_distribution(Q).probs @ values
    counts = _count_reaching(Q, values, init, horizon,
                             float(mean) + np.array(eps_list), seed, reps)
    estimates = [TailEstimate(p_hat=c / reps, reps=reps,
                              ci_upper=clopper_pearson_upper(c, reps),
                              seed=seed, epsilon=e, t=horizon, count=c)
                 for e, c in zip(eps_list, counts.tolist())]
    return estimates[0] if np.ndim(eps) == 0 else estimates
