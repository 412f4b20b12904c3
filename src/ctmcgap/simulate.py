"""Exact trajectory simulation and Monte Carlo estimation of time-average
tail probabilities.

Trajectories are sampled from the jump chain: exponential holding times at
the current state's exit rate, then a jump drawn proportionally to the
off-diagonal rates.  The replications of a chunk are walked in lockstep,
one jump of every live path per NumPy step.  Replication `r` under `seed`
reads its own counter-based stream, Philox keyed ``(seed, r)`` from counter
0: its first uniform picks the initial state, then come blocks of
`_BLOCK` standard exponentials and `_BLOCK` uniforms, the k-th jump taking
the k-th of each.  Results are therefore reproducible bit for bit and do
not depend on how replications are chunked.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import count

import numpy as np

from ._report import Report
from .errors import ExplosionGuardError, InvalidInputError
from .generator import ObservableFunction, _as_probs, stationary_distribution

DEFAULT_MAX_JUMPS = 10_000_000
DEFAULT_CI_LEVEL = 0.999

# draws per path per block, and replications walked in lockstep; the blocks
# of one chunk take 2 * 8 * _BLOCK * _CHUNK bytes (1.8 MB) and the rest of
# its per-path state, temporaries included, about 0.1 MB
_BLOCK = 128
_CHUNK = 896


def _key_word(value, what):
    """`value` as one 64-bit word of a Philox key."""
    try:
        word = operator.index(value)
    except TypeError:
        raise InvalidInputError(f"{what} {value!r} is not an integer") \
            from None
    if not 0 <= word < 2 ** 64:
        raise InvalidInputError(f"{what} {word} is outside [0, 2**64)")
    return word


class _Stream:
    """One Philox, set in place to any replication's stream.

    Re-keying costs a few microseconds; building a Philox costs several
    times more, because it first builds a ``SeedSequence``.
    """

    def __init__(self):
        self.bitgen = np.random.Philox(0)
        self.rng = np.random.Generator(self.bitgen)
        self._key = np.zeros(2, dtype=np.uint64)
        self._counter = np.zeros(4, dtype=np.uint64)
        self._state = {"bit_generator": "Philox",
                       "state": {"counter": self._counter, "key": self._key},
                       "buffer": np.zeros(4, dtype=np.uint64),
                       "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def seek(self, seed, index, counter=0):
        """The generator on replication `index`'s stream under `seed`, at
        `counter` with nothing buffered (0 is the start)."""
        self._key[0], self._key[1] = seed, index
        self._counter[0] = counter
        self.bitgen.state = self._state
        return self.rng

    def tell(self):
        """``(counter, buffer_pos)``: `seek` to ``counter - 1`` and
        ``buffer_pos`` raw draws put the stream back where it is now."""
        state = self.bitgen.state
        return int(state["state"]["counter"][0]), state["buffer_pos"]


def substream(seed, index):
    """Independent random stream for replication `index` under `seed`.

    Philox keyed ``(seed, index)`` at counter 0, the stream replication
    `index` of :func:`tail_probability_mc` reads.  Both must lie in
    ``[0, 2**64)``.
    """
    seed, index = _key_word(seed, "seed"), _key_word(index, "index")
    return _Stream().seek(seed, index)


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


class _Chain:
    """CSR-shaped jump tables: exit rates, and per state a row of targets
    with cumulative jump probabilities ``np.cumsum(vals) / vals.sum()``.

    Row `i` spans ``start[i]`` to ``last[i]`` in `targets` and `cum`.
    """

    def __init__(self, Q):
        exit_rates = Q.exit_rates()
        # an absorbing state's rate is +0.0, so its holding time is infinite
        self.exit = np.where(exit_rates > 0, exit_rates, 0.0)
        rows = [Q.row_rates(i) for i in range(Q.n)]
        for i, (_, vals) in enumerate(rows):
            if self.exit[i] > 0 and not vals.size:
                raise InvalidInputError(
                    f"state {i} has exit rate {float(self.exit[i])!r} but no "
                    "positive jump rate")
        sizes = np.array([vals.size for _, vals in rows])
        ends = np.cumsum(sizes)
        self.start, self.last = ends - sizes, ends - 1
        self.targets = np.concatenate([cols for cols, _ in rows])
        self.cum = np.concatenate([np.cumsum(vals) / vals.sum()
                                   for _, vals in rows])
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


class _Blocks:
    """Per path, the next `_BLOCK` standard exponentials (`exp`) and
    uniforms (`unif`) of its stream; this base draws one path from `rng`."""

    def __init__(self, rng, paths=1):
        self.rng = rng
        self.exp = np.empty((paths, _BLOCK))
        self.unif = np.empty((paths, _BLOCK))

    def draw(self, i):
        self.rng.standard_exponential(out=self.exp[i])
        self.rng.random(out=self.unif[i])

    def refill(self, paths):
        for i in paths.tolist():
            self.draw(i)


class _ReplicationBlocks(_Blocks):
    """Blocks of up to `paths` replications under `seed`, reused chunk
    after chunk."""

    def __init__(self, stream, seed, paths):
        super().__init__(stream.rng, paths)
        self._stream, self._seed, self._lo = stream, seed, 0
        # per path, where its stream stopped: (counter, buffer_pos) as
        # _Stream.tell gives it, or (0, 0) before its first refill
        self._resume = np.zeros((paths, 2), dtype=np.int64)

    def start(self, lo, hi):
        """Make paths ``0..hi-lo-1`` replications ``lo..hi-1``; returns their
        initial-state uniforms."""
        self._lo = lo
        self._resume[:] = 0
        return np.array([self._start(i) for i in range(hi - lo)])

    def _start(self, i):
        u = self._stream.seek(self._seed, self._lo + i).random()
        self.draw(i)
        return u

    def refill(self, paths):
        # each stream resumes where its previous block ended; on its first
        # refill by drawing its first block again
        stream = self._stream
        for i in paths.tolist():
            counter, pos = self._resume[i].tolist()
            if counter:
                stream.seek(self._seed, self._lo + i, counter - 1)
                stream.bitgen.random_raw(pos)
            else:
                self._start(i)
            self.draw(i)
            self._resume[i] = stream.tell()


def _lockstep(chain, x, horizon, values, blocks, max_jumps, steps=None):
    """Time averages of `values` over ``[0, horizon]`` along one path per
    initial state in `x`, every live path making one jump per step.

    Path ``i`` holds for ``blocks.exp[i, k] / rate`` before its k-th jump
    and takes the jump on ``blocks.unif[i, k]``; a path that outlives its
    block gets the next one.  When `steps` is a list, each step appends the
    jump times and new states of the paths still live.
    """
    averages = np.empty(x.size)
    live = np.arange(x.size)
    now = np.zeros(x.size)
    weighted = np.zeros(x.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for made in count():
            col = made % _BLOCK
            if made and not col:
                blocks.refill(live)
            hold = blocks.exp[live, col] / chain.exit[x]
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
                live, x, now, weighted, hold, end = (
                    a[keep] for a in (live, x, now, weighted, hold, end))
            weighted += hold * values[x]
            now = end
            x = chain.jump(x, blocks.unif[live, col])
            if steps is not None:
                steps.append((now, x))
            # every live path now holds made + 2 jump times, time 0 included
            if made + 2 > max_jumps:
                raise ExplosionGuardError(
                    f"trajectory exceeded {max_jumps} jumps before time "
                    f"{horizon}; explosion guard tripped")


def sample_path(Q, x0, horizon, rng, g=None, max_jumps=DEFAULT_MAX_JUMPS):
    """Simulate the chain exactly from `x0` up to `horizon`.

    This is one replication of the walker behind
    :func:`tail_probability_mc`: it draws blocks of `_BLOCK` standard
    exponentials and `_BLOCK` uniforms from `rng`, so on
    ``substream(seed, r)`` after its initial-state uniform it follows
    replication `r`.

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
    values = np.zeros(Q.n) if g is None else _observable_values(g, Q.n)
    chain = _Chain(Q)
    blocks = _Blocks(rng)
    blocks.draw(0)
    steps = []
    avg = _lockstep(chain, np.array([x0]), horizon, values, blocks,
                    max_jumps, steps)
    times = np.concatenate([[0.0], *(t for t, _ in steps)])
    states = np.concatenate([[x0], *(x for _, x in steps)])
    return TrajectorySample(
        jump_times=times, states=states.astype(np.int64), horizon=horizon,
        time_average=None if g is None
        else float(values[x0] if horizon == 0.0 else avg[0]))


def clopper_pearson_upper(successes, trials, level=DEFAULT_CI_LEVEL):
    """One-sided upper confidence limit for a binomial proportion.

    Exact (beta-quantile) construction; returns 1 when every trial
    succeeded.
    """
    # only verify needs the beta quantile: keep scipy.special off import
    from scipy.special import betaincinv

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


def _count_reaching(Q, values, init, horizon, thresholds, seed, reps):
    """Per threshold, how many of replications ``0..reps-1`` have a time
    average at or above it."""
    chain = _Chain(Q)
    init_cum = np.cumsum(init)
    blocks = _ReplicationBlocks(_Stream(), seed, min(reps, _CHUNK))
    counts = np.zeros(thresholds.size, dtype=np.int64)
    for lo in range(0, reps, _CHUNK):
        first = blocks.start(lo, min(lo + _CHUNK, reps))
        x0 = np.minimum(np.searchsorted(init_cum, first, "right"), Q.n - 1)
        avg = _lockstep(chain, x0, horizon, values, blocks,
                        DEFAULT_MAX_JUMPS)
        counts += np.count_nonzero(avg[:, None] - thresholds >= 0.0, axis=0)
    return counts


def tail_probability_mc(Q, g, init, horizon, eps, reps, seed, mean=None):
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
        Stream seed in ``[0, 2**64)``; replication `r` always reads the
        stream ``substream(seed, r)``, so estimates are reproducible.
    mean : float, optional
        Stationary mean of `g`; computed from the stationary law of `Q`
        when omitted.

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
        If a state has a positive exit rate but no positive jump rate, or
        the seed lies outside ``[0, 2**64)``.
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
    seed = _key_word(seed, "seed")
    if mean is None:
        pi = stationary_distribution(Q)
        mean = float(pi.probs @ values)
    counts = _count_reaching(Q, values, init, horizon,
                             float(mean) + np.array(eps_list), seed, reps)
    estimates = [TailEstimate(p_hat=c / reps, reps=reps,
                              ci_upper=clopper_pearson_upper(c, reps),
                              seed=seed, epsilon=e, t=horizon, count=c)
                 for e, c in zip(eps_list, counts.tolist())]
    return estimates[0] if np.ndim(eps) == 0 else estimates
