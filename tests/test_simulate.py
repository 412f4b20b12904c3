import math
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import betaincinv
from scipy.stats import chi2 as chi2_dist
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmcgap import (ExplosionGuardError, GeneratorMatrix, InvalidInputError,
                     ObservableFunction, build_birth_death, build_three_state,
                     clopper_pearson_upper, sample_path,
                     stationary_distribution, substream,
                     tail_probability_mc)
from ctmcgap import simulate
from conftest import THREE_STATE_PI, random_birth_death


# ------------------------------------------------------- reference walker
# A scalar walker on the stream layout, read straight from the streams:
# replication r under seed takes its initial-state uniform from word r of
# substream(seed, 0), and its j-th jump words 2r and 2r + 1 of
# substream(seed, j + 1); it holds for -log1p(-u) / rate on the first and
# jumps on the second.  sample_path takes each jump's two uniforms from its
# rng in turn.  The lockstep walker must draw the same random numbers and
# return the same doubles.  log1p is NumPy's, as in the walker: its SIMD
# loops may round differently from math.log1p.


class _ReferenceChain:
    """Row tables for fast repeated sampling."""

    def __init__(self, Q):
        self.n = Q.n
        self.exit = Q.exit_rates().astype(float)
        self.targets = []
        self.cum_probs = []
        for i in range(Q.n):
            cols, vals = Q.row_rates(i)
            self.targets.append(cols.astype(np.int64))
            total = vals.sum()
            self.cum_probs.append(np.cumsum(vals) / total if vals.size
                                  else np.empty(0))


def _reference_walk(prep, x0, horizon, uniforms, values, max_jumps):
    """Simulate one path, its j-th jump on the pair ``uniforms(j)``;
    returns (times, states, time_average_or_None)."""
    times = [0.0]
    states = [x0]
    x = x0
    now = 0.0
    weighted = 0.0
    while True:
        u_hold, u_jump = uniforms(len(times) - 1)
        rate = prep.exit[x]
        if rate <= 0.0:
            # absorbing state: sits there forever
            if values is not None:
                weighted += (horizon - now) * values[x]
            break
        hold = float(-np.log1p(-u_hold)) / rate
        if now + hold >= horizon:
            if values is not None:
                weighted += (horizon - now) * values[x]
            break
        now += hold
        if values is not None:
            weighted += hold * values[x]
        j = int(np.searchsorted(prep.cum_probs[x], u_jump, side="right"))
        x = int(prep.targets[x][min(j, prep.targets[x].size - 1)])
        times.append(now)
        states.append(x)
        if len(times) > max_jumps:
            raise ExplosionGuardError(
                f"trajectory exceeded {max_jumps} jumps before time "
                f"{horizon}; explosion guard tripped")
    avg = None
    if values is not None:
        avg = float(values[x0]) if horizon == 0.0 else weighted / horizon
    return times, states, avg


def _sequential(rng):
    """sample_path's uniforms: each jump takes the next two of `rng`."""
    return lambda j: rng.random(2)


class _JumpWords:
    """Per jump j, the word pairs of every replication: substream(seed,
    j + 1) as a (reps, 2) array, drawn on first use."""

    def __init__(self, seed, reps):
        self.seed, self.reps, self.rows = seed, reps, []

    def __call__(self, j):
        while len(self.rows) <= j:
            self.rows.append(substream(self.seed, len(self.rows) + 1)
                             .random((self.reps, 2)))
        return self.rows[j]


def _reference_averages(Q, values, init, horizon, seed, reps):
    """The time averages of replications ``0..reps-1``."""
    prep = _ReferenceChain(Q)
    init_cum = np.cumsum(init)
    firsts = substream(seed, 0).random(reps)
    words = _JumpWords(seed, reps)
    averages = []
    for r in range(reps):
        x0 = min(int(np.searchsorted(init_cum, firsts[r], side="right")),
                 Q.n - 1)
        averages.append(_reference_walk(prep, x0, horizon,
                                        lambda j: words(j)[r], values,
                                        10 ** 7)[2])
    return np.array(averages)


def _counts(averages, thresholds):
    return [int(np.count_nonzero(averages - t >= 0.0)) for t in thresholds]


def _pinning(averages):
    """Thresholds whose counts change if any average moves by an ulp:
    every average and the double above it."""
    a = np.unique(averages)
    return np.concatenate([a, np.nextafter(a, np.inf)])


def _assert_walk_matches(averages, Q, values, init, horizon, seed, eps):
    # tail_probability_mc counts at mean + eps as the reference `averages`
    # do, and the walk behind it gives every one of them to the last bit
    reps = averages.size
    mean = float(init @ values)
    got = tail_probability_mc(Q, values, init, horizon, eps, reps, seed,
                              mean=mean)
    assert [e.count for e in got] == _counts(averages, mean + np.array(eps))
    pins = _pinning(averages)
    assert simulate._count_reaching(Q, values, init, horizon, pins, seed,
                                    reps).tolist() == _counts(averages, pins)
    return got


def _ring_with_chords(n, rng):
    # a ring plus n random chords, rates log-uniform in [1e-3, 1e3]
    rates = {(i, (i + 1) % n): 0.0 for i in range(n)}
    for i, j in rng.integers(0, n, size=(n, 2)):
        if i != j:
            rates[int(i), int(j)] = 0.0
    return GeneratorMatrix.from_rates(
        n, [(i, j, 10.0 ** rng.uniform(-3.0, 3.0)) for i, j in rates])


def _sticky():
    # states 0 and 1 swap at rate 300 and leave for the slow state 2 at rate
    # 0.05: from _STICKY_INIT a few paths make 600 jumps per unit of time
    # while the rest make a handful
    return GeneratorMatrix.from_rates(3, [(0, 1, 300.0), (1, 0, 300.0),
                                          (0, 2, 0.05), (1, 2, 0.05),
                                          (2, 0, 0.01)])


_STICKY_INIT = np.array([0.02, 0.02, 0.96])


def _chain(kind, rng):
    if kind == "three-state":
        return build_three_state()
    if kind == "two-state":
        return GeneratorMatrix.from_rates(2, [(0, 1, 2.0), (1, 0, 1.0)])
    if kind == "absorbing":
        # one state with no way out, and one that falls into it
        return GeneratorMatrix([[0.0]]) if rng.random() < 0.5 else \
            GeneratorMatrix([[-1.5, 1.5], [0.0, 0.0]])
    if kind == "birth-death":
        return build_birth_death(*random_birth_death(rng))
    if kind == "sticky":
        return _sticky()
    return _ring_with_chords(int(rng.integers(2, 41)), rng)


_KINDS = ["three-state", "two-state", "absorbing", "birth-death", "ring",
          "sticky"]


# ------------------------------------------------------------------- sampling

def test_zero_horizon_path(three_state):
    s = sample_path(three_state, 1, 0.0, substream(0, 0), g=[0.0, 1.0, 0.0])
    assert s.states.tolist() == [1]
    assert s.jump_times.tolist() == [0.0]
    assert s.time_average == 1.0  # value at the initial state


def test_path_structure(three_state):
    s = sample_path(three_state, 0, 50.0, substream(1, 0))
    assert s.jump_times[0] == 0.0 and s.states[0] == 0
    assert np.all(np.diff(s.jump_times) > 0)
    assert np.all(s.jump_times < 50.0)
    assert s.states.size == s.jump_times.size
    # consecutive states always differ (jump chain)
    assert np.all(np.diff(s.states) != 0)


def test_path_bitwise_reproducible(three_state):
    a = sample_path(three_state, 0, 25.0, substream(42, 3), g=[0.0, 0.0, 1.0])
    b = sample_path(three_state, 0, 25.0, substream(42, 3), g=[0.0, 0.0, 1.0])
    assert np.array_equal(a.jump_times, b.jump_times)
    assert np.array_equal(a.states, b.states)
    assert a.time_average == b.time_average


def test_substreams_differ(three_state):
    a = sample_path(three_state, 0, 25.0, substream(42, 0))
    b = sample_path(three_state, 0, 25.0, substream(42, 1))
    assert a.jump_times.size != b.jump_times.size or \
        not np.array_equal(a.jump_times, b.jump_times)


def test_average_method_matches_inline(three_state):
    g = [0.0, 1.0, 2.0]
    s = sample_path(three_state, 0, 30.0, substream(5, 0), g=g)
    assert abs(s.average(g) - s.time_average) < 1e-15


@pytest.mark.parametrize("run, outcome", [
    (lambda Q, g: simulate.TrajectorySample(
        np.array([0.0]), np.array([2]), 0.0).average(g.values), 0.75),
    (lambda Q, g: tail_probability_mc(Q, g, [1.2, -0.2, 0.0], 1.0, [0.1],
                                      10, 0),
     "init has negative entries"),
    # NaN starts and NaN observables used to give estimates of 0.03 and 0
    (lambda Q, g: tail_probability_mc(Q, g, [math.nan] * 3, 5.0, 0.1, 200,
                                      1, mean=0.3),
     "init must be finite"),
    (lambda Q, g: tail_probability_mc(Q, [math.nan, 1.0, 0.0],
                                      THREE_STATE_PI, 5.0, 0.1, 200, 1),
     "g must be finite"),
], ids=["average-at-horizon-0", "negative-init", "nan-init", "nan-g"])
def test_a_zero_horizon_and_a_negative_start(three_state, run, outcome):
    # a path of horizon 0 averages to its initial state's value; a start
    # law with a negative entry is refused
    g = ObservableFunction([0.0, 0.25, 0.75], 0.0, 1.0)
    if isinstance(outcome, str):
        with pytest.raises(InvalidInputError, match=outcome):
            run(three_state, g)
    else:
        assert run(three_state, g) == outcome


def test_two_state_occupation_long_run(two_state):
    # pi = (1/3, 2/3); a long path spends about 2/3 of its time in state 1
    s = sample_path(two_state, 0, 10_000.0, substream(7, 0), g=[0.0, 1.0])
    assert abs(s.time_average - 2.0 / 3.0) < 0.02


def test_jump_count_scale(two_state):
    # exit rates are 2 and 1, so with occupation (1/3, 2/3) the expected
    # jump rate is 4/3 per unit time
    counts = [sample_path(two_state, 0, 100.0, substream(11, r)).states.size
              for r in range(300)]
    assert abs(np.mean(counts) / 100.0 - 4.0 / 3.0) < 0.05


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_KINDS),
       st.sampled_from(["zero", "short", "long", "longer"]), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_sample_path_matches_reference_walker(kind, span, observe, seed):
    # horizons in units of the mean holding time at the fastest state:
    # none, a few jumps, a few hundred, and a thousand or more
    rng = np.random.default_rng(seed)
    Q = _chain(kind, rng)
    scale = 1.0 / max(Q.max_rate(), 1e-3)
    horizon = {"zero": 0.0, "short": rng.uniform(0.1, 5.0) * scale,
               "long": rng.uniform(50.0, 300.0) * scale,
               "longer": rng.uniform(400.0, 800.0) * scale}[span]
    x0 = int(rng.integers(0, Q.n))
    g = rng.normal(size=Q.n) if observe else None
    got = sample_path(Q, x0, horizon, substream(seed, 7), g=g)
    times, states, avg = _reference_walk(
        _ReferenceChain(Q), x0, horizon, _sequential(substream(seed, 7)), g,
        10 ** 7)
    assert got.jump_times.tolist() == times
    assert got.states.tolist() == states
    assert got.time_average == avg
    assert (got.time_average is None) == (g is None)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["three-state", "two-state", "birth-death", "ring",
                        "sticky"]),
       st.sampled_from([1.0, 30.0, 500.0]),
       st.integers(0, 2 ** 32 - 1))
def test_tail_counts_match_reference_walker(kind, span, seed):
    # spans in jumps at the fastest state; the sticky chain starts from its
    # ragged law, the others from their stationary one
    rng = np.random.default_rng(seed)
    Q = _chain(kind, rng)
    values = rng.uniform(0.0, 1.0, size=Q.n)
    init = _STICKY_INIT if kind == "sticky" else \
        stationary_distribution(Q).probs
    horizon = rng.uniform(0.5, 1.0) * span / Q.max_rate()
    averages = _reference_averages(Q, values, init, horizon, seed, 40)
    _assert_walk_matches(averages, Q, values, init, horizon, seed,
                         [0.02, 0.1])


@pytest.mark.parametrize("kind", ["three-state", "ring", "sticky"])
def test_pooled_tail_counts_match_reference_walker(kind, monkeypatch):
    # the counts do not depend on how the replications are chunked: chunks
    # of 1 and 3 start at every offset within a Philox block, and on the
    # sticky chain a few paths outlive the rest of their chunk by more than
    # a thousand jumps
    rng = np.random.default_rng(2024)
    Q = _chain(kind, rng)
    values = rng.uniform(0.0, 1.0, size=Q.n)
    init = _STICKY_INIT if kind == "sticky" else \
        stationary_distribution(Q).probs
    horizon = 5.0 if kind == "sticky" else 5.0 / Q.max_rate()
    averages = _reference_averages(Q, values, init, horizon, 3, 150)
    for chunk in (1, 3, 64, simulate._CHUNK):
        with monkeypatch.context() as m:
            m.setattr(simulate, "_CHUNK", chunk)
            got = _assert_walk_matches(averages, Q, values, init, horizon, 3,
                                       [0.01, 0.05])
        assert 0 < got[0].count < 150


def test_tail_counts_with_absorbing_state_match_reference_walker():
    # state 1 holds forever: paths that reach it stop jumping
    Q = GeneratorMatrix([[-1.5, 1.5], [0.0, 0.0]])
    values = np.array([1.0, 0.0])
    init = np.array([0.7, 0.3])
    averages = _reference_averages(Q, values, init, 2.0, 9, 300)
    got = _assert_walk_matches(averages, Q, values, init, 2.0, 9,
                               [0.1, 0.3, 0.6])
    assert 0 < got[0].count < 300


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_lockstep_jump_is_clamped_bisect_right(seed):
    # rows of many lengths in one call, probed at random uniforms, at every
    # cumulative value and its neighbours, and at or above a last entry
    # that rounds below 1
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 70))
    rates = [(i, j, float(rng.exponential()))
             for i in range(n) for j in range(n)
             if i != j and (j == (i + 1) % n or rng.random() < i / n)]
    Q = GeneratorMatrix.from_rates(n, rates)
    prep = _ReferenceChain(Q)
    xs, us = [], []
    for x in range(n):
        cum = prep.cum_probs[x]
        probes = np.concatenate([
            rng.random(5), cum, np.nextafter(cum, 0.0),
            np.nextafter(cum, 1.0), [0.0, np.nextafter(1.0, 0.0)]])
        probes = probes[(probes >= 0.0) & (probes < 1.0)]
        xs += [x] * probes.size
        us += probes.tolist()
    got = simulate._Chain(Q).jump(np.array(xs), np.array(us))
    want = [prep.targets[x][min(bisect_right(prep.cum_probs[x].tolist(), u),
                                prep.targets[x].size - 1)]
            for x, u in zip(xs, us)]
    assert got.tolist() == want


def _per_row_tables(Q):
    """The jump tables as built one row at a time with ``Q.row_rates``."""
    rows = [Q.row_rates(i) for i in range(Q.n)]
    sizes = np.array([vals.size for _, vals in rows])
    ends = np.cumsum(sizes)
    return (ends - sizes, ends - 1, np.concatenate([c for c, _ in rows]),
            np.concatenate([np.cumsum(v) / v.sum() for _, v in rows]))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 60), st.integers(0, 2 ** 32 - 1))
def test_chain_tables_match_per_row_build(n, seed):
    # ragged rows of up to 40 stored entries, some rates exactly 0, and
    # most diagonals stored (0.0 on an absorbing state); a row without its
    # diagonal has exit rate 0 and is absorbing too
    rng = np.random.default_rng(seed)
    rows, cols, vals = [], [], []
    for i in range(n):
        k = int(rng.integers(0, min(40, n - 1) + 1))
        js = rng.choice(np.delete(np.arange(n), i), size=k, replace=False)
        v = np.where(rng.random(k) < 0.2, 0.0, rng.exponential(size=k))
        rows += [i] * k
        cols += js.tolist()
        vals += v.tolist()
        if rng.random() < 0.7:
            rows.append(i)
            cols.append(i)
            vals.append(-v.sum())
    M = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    Q = GeneratorMatrix(M)
    chain = simulate._Chain(Q)
    start, last, targets, cum = _per_row_tables(Q)
    assert np.array_equal(chain.start, start)
    assert np.array_equal(chain.last, last)
    assert np.array_equal(chain.targets, targets)
    assert chain.cum.tobytes() == cum.tobytes()


def test_exit_rate_without_jump_rate_is_refused():
    # state 0 leaves at rate 1 but names no target
    Q = GeneratorMatrix([[-1.0, 0.0], [1.0, -1.0]])
    with pytest.raises(InvalidInputError, match="state 0 "):
        sample_path(Q, 0, 5.0, substream(0, 0))
    with pytest.raises(InvalidInputError, match="state 0 "):
        tail_probability_mc(Q, [0.0, 1.0], [0.5, 0.5], 5.0, 0.1, 10, seed=0,
                            mean=0.5)


def test_explosion_guard(two_state):
    with pytest.raises(ExplosionGuardError):
        sample_path(two_state, 0, 1e6, substream(0, 0), max_jumps=50)


def test_explosion_guard_at_the_same_jump_as_the_reference(two_state):
    # a path may hold max_jumps jump times and no more
    times, _, _ = _reference_walk(_ReferenceChain(two_state), 0, 40.0,
                                  _sequential(substream(4, 0)), None, 10 ** 7)
    n = len(times)
    assert sample_path(two_state, 0, 40.0, substream(4, 0),
                       max_jumps=n).jump_times.tolist() == times
    with pytest.raises(ExplosionGuardError):
        sample_path(two_state, 0, 40.0, substream(4, 0), max_jumps=n - 1)


def test_explosion_guard_through_tail_estimate(two_state, monkeypatch):
    monkeypatch.setattr(simulate, "DEFAULT_MAX_JUMPS", 50)
    with pytest.raises(ExplosionGuardError, match="50 jumps"):
        tail_probability_mc(two_state, [0.0, 1.0], [0.5, 0.5], 1e3, 0.1, 20,
                            seed=0, mean=0.5)
    # paths that stay under the guard are counted as usual
    est = tail_probability_mc(two_state, [0.0, 1.0], [0.5, 0.5], 5.0, 0.1,
                              20, seed=0, mean=0.5)
    assert est.reps == 20


def test_sample_path_input_guards(three_state):
    with pytest.raises(InvalidInputError):
        sample_path(three_state, 5, 1.0, substream(0, 0))
    for horizon in (-1.0, np.inf, np.nan):
        with pytest.raises(InvalidInputError, match="horizon"):
            sample_path(three_state, 0, horizon, substream(0, 0))
    with pytest.raises(InvalidInputError):
        sample_path(three_state, 0, 1.0, substream(0, 0), g=[1.0, 2.0])


# -------------------------------------------------------------- tail estimates

def test_stationary_mean_consistency(three_state):
    # stationary start: the expected time average equals pi(g) exactly;
    # check the empirical mean against a 4-sigma band
    g = np.array([0.0, 0.0, 1.0])
    pig = float(THREE_STATE_PI @ g)
    reps = 2000
    avgs = []
    init_cum = np.cumsum(THREE_STATE_PI)
    for r in range(reps):
        rng = substream(99, r)
        x0 = int(np.searchsorted(init_cum, rng.random(), side="right"))
        avgs.append(sample_path(three_state, min(x0, 2), 5.0, rng,
                                g=g).time_average)
    assert abs(np.mean(avgs) - pig) < 4.0 * np.std(avgs) / np.sqrt(reps)


def test_tail_estimate_reproducible(three_state):
    g = ObservableFunction([0.0, 0.0, 1.0], 0.0, 1.0)
    kwargs = dict(init=THREE_STATE_PI, horizon=10.0, eps=0.1, reps=400,
                  seed=123)
    a = tail_probability_mc(three_state, g, **kwargs)
    b = tail_probability_mc(three_state, g, **kwargs)
    assert a.to_json() == b.to_json()
    assert a.count == round(a.p_hat * a.reps)


@pytest.mark.parametrize("eps", [0.1, [0.2, 0.05, 0.1]],
                         ids=["scalar", "grid"])
def test_tail_estimate_workers_equivalent(three_state, monkeypatch, eps):
    # the replications are shared out among lockstep chunks; how many
    # chunks take them changes nothing
    g = ObservableFunction([0.0, 0.0, 1.0], 0.0, 1.0)
    whole = tail_probability_mc(three_state, g, THREE_STATE_PI, 10.0, eps,
                                300, seed=5)
    for chunk in (1, 3, 64):
        with monkeypatch.context() as m:
            m.setattr(simulate, "_CHUNK", chunk)
            split = tail_probability_mc(three_state, g, THREE_STATE_PI, 10.0,
                                        eps, 300, seed=5)
        assert whole == split, chunk
    if isinstance(eps, list):
        # one estimate per eps, in the given order, from the same paths
        # as the scalar call for that eps
        assert whole == [
            tail_probability_mc(three_state, g, THREE_STATE_PI, 10.0, e,
                                300, seed=5) for e in eps]


# Tails from 2 000 000 paths of an independent simulator, recorded in
# perfbench/reference_tails.json: the three-state chain with the indicator
# of state 2, and bd(2, 1, 30) with the indicator of state 0, both from
# their stationary law
_REFERENCE_TAILS = {
    "three-state": (2, 20.0, [0.05, 0.1, 0.15, 0.2],
                    [0.313962, 0.162022, 0.066694, 0.0208825]),
    "bd-2-1-30": (0, 50.0, [0.05, 0.1], [0.31737, 0.153082]),
}


@pytest.mark.parametrize("case", list(_REFERENCE_TAILS))
def test_tail_estimates_match_reference_tails(case):
    # the jump-keyed streams sample the right law: each p_hat lies within
    # 5 sigma of the reference tail
    observe, t, eps, tails = _REFERENCE_TAILS[case]
    Q = build_three_state() if case == "three-state" else \
        build_birth_death([2.0] * 30, [1.0] * 30)
    values = np.zeros(Q.n)
    values[observe] = 1.0
    pi = stationary_distribution(Q).probs
    reps, ref_reps = 20_000, 2_000_000
    got = tail_probability_mc(Q, values, pi, t, eps, reps, seed=20241020)
    for est, p in zip(got, tails):
        sigma = math.sqrt(p * (1.0 - p) * (1.0 / reps + 1.0 / ref_reps))
        assert abs(est.p_hat - p) <= 5.0 * sigma, (est.epsilon, est.p_hat)


def test_tail_impossible_event_is_zero(three_state):
    # max average is 1 and pi(g) = 5/9, so a deviation of 0.5 cannot happen
    g = ObservableFunction([0.0, 0.0, 1.0], 0.0, 1.0)
    est = tail_probability_mc(three_state, g, THREE_STATE_PI, 5.0, 0.5, 200,
                              seed=1)
    assert est.p_hat == 0.0
    assert est.ci_upper < 0.05


def test_tail_certain_event_is_one(three_state):
    # constant observable: average equals the mean, so deviation >= eps
    # never happens ... but with threshold below 0 it always does
    g = ObservableFunction([1.0, 1.0, 1.0], 0.0, 2.0)
    est = tail_probability_mc(three_state, g, THREE_STATE_PI, 5.0, 0.3, 100,
                              seed=1)
    assert est.p_hat == 0.0
    est2 = tail_probability_mc(three_state, g, THREE_STATE_PI, 5.0, 0.3, 100,
                               seed=1, mean=0.5)
    assert est2.p_hat == 1.0
    assert est2.ci_upper == 1.0


def test_tail_input_guards(three_state):
    g = ObservableFunction([0.0, 0.0, 1.0], 0.0, 1.0)
    with pytest.raises(InvalidInputError, match="sums"):
        tail_probability_mc(three_state, g, np.array([0.5, 0.2, 0.2]), 5.0,
                            0.1, 10, seed=0)
    with pytest.raises(InvalidInputError, match="reps"):
        tail_probability_mc(three_state, g, THREE_STATE_PI, 5.0, 0.1, 0,
                            seed=0)
    for horizon in (0.0, np.inf, np.nan):
        with pytest.raises(InvalidInputError, match="horizon"):
            tail_probability_mc(three_state, g, THREE_STATE_PI, horizon, 0.1,
                                10, seed=0)
    for eps in (0.0, np.inf, np.nan, [0.1, np.nan], [0.1, np.inf], []):
        with pytest.raises(InvalidInputError, match="eps"):
            tail_probability_mc(three_state, g, THREE_STATE_PI, 5.0, eps, 10,
                                seed=0)
    for seed in (-1, 2 ** 64, 1.5):
        with pytest.raises(InvalidInputError, match="seed"):
            tail_probability_mc(three_state, g, THREE_STATE_PI, 5.0, 0.1, 10,
                                seed=seed)


@pytest.mark.parametrize("mean", [math.nan, math.inf, -math.inf])
def test_a_mean_that_is_not_finite_is_refused_before_the_walk(
        three_state, monkeypatch, mean):
    # nan and inf gave p_hat 0.0, and -inf 1.0, with no error
    def walk(*args):
        raise AssertionError("walked before the mean was checked")

    monkeypatch.setattr(simulate, "_count_reaching", walk)
    with pytest.raises(InvalidInputError, match="mean must be finite"):
        tail_probability_mc(three_state, [0.0, 0.0, 1.0], THREE_STATE_PI,
                            5.0, 0.1, 100, seed=1, mean=mean)


def test_substream_key_range():
    last = 2 ** 64 - 1
    assert substream(last, last).random() == substream(last, last).random()
    for seed, index in ((-1, 0), (2 ** 64, 0), (0, -1), (0, 2 ** 64),
                        (1.5, 0), (0, 1.5), (True, 0), ("3", 0)):
        with pytest.raises(InvalidInputError):
            substream(seed, index)


def test_substream_takes_an_integral_seed_in_any_numeric_type():
    # one integer rule for seeds, stream indices and replication counts
    words = substream(3, 0).random(8)
    for seed in (3.0, np.int64(3), np.uint64(3), np.float64(3.0)):
        assert substream(seed, 0).random(8).tobytes() == words.tobytes()
    assert substream(3, 2.0).random(8).tobytes() \
        == substream(3, 2).random(8).tobytes()


def _splitmix64(counter, key):
    """SplitMix64 word `counter` under `key`, from the published algorithm
    in Python ints: the finalizer of ``key + (counter + 1) * gamma``."""
    z = (key + (counter + 1) * 0x9E3779B97F4A7C15) % 2 ** 64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2 ** 64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2 ** 64
    return z ^ (z >> 31)


def test_substream_is_splitmix64_keyed_by_seed_and_index():
    # the key of stream 9 under seed 5 is h(h(6 gamma) + 10 gamma), and
    # word k the top 53 bits of word k under that key, centred in its cell
    key = _splitmix64(9, _splitmix64(5, 0))
    expected = [((_splitmix64(k, key) >> 11) + 0.5) * 2.0 ** -53
                for k in range(6)]
    stream = substream(5, 9)
    assert stream.random(2).tolist() == expected[:2]
    assert stream.random() == expected[2]
    assert stream.random((1, 3)).tolist() == [expected[3:]]


def test_stream_keys_of_a_seed_and_index_grid_are_distinct():
    keys = {simulate._stream_key(seed, index)
            for seed in range(300) for index in range(300)}
    assert len(keys) == 300 * 300


def test_streams_pass_a_smoke_test():
    # 2^20 words per stream: a chi-square over 256 equal bins inside its
    # two-sided 1e-9 band, and four correlations each under 5 / sqrt(pairs):
    # neighbouring words, a replication's holding and jump words (2r and
    # 2r + 1), streams j and j + 1, and seeds s and s + 1
    n = 2 ** 20
    u = substream(7, 3).random(n)
    assert np.all((u > 0.0) & (u < 1.0))
    observed = np.bincount((u * 256).astype(np.intp), minlength=256)
    chi2 = float(((observed - n / 256) ** 2).sum() / (n / 256))
    assert chi2_dist.ppf(1e-9, 255) < chi2 < chi2_dist.isf(1e-9, 255)
    pairs = [(u[:-1], u[1:]), (u[0::2], u[1::2]),
             (u, substream(7, 4).random(n)), (u, substream(8, 3).random(n))]
    for a, b in pairs:
        assert abs(np.corrcoef(a, b)[0, 1]) < 5.0 / math.sqrt(a.size)


def test_each_step_hashes_two_words_per_live_path(monkeypatch):
    # on the sticky chain a few paths outlive the rest of their chunk by a
    # thousand jumps; a step hashes their words alone, where a draw through
    # every replication from the first live one to the last used 6.9 % of
    # its words
    hashed, live_paths = [], []
    counter_hash, draw = simulate._counter_hash, simulate._JumpDraws.__call__

    def counted_hash(counters, key):
        hashed.append(counters.size)
        return counter_hash(counters, key)

    def counted_draw(self, made, live):
        live_paths.append(live.size)
        return draw(self, made, live)

    monkeypatch.setattr(simulate, "_counter_hash", counted_hash)
    monkeypatch.setattr(simulate._JumpDraws, "__call__", counted_draw)
    reps = 2000
    tail_probability_mc(_sticky(), [0.0, 0.0, 1.0], _STICKY_INIT, 10.0, 0.1,
                        reps, seed=1, mean=0.9)
    assert len(live_paths) > 1000 and min(live_paths) < 20
    assert hashed == [reps] + [2 * live for live in live_paths]


# --------------------------------------------------------- confidence interval

def test_clopper_pearson_known_values():
    # at k = 0: 1 - (1 - level)^(1/n)
    for n in (10, 100):
        expect = 1.0 - (1.0 - 0.999) ** (1.0 / n)
        assert abs(clopper_pearson_upper(0, n) - expect) < 1e-12
    assert clopper_pearson_upper(50, 50) == 1.0


def test_clopper_pearson_covers_point_estimate():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 500))
        k = int(rng.integers(0, n + 1))
        assert clopper_pearson_upper(k, n) >= k / n


def test_clopper_pearson_monotone_in_level():
    lo = clopper_pearson_upper(10, 100, level=0.95)
    hi = clopper_pearson_upper(10, 100, level=0.999)
    assert lo < hi


def test_clopper_pearson_guards():
    with pytest.raises(InvalidInputError):
        clopper_pearson_upper(5, 4)
    with pytest.raises(InvalidInputError):
        clopper_pearson_upper(0, 0)


# limits beyond the exact range, at levels 0.999, 0.5 and 1e-6, as the
# earlier rational evaluation of n p - fl(n p) gave them
_PINNED_LIMITS = {
    (1, 5000): (0.001845163009493604, 0.00033564662898079734,
                2.830043941093644e-07),
    (20, 5000): (0.007594652609352178, 0.004133248789224902,
                 0.001172835187825193),
    (137, 5000): (0.0352906282779152, 0.027531526162451418,
                  0.017919629399631508),
    (2500, 5000): (0.5219395873962842, 0.5000999933330668,
                   0.46652752031241385),
    (4980, 5000): (0.9982065551834562, 0.996066728135287,
                   0.990263799864163),
    (4999, 5000): (0.9999997998999534, 0.9998613801725043,
                   0.9972407117415495),
    (1, 20000): (0.00046157565763123694, 8.391592638957985e-05,
                 7.074579923864554e-08),
    (20, 20000): (0.001901236185186478, 0.0010333639377567837,
                  0.00029289742394876213),
    (137, 20000): (0.008849481243910143, 0.006883225763386413,
                   0.004463707407184931),
    (10000, 20000): (0.5109491721299824, 0.5000249995833291,
                     0.48322404338952807),
    (19980, 20000): (0.999551976843711, 0.9990166327931111,
                     0.997560495984901),
    (19999, 20000): (0.9999999499749845, 0.9999653432415313,
                     0.9993094630025899),
}


def test_clopper_pearson_limits_beyond_the_exact_range_are_pinned():
    for (k, n), limits in _PINNED_LIMITS.items():
        assert tuple(clopper_pearson_upper(k, n, level)
                     for level in (0.999, 0.5, 1e-6)) == limits


@pytest.mark.parametrize("level", [math.nan, 1.5, 1.0, 0.0, -0.1, math.inf])
def test_clopper_pearson_refuses_a_level_outside_0_1(level):
    # SciPy's beta quantile returned NaN for a NaN level and for 1.5
    for k in (0, 3):
        with pytest.raises(InvalidInputError, match="level"):
            clopper_pearson_upper(k, 10, level=level)


def _cdf_exceeds(k, n, p, alpha):
    """Whether P(Bin(n, p) <= k) > alpha, in exact arithmetic, for a double
    p and a Fraction alpha; the shorter tail is summed."""
    a, b = p.as_integer_ratio()
    js = range(k + 1) if 2 * k <= n else range(k + 1, n + 1)
    tail = Fraction(sum(math.comb(n, j) * a ** j * (b - a) ** (n - j)
                        for j in js), b ** n)
    return (tail if 2 * k <= n else 1 - tail) > alpha


def _brackets_root(k, n, level, x, ulps):
    """Whether the exact Clopper-Pearson root lies strictly within `ulps`
    ulps of x: the binomial cdf, decreasing in p, crosses 1 - level
    between the doubles `ulps` steps below and above x."""
    below = above = x
    for _ in range(ulps):
        below, above = math.nextafter(below, 0.0), math.nextafter(above, 1.0)
    alpha = 1 - Fraction(level)
    return (_cdf_exceeds(k, n, below, alpha)
            and not _cdf_exceeds(k, n, above, alpha))


LEVELS = [1e-100, 0.01, 0.3, 0.5, 0.9, 0.95, 0.999, 0.999999]


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 300), data=st.data(), level=st.sampled_from(LEVELS))
def test_clopper_pearson_is_within_an_ulp_of_the_exact_root(n, data, level):
    k = data.draw(st.integers(0, n - 1))
    assert _brackets_root(k, n, level,
                          clopper_pearson_upper(k, n, level=level), 1)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 1000), data=st.data(),
       level=st.sampled_from(LEVELS[1:]))
def test_clopper_pearson_floating_tail_is_within_three_ulps(n, data, level):
    # with the exact comparison of neighbours off, the Loader-term tail
    # alone decides the last ulp, as it does above 300 trials; each term
    # carries a few ulps of rounding, which moves the root by 3 ulps at
    # most where the tail is least sensitive to p (level 0.01, k of 1-2).
    # A term's rounding grows with its log, so at level 1e-100 the root
    # moves by up to |log 1e-100| / (k + 1) ulps
    k = data.draw(st.integers(0, n - 1))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(simulate, "_EXACT_TRIALS", 0)
        x = clopper_pearson_upper(k, n, level=level)
    assert _brackets_root(k, n, level, x, 3)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 100_000), data=st.data(),
       level=st.sampled_from(LEVELS[1:]))
def test_clopper_pearson_agrees_with_scipy(n, data, level):
    # betaincinv is no ulp-level oracle: in 15 000 random draws with n up
    # to 1e5 it was off by up to 4 112 ulps (5.7e-13 relative), where exact
    # arithmetic put this limit within an ulp of the root; at level 1e-100
    # it returns NaN for small k
    k = data.draw(st.integers(0, n - 1))
    ref = float(betaincinv(k + 1, n - k, level))
    assert clopper_pearson_upper(k, n, level=level) == \
        pytest.approx(ref, rel=1e-11, abs=0)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 100_000), data=st.data())
def test_clopper_pearson_is_monotone_and_covers_k_over_n(n, data):
    k = data.draw(st.integers(0, n - 2))
    limits = [clopper_pearson_upper(k, n, level=lv) for lv in LEVELS]
    assert limits == sorted(limits) and len(set(limits)) == len(limits)
    for level, limit in zip(LEVELS, limits):
        assert clopper_pearson_upper(k + 1, n, level=level) > limit
        if level >= 0.5:
            assert limit >= k / n
