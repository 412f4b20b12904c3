from bisect import bisect_right

import numpy as np
import pytest
import scipy.sparse as sp
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
# A scalar walker on the stream layout: replication r reads Philox keyed
# (seed, r) from counter 0, its first uniform picks the initial state, and
# then come blocks of _BLOCK standard exponentials and _BLOCK uniforms, the
# k-th jump taking the k-th of each.  The lockstep walker must draw the same
# random numbers and return the same doubles.

BLOCK = simulate._BLOCK


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


def _reference_walk(prep, x0, horizon, rng, values, max_jumps):
    """Simulate one path; returns (times, states, time_average_or_None)."""
    times = [0.0]
    states = [x0]
    x = x0
    now = 0.0
    weighted = 0.0
    while True:
        k = (len(times) - 1) % BLOCK
        if k == 0:
            exps = rng.standard_exponential(BLOCK)
            unifs = rng.random(BLOCK)
        rate = prep.exit[x]
        if rate <= 0.0:
            # absorbing state: sits there forever
            if values is not None:
                weighted += (horizon - now) * values[x]
            break
        hold = exps[k] / rate
        if now + hold >= horizon:
            if values is not None:
                weighted += (horizon - now) * values[x]
            break
        now += hold
        if values is not None:
            weighted += hold * values[x]
        j = int(np.searchsorted(prep.cum_probs[x], unifs[k], side="right"))
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


def _reference_initial_state(init_cum, rng):
    u = rng.random()
    k = int(np.searchsorted(init_cum, u, side="right"))
    return min(k, init_cum.size - 1)


def _reference_counts(Q, values, init, horizon, thresholds, seed, reps):
    prep = _ReferenceChain(Q)
    init_cum = np.cumsum(init)
    counts = np.zeros(thresholds.size, dtype=np.int64)
    for r in range(reps):
        rng = substream(seed, r)
        x0 = _reference_initial_state(init_cum, rng)
        _, _, avg = _reference_walk(prep, x0, horizon, rng, values, 10 ** 7)
        counts += avg - thresholds >= 0.0
    return counts.tolist()


def _ring_with_chords(n, rng):
    # a ring plus n random chords, rates log-uniform in [1e-3, 1e3]
    rates = {(i, (i + 1) % n): 0.0 for i in range(n)}
    for i, j in rng.integers(0, n, size=(n, 2)):
        if i != j:
            rates[int(i), int(j)] = 0.0
    return GeneratorMatrix.from_rates(
        n, [(i, j, 10.0 ** rng.uniform(-3.0, 3.0)) for i, j in rates])


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
    return _ring_with_chords(int(rng.integers(2, 41)), rng)


_KINDS = ["three-state", "two-state", "absorbing", "birth-death", "ring"]


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
       st.sampled_from(["zero", "short", "long", "refill"]), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_sample_path_matches_reference_walker(kind, span, observe, seed):
    # horizons in units of the mean holding time at the fastest state:
    # none, a few jumps, a few hundred, and enough to need several blocks
    rng = np.random.default_rng(seed)
    Q = _chain(kind, rng)
    scale = 1.0 / max(Q.max_rate(), 1e-3)
    horizon = {"zero": 0.0, "short": rng.uniform(0.1, 5.0) * scale,
               "long": rng.uniform(50.0, 300.0) * scale,
               "refill": rng.uniform(3.0, 6.0) * BLOCK * scale}[span]
    x0 = int(rng.integers(0, Q.n))
    g = rng.normal(size=Q.n) if observe else None
    got = sample_path(Q, x0, horizon, substream(seed, 7), g=g)
    times, states, avg = _reference_walk(_ReferenceChain(Q), x0, horizon,
                                         substream(seed, 7), g, 10 ** 7)
    assert got.jump_times.tolist() == times
    assert got.states.tolist() == states
    assert got.time_average == avg
    assert (got.time_average is None) == (g is None)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["three-state", "two-state", "birth-death", "ring"]),
       st.sampled_from([1.0, 30.0, 4.0 * BLOCK]),
       st.integers(0, 2 ** 32 - 1))
def test_tail_counts_match_reference_walker(kind, span, seed):
    # the longest span makes every path refill its blocks several times
    rng = np.random.default_rng(seed)
    Q = _chain(kind, rng)
    values = rng.uniform(0.0, 1.0, size=Q.n)
    init = stationary_distribution(Q).probs
    horizon = rng.uniform(0.5, 1.0) * span / Q.max_rate()
    eps = [0.02, 0.1]
    mean = float(init @ values)
    got = tail_probability_mc(Q, values, init, horizon, eps, 40, seed,
                              mean=mean)
    assert [e.count for e in got] == _reference_counts(
        Q, values, init, horizon, mean + np.array(eps), seed, 40)


@pytest.mark.parametrize("kind", ["three-state", "ring"])
def test_pooled_tail_counts_match_reference_walker(kind):
    # more replications than one lockstep chunk holds
    rng = np.random.default_rng(2024)
    Q = _chain(kind, rng)
    values = rng.uniform(0.0, 1.0, size=Q.n)
    init = stationary_distribution(Q).probs
    mean = float(init @ values)
    eps = [0.01, 0.05]
    horizon = 5.0 / Q.max_rate()
    reps = 2 * simulate._CHUNK + 7
    expected = _reference_counts(Q, values, init, horizon,
                                 mean + np.array(eps), 3, reps)
    got = tail_probability_mc(Q, values, init, horizon, eps, reps, 3,
                              mean=mean)
    assert [e.count for e in got] == expected


def test_tail_counts_with_absorbing_state_match_reference_walker():
    # state 1 holds forever: paths that reach it stop jumping
    Q = GeneratorMatrix([[-1.5, 1.5], [0.0, 0.0]])
    values = np.array([1.0, 0.0])
    init = np.array([0.7, 0.3])
    eps = [0.1, 0.3, 0.6]
    got = tail_probability_mc(Q, values, init, 2.0, eps, 300, 9, mean=0.2)
    assert [e.count for e in got] == _reference_counts(
        Q, values, init, 2.0, 0.2 + np.array(eps), 9, 300)
    assert 0 < got[0].count < 300


def test_replication_follows_sample_path_on_its_substream(three_state):
    # replication r of a chunk starting at lo reads substream(seed, r): its
    # first uniform picks x0, and sample_path on the rest is the same walk
    seed, lo, hi, horizon = 77, 5, 25, 3.0 * BLOCK
    values = np.array([0.0, 0.5, 1.0])
    init_cum = np.cumsum(THREE_STATE_PI)
    blocks = simulate._ReplicationBlocks(simulate._Stream(), seed, hi - lo)
    x0 = np.minimum(np.searchsorted(init_cum, blocks.start(lo, hi), "right"),
                    2)
    avg = simulate._lockstep(simulate._Chain(three_state), x0, horizon,
                             values, blocks, 10 ** 7)
    for i, r in enumerate(range(lo, hi)):
        rng = substream(seed, r)
        start = _reference_initial_state(init_cum, rng)
        assert start == x0[i]
        path = sample_path(three_state, start, horizon, rng, g=values)
        assert path.time_average == avg[i]


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
    rng = substream(4, 0)
    times, _, _ = _reference_walk(_ReferenceChain(two_state), 0, 40.0, rng,
                                  None, 10 ** 7)
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
    with monkeypatch.context() as m:
        m.setattr(simulate, "_CHUNK", 64)
        split = tail_probability_mc(three_state, g, THREE_STATE_PI, 10.0,
                                    eps, 300, seed=5)
    assert whole == split
    if isinstance(eps, list):
        # one estimate per eps, in the given order, from the same paths
        # as the scalar call for that eps
        assert whole == [
            tail_probability_mc(three_state, g, THREE_STATE_PI, 10.0, e,
                                300, seed=5) for e in eps]


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


def test_substream_key_range():
    last = 2 ** 64 - 1
    assert substream(last, last).random() == substream(last, last).random()
    for seed, index in ((-1, 0), (2 ** 64, 0), (0, -1), (0, 2 ** 64)):
        with pytest.raises(InvalidInputError):
            substream(seed, index)


def test_substream_is_philox_keyed_by_seed_and_index():
    key = 5 + (9 << 64)  # words (5, 9)
    expected = np.random.Generator(np.random.Philox(key=key)).random(6)
    assert np.array_equal(substream(5, 9).random(6), expected)


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
