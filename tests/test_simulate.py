import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmcgap import (ExplosionGuardError, GeneratorMatrix, InvalidInputError,
                     ObservableFunction, build_birth_death, build_three_state,
                     clopper_pearson_upper, sample_path,
                     stationary_distribution, substream,
                     tail_probability_mc)
from conftest import THREE_STATE_PI, random_birth_death


# ------------------------------------------------------- reference walker
# The walker as it was with NumPy row tables, np.searchsorted draws and a
# branch per optional observable.  The list-based walker must draw the same
# random numbers and return the same doubles.

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
        rate = prep.exit[x]
        if rate <= 0.0:
            # absorbing state: sits there forever
            if values is not None:
                weighted += (horizon - now) * values[x]
            break
        hold = rng.exponential(1.0 / rate)
        if now + hold >= horizon:
            if values is not None:
                weighted += (horizon - now) * values[x]
            break
        now += hold
        if values is not None:
            weighted += hold * values[x]
        u = rng.random()
        k = int(np.searchsorted(prep.cum_probs[x], u, side="right"))
        if k >= prep.targets[x].size:
            k = prep.targets[x].size - 1
        x = int(prep.targets[x][k])
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
@given(st.sampled_from(_KINDS), st.sampled_from(["zero", "short", "long"]),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_sample_path_matches_reference_walker(kind, span, observe, seed):
    # horizons in units of the mean holding time at the fastest state:
    # none, a few jumps, and a few hundred
    rng = np.random.default_rng(seed)
    Q = _chain(kind, rng)
    scale = 1.0 / max(Q.max_rate(), 1e-3)
    horizon = {"zero": 0.0, "short": rng.uniform(0.1, 5.0) * scale,
               "long": rng.uniform(50.0, 300.0) * scale}[span]
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
       st.integers(0, 2 ** 32 - 1))
def test_tail_counts_match_reference_walker(kind, seed):
    rng = np.random.default_rng(seed)
    Q = _chain(kind, rng)
    values = rng.uniform(0.0, 1.0, size=Q.n)
    init = stationary_distribution(Q).probs
    horizon = rng.uniform(1.0, 30.0) / Q.max_rate()
    eps = [0.02, 0.1]
    mean = float(init @ values)
    got = tail_probability_mc(Q, values, init, horizon, eps, 40, seed,
                              mean=mean)
    assert [e.count for e in got] == _reference_counts(
        Q, values, init, horizon, mean + np.array(eps), seed, 40)


@pytest.mark.parametrize("kind", ["three-state", "ring"])
def test_pooled_tail_counts_match_reference_walker(kind):
    rng = np.random.default_rng(2024)
    Q = _chain(kind, rng)
    values = rng.uniform(0.0, 1.0, size=Q.n)
    init = stationary_distribution(Q).probs
    mean = float(init @ values)
    eps = [0.01, 0.05]
    horizon = 20.0 / Q.max_rate()
    expected = _reference_counts(Q, values, init, horizon,
                                 mean + np.array(eps), 3, 200)
    for workers in (1, 2):
        got = tail_probability_mc(Q, values, init, horizon, eps, 200, 3,
                                  mean=mean, workers=workers)
        assert [e.count for e in got] == expected


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
def test_tail_estimate_workers_equivalent(three_state, eps):
    g = ObservableFunction([0.0, 0.0, 1.0], 0.0, 1.0)
    serial = tail_probability_mc(three_state, g, THREE_STATE_PI, 10.0, eps,
                                 300, seed=5, workers=1)
    parallel = tail_probability_mc(three_state, g, THREE_STATE_PI, 10.0, eps,
                                   300, seed=5, workers=3)
    assert serial == parallel
    if isinstance(eps, list):
        # one estimate per eps, in the given order, from the same paths
        # as the scalar call for that eps
        assert serial == [
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
