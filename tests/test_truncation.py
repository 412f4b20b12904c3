import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmcgap import (CountableModel, GeneratorMatrix, InvalidInputError,
                     NumericalFailureError, ObservableFunction,
                     StationaryDistribution, bd_closed_form_gap,
                     build_birth_death, build_three_state, collapse,
                     collapse_function, gap_convergence_sweep, spectral_gap,
                     stationary_distribution)
from conftest import THREE_STATE_PI


@pytest.fixture
def geometric_chain():
    # constant-rate chain drifting toward 0: down 2, up 1
    return CountableModel.birth_death(2.0, 1.0)


def test_birth_death_log_weight_has_no_accumulated_rounding():
    # callable rates take the level-by-level sum; the reference adds the
    # same terms, log(up / down), to 50 digits
    model = CountableModel.birth_death(lambda k: 1.1, lambda k: 1.0)
    term = Decimal(math.log(1.0 / 1.1))
    with localcontext() as ctx:
        ctx.prec = 50
        for k in (5000, 20000):
            assert abs(Decimal(model.log_weight(k)) - k * term) <= 1e-12


@pytest.mark.parametrize("n", [0, 10, 1000])
@pytest.mark.parametrize("down", [1.1, 1.001, "k"])
def test_birth_death_callable_tail_matches_decimal_reference(down, n):
    # log mu_n + log sum_{k>=n} mu_k / mu_n, to 50 digits: a geometric tail
    # for a constant down rate and up 1 (at 1.001 the sum spans ten blocks
    # of levels), and sum_{k>=n} 1/k! for down rate k and up 1
    with localcontext() as ctx:
        ctx.prec = 50
        if down != "k":
            model = CountableModel.birth_death(lambda k: down, lambda k: 1.0)
            r = 1 / Decimal(down)
            want = n * r.ln() - (1 - r).ln()
        else:
            model = CountableModel.birth_death(lambda k: float(k),
                                               lambda k: 1.0)
            ratio, term, k = Decimal(1), Decimal(1), n
            while term > Decimal(10) ** -60:
                k += 1
                term /= k
                ratio += term
            want = ratio.ln() - Decimal(math.factorial(n)).ln()
        assert abs(Decimal(model.log_tail_weight(n)) - want) <= 1e-12


_DOWN = st.lists(st.floats(1.0, 4.0), min_size=1, max_size=12)
_UP = st.lists(st.floats(0.05, 0.95), min_size=1, max_size=12)


@settings(max_examples=40, deadline=None)
@given(_DOWN, _UP, st.integers(1, 200))
def test_collapsed_prefix_is_birth_death_with_weighted_return(down, up, n):
    # rates repeat with the level; every up rate is below every down rate,
    # so the chain is positive recurrent
    a = lambda k: down[k % len(down)]  # noqa: E731
    b = lambda k: up[k % len(up)]  # noqa: E731
    model = CountableModel.birth_death(a, b)
    cm = collapse(model, n)
    share = math.exp(model.log_weight(n) - model.log_tail_weight(n))
    want = build_birth_death([a(k) for k in range(1, n)] + [a(n) * share],
                             [b(k) for k in range(n)])
    np.testing.assert_allclose(cm.generator.to_dense(), want.to_dense(),
                               rtol=1e-15, atol=0)


def _reference_collapsed_chain(model, index, feeders, log_tail):
    """The collapsed chain built entry by entry in a dict, as a reference.

    `index` maps each retained state to its row; the tail is the last row.
    """
    m = len(index)
    entries = {}

    def add(i, j, v):
        entries[(i, j)] = entries.get((i, j), 0.0) + v

    for s, i in index.items():
        for j, rate in model.row(s):
            add(i, index.get(j, m), rate)
    for k in feeders:
        share = math.exp(model.log_weight(k) - log_tail)
        for j, rate in model.row(k):
            if j in index:
                add(m, index[j], rate * share)
    rates = [(i, j, v) for (i, j), v in sorted(entries.items())]
    log_w = np.array([model.log_weight(s) for s in index] + [log_tail])
    law = StationaryDistribution._from_log(log_w - model.log_tail_weight(0))
    return GeneratorMatrix.from_rates(m + 1, rates), law


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 12), st.integers(0, 2 ** 32 - 1))
def test_collapse_matches_dict_reference(n, seed):
    # a random strongly connected chain (a ring plus random chords); the
    # first retained state jumps to every other state, so with at least
    # two states outside the set its row has two targets in the tail
    rng = np.random.default_rng(seed)
    R = np.where(rng.random((n, n)) < 0.5, rng.exponential(size=(n, n)), 0.0)
    R[np.arange(n), (np.arange(n) + 1) % n] += 1.0
    retained = np.sort(rng.choice(n, size=int(rng.integers(1, n - 1)),
                                  replace=False)).tolist()
    R[retained[0]] = rng.exponential(size=n)
    np.fill_diagonal(R, 0.0)
    Q = GeneratorMatrix(R - np.diag(R.sum(axis=1)))
    model = CountableModel.from_generator(Q, stationary_distribution(Q))
    cm = collapse(model, retained)
    feeders = sorted(set(range(n)) - set(retained))
    log_tail = np.logaddexp.reduce([model.log_weight(k) for k in feeders])
    index = {s: k for k, s in enumerate(retained)}
    Qr, law = _reference_collapsed_chain(model, index, feeders, log_tail)
    np.testing.assert_allclose(cm.generator.to_dense(), Qr.to_dense(),
                               rtol=1e-14, atol=0)
    assert np.array_equal(cm.pi_tilde.log_probs, law.log_probs)


def test_from_generator_refuses_a_law_balanced_at_some_states_only():
    # balanced at states 0 and 1, the law passed the collapsed chain's
    # check at the prefix {0, 1} and gave a gap of 1.4634 against 1.4279
    Q = GeneratorMatrix.from_rates(4, [
        (0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1),
        (1, 0, .5), (2, 1, .7), (3, 2, .4), (0, 2, .3)])
    A = np.array([[-1.3, 0.5, 0.0, 1.0], [1.0, -1.5, 0.7, 0.0],
                  [0.0, 0.0, 1.0, -1.0], [1.0, 1.0, 1.0, 1.0]])
    pi = np.linalg.solve(A, [0.0, 0.0, 0.0, 1.0])  # and pi[2] = pi[3]
    assert np.max(np.abs((pi @ Q.to_dense())[:2])) < 1e-15
    with pytest.raises(NumericalFailureError, match="stationary"):
        CountableModel.from_generator(Q, pi)
    model = CountableModel.from_generator(Q, stationary_distribution(Q))
    assert gap_convergence_sweep(model, [2]).gaps[0] \
        == pytest.approx(1.4278707720401977, rel=1e-12)


# ----------------------------------------------------------------- collapsing

def test_collapse_finite_all_but_one_state_is_identity(three_state):
    model = CountableModel.from_generator(three_state, THREE_STATE_PI)
    cm = collapse(model, 2)
    # the lone complement state becomes the tail state with its own rates
    assert np.array_equal(cm.generator.to_dense(), three_state.to_dense())
    assert np.max(np.abs(cm.pi_tilde.probs - THREE_STATE_PI)) < 1e-15
    assert cm.tail_index == 2
    gap = spectral_gap(cm.generator, cm.pi_tilde).gap
    assert abs(gap - spectral_gap(three_state, THREE_STATE_PI).gap) < 1e-12


def test_collapse_finite_explicit_set(three_state):
    model = CountableModel.from_generator(three_state, THREE_STATE_PI)
    cm = collapse(model, [0, 2])
    # retained states keep their rates; state 1 becomes the tail
    expect = np.array([[-2.0, 1.0, 1.0],
                       [1.0, -1.0, 0.0],
                       [1.0, 2.0, -3.0]])
    assert np.max(np.abs(cm.generator.to_dense() - expect)) < 1e-14
    expect_pi = np.array([1.0 / 3.0, 5.0 / 9.0, 1.0 / 9.0])
    assert np.max(np.abs(cm.pi_tilde.probs - expect_pi)) < 1e-15


def test_collapse_prefix_of_geometric_chain(geometric_chain):
    cm = collapse(geometric_chain, 6)
    Qt = cm.generator.to_dense()
    # return rate from the tail state into the retained set
    assert abs(Qt[6, 5] - 1.0) < 1e-12
    assert Qt[5, 6] == 1.0            # outbound rate to the tail
    assert abs(Qt[6, 6] + 1.0) < 1e-12
    # stationary law: geometric on the set, exact tail mass at e
    expect = 0.5 ** np.arange(6) * 0.5
    assert np.max(np.abs(cm.pi_tilde.probs[:6] - expect)) < 1e-14
    assert abs(cm.pi_tilde.probs[6] - 0.5 ** 6) < 1e-14
    resid = np.max(np.abs(cm.pi_tilde.probs @ Qt))
    assert resid < 1e-12


def test_collapse_zero_tail_mass_rejected(three_state):
    model = CountableModel.from_generator(three_state, THREE_STATE_PI)
    with pytest.raises(InvalidInputError, match="tail"):
        collapse(model, 3)
    with pytest.raises(InvalidInputError, match="tail"):
        collapse(model, [0, 1, 2])


def _bd_row(i):
    # down 2, up 1: product-form weights are 2**-k
    return [(i + 1, 1.0)] + ([(i - 1, 2.0)] if i > 0 else [])


def _three_state_row(i):
    cols, vals = build_three_state().row_rates(i)
    return list(zip(cols.tolist(), vals.tolist()))


_BAD_THREE_STATE_WEIGHTS = (0.5, 0.25, 0.25)


@pytest.mark.parametrize("model, retained", [
    # weights 0.7**k do not balance the flows of a down-2, up-1 chain
    (CountableModel(row=_bd_row, log_weight=lambda k: k * math.log(0.7),
                    log_tail_weight=lambda n: n * math.log(0.7)
                    - math.log(0.3),
                    in_reach=lambda n: (n,)), 6),
    # a finite chain built directly: from_generator would refuse the law
    (CountableModel(row=_three_state_row,
                    log_weight=lambda k: math.log(_BAD_THREE_STATE_WEIGHTS[k]),
                    log_tail_weight=lambda n: math.log(
                        sum(_BAD_THREE_STATE_WEIGHTS[n:])),
                    finite_size=3), [0, 2]),
])
def test_collapse_rejects_inconsistent_weights(model, retained):
    with pytest.raises(NumericalFailureError, match="stationary"):
        collapse(model, retained)


def test_collapse_infinite_needs_prefix(geometric_chain):
    with pytest.raises(InvalidInputError, match="prefix"):
        collapse(geometric_chain, [0, 2, 4])


def test_collapse_empty_or_invalid_sets(three_state):
    model = CountableModel.from_generator(three_state, THREE_STATE_PI)
    with pytest.raises(InvalidInputError):
        collapse(model, [])
    with pytest.raises(InvalidInputError):
        collapse(model, [0, 7])
    with pytest.raises(InvalidInputError):
        collapse(model, 0)


@pytest.mark.parametrize("run, match", [
    (lambda m, g: collapse(CountableModel(m.row, m.log_weight,
                                          m.log_tail_weight), 5),
     "needs an in_reach callback"),
    (lambda m, g: collapse(m, 0), "prefix size must be >= 1"),
    (lambda m, g: collapse(CountableModel(m.row, m.log_weight,
                                          lambda n: math.inf, m.in_reach), 5),
     "log tail weight inf must be finite"),
    (lambda m, g: collapse_function(g, []), "retained set is empty"),
], ids=["no-in-reach", "prefix-0", "infinite-tail", "empty-function-set"])
def test_infinite_collapse_guards(geometric_chain, run, match):
    g = ObservableFunction([1.0, 2.0, 3.0], 0.0, 3.0)
    with pytest.raises(InvalidInputError, match=match):
        run(geometric_chain, g)


def test_countable_model_guards():
    with pytest.raises(InvalidInputError, match="recurrence"):
        CountableModel.birth_death(1.0, 2.0)  # drifts to infinity
    with pytest.raises(InvalidInputError):
        CountableModel.birth_death(-1.0, 0.5)
    # refused as any birth-death rate is, not only once collapsed
    for down in (math.nan, math.inf):
        with pytest.raises(InvalidInputError, match="positive and finite"):
            CountableModel.birth_death(down, 1.0)


def test_birth_death_callable_rates_match_constant(geometric_chain):
    callable_model = CountableModel.birth_death(lambda k: 2.0, lambda k: 1.0)
    for n in (1, 3, 7):
        w1, w2 = (math.exp(m.log_weight(n))
                  for m in (geometric_chain, callable_model))
        assert abs(w1 - w2) < 1e-15
        t1, t2 = (math.exp(m.log_tail_weight(n))
                  for m in (geometric_chain, callable_model))
        assert abs(t1 - t2) < 1e-12 * t1


def test_birth_death_level_dependent_rates():
    # service rate grows with the level, so the tail is super-geometric
    model = CountableModel.birth_death(lambda k: float(k), lambda k: 1.0)
    cm8 = collapse(model, 8)
    cm16 = collapse(model, 16)
    g8 = spectral_gap(cm8.generator, cm8.pi_tilde).gap
    g16 = spectral_gap(cm16.generator, cm16.pi_tilde).gap
    assert g8 > 0 and g16 > 0
    # weights are 1/k!; the two collapses must already agree closely
    assert abs(g8 - g16) < 1e-3


# -------------------------------------------------------------------- sweeps

def test_sweep_converges_to_infinite_gap(geometric_chain):
    limit = bd_closed_form_gap(2.0, 1.0, math.inf)
    sweep = gap_convergence_sweep(geometric_chain, [10, 20, 40, 80],
                                  limit_hint=limit)
    dists = [abs(g - limit) for g in sweep.gaps]
    assert all(b < a for a, b in zip(dists, dists[1:]))
    assert math.isnan(sweep.diffs[0])
    assert sweep.diffs[1] == abs(sweep.gaps[1] - sweep.gaps[0])
    assert all(s >= 0 for s in sweep.seconds)


def test_sweep_csv_format(geometric_chain):
    sweep = gap_convergence_sweep(geometric_chain, [5, 10])
    lines = sweep.to_csv().splitlines()
    assert lines[0] == "size,gap,diff,seconds"
    first = lines[1].split(",")
    assert first[0] == "5" and first[2] == ""  # no diff on the first row
    assert float(first[1]) == sweep.gaps[0]


def test_sweep_input_validation(geometric_chain):
    with pytest.raises(InvalidInputError):
        gap_convergence_sweep(geometric_chain, [])
    with pytest.raises(InvalidInputError, match="increasing"):
        gap_convergence_sweep(geometric_chain, [10, 10])
    with pytest.raises(InvalidInputError):
        gap_convergence_sweep(geometric_chain, [0, 5])


# -------------------------------------------------------- observable collapse

def test_collapse_function_prefix():
    g = ObservableFunction([1.0, 2.0, 3.0, 4.0], 0.0, 5.0)
    gt, widened = collapse_function(g, 3)
    assert gt.values.tolist() == [1.0, 2.0, 3.0, 0.0]
    assert not widened
    assert (gt.lower, gt.upper) == (0.0, 5.0)


def test_collapse_function_widens_range():
    g = ObservableFunction([2.0, 3.0], 2.0, 3.0)
    gt, widened = collapse_function(g, 1)
    assert widened
    assert (gt.lower, gt.upper) == (0.0, 3.0)
    assert gt.values.tolist() == [2.0, 0.0]


def test_collapse_function_explicit_set():
    g = ObservableFunction([1.0, 2.0, 3.0], -1.0, 3.0)
    gt, widened = collapse_function(g, [0, 2])
    assert gt.values.tolist() == [1.0, 3.0, 0.0]
    assert not widened


def test_collapse_function_takes_an_array():
    # an array's range is that of its values; it raised AttributeError
    gt, widened = collapse_function([0.0, 1.0, 2.0], 2)
    assert gt.values.tolist() == [0.0, 1.0, 0.0]
    assert (gt.lower, gt.upper, widened) == (0.0, 2.0, False)
    gt, widened = collapse_function(np.array([2.0, 3.0]), 1)
    assert (gt.lower, gt.upper, widened) == (0.0, 3.0, True)


def test_collapse_function_coverage_checked():
    g = ObservableFunction([1.0, 2.0], 0.0, 2.0)
    with pytest.raises(InvalidInputError, match="cover"):
        collapse_function(g, 5)


def test_collapsed_mean_approaches_full_mean(three_state):
    # collapsing all but one state must preserve the stationary mean of an
    # observable vanishing on the complement
    model = CountableModel.from_generator(three_state, THREE_STATE_PI)
    g = ObservableFunction([0.0, 1.0, 0.0], 0.0, 1.0)
    cm = collapse(model, [0, 1])
    gt, _ = collapse_function(g, [0, 1])
    full = float(THREE_STATE_PI @ g.values)
    collapsed = float(cm.pi_tilde.probs @ gt.values)
    assert abs(full - collapsed) < 1e-15
