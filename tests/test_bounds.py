import math

import numpy as np
import pytest

from ctmcgap import (InvalidInputError, ObservableFunction, bounds,
                     build_birth_death, clopper_pearson_upper,
                     ctmc_hoeffding_bound, density_pnorm,
                     dtmc_hoeffding_bound, generator, lezaud_bound,
                     nu_initial_bound, simulate, stationary_distribution,
                     tail_probability_mc, verify)
from conftest import THREE_STATE_GAP, THREE_STATE_PI


# ------------------------------------------------------------------ main bound

def test_main_bound_unit_exponent():
    assert ctmc_hoeffding_bound(1.0, 1.0, 1.0, 0.0, 1.0) == math.exp(-1.0)


def test_main_bound_eps_doubling_quartics():
    b1 = ctmc_hoeffding_bound(2.0, 5.0, 0.1, 0.0, 1.0)
    b2 = ctmc_hoeffding_bound(2.0, 5.0, 0.2, 0.0, 1.0)
    assert abs(b2 - b1 ** 4) < 1e-14


def test_main_bound_monotonicity():
    base = dict(lam=1.5, t=10.0, eps=0.1, lower=0.0, upper=1.0)

    def f(**kw):
        args = {**base, **kw}
        return ctmc_hoeffding_bound(args["lam"], args["t"], args["eps"],
                                    args["lower"], args["upper"])

    assert f(lam=2.0) < f()
    assert f(t=20.0) < f()
    assert f(eps=0.2) < f()
    assert f(upper=2.0) > f()  # looser declared range weakens the bound


def test_main_bound_input_guards():
    with pytest.raises(InvalidInputError):
        ctmc_hoeffding_bound(-0.1, 1.0, 0.1, 0.0, 1.0)
    with pytest.raises(InvalidInputError):
        ctmc_hoeffding_bound(1.0, 0.0, 0.1, 0.0, 1.0)
    with pytest.raises(InvalidInputError):
        ctmc_hoeffding_bound(1.0, 1.0, 0.1, 1.0, 1.0)


# ------------------------------------------------------- exponent-12 variants

def test_lezaud_unit_values():
    cmp = lezaud_bound(12.0, 1.0, 1.0)
    assert cmp.classical == math.exp(-1.0)
    assert cmp.improved == math.exp(-3.0)


def test_lezaud_factor_three_exponent():
    rng = np.random.default_rng(1)
    for _ in range(50):
        lam, t, eps = rng.uniform(0.1, 5.0, size=3)
        cmp = lezaud_bound(lam, t, eps)
        assert cmp.improved <= cmp.classical
        assert abs(math.log(cmp.improved) / math.log(cmp.classical)
                   - 3.0) < 1e-9


# ----------------------------------------------------------------- density norm

def test_density_norm_of_pi_is_one():
    for p in (1.0, 2.0, 7.5, math.inf):
        assert abs(density_pnorm(THREE_STATE_PI, THREE_STATE_PI, p)
                   - 1.0) < 1e-12


def test_density_norm_l1_is_always_one():
    nu = np.array([0.9, 0.05, 0.05])
    assert abs(density_pnorm(nu, THREE_STATE_PI, 1.0) - 1.0) < 1e-12


def test_density_norm_point_mass():
    nu = np.array([1.0, 0.0, 0.0])
    # sup norm: 1/pi_0 = 3; quadratic norm: sqrt(1/pi_0) = sqrt(3)
    assert abs(density_pnorm(nu, THREE_STATE_PI, math.inf) - 3.0) < 1e-12
    assert abs(density_pnorm(nu, THREE_STATE_PI, 2.0)
               - math.sqrt(3.0)) < 1e-12


def test_density_norm_of_a_large_order_neither_overflows_nor_warns():
    # ratio ** p overflowed at p = 2000, with a RuntimeWarning, and gave
    # inf; the norm rises from its p = 2 value toward the largest ratio
    nu, pi = [0.5, 0.25, 0.25], [1.0 / 3.0] * 3
    norms = [density_pnorm(nu, pi, p) for p in (2, 500, 2000, 1e308)]
    assert norms == sorted(norms) and norms[-1] == 1.5
    assert abs(norms[2] - 1.49918) < 1e-5


def test_density_norm_against_a_subnormal_law_entry_is_finite():
    # nu / pi overflowed and the norm came out NaN with a RuntimeWarning;
    # it is 0.5 / sqrt(1e-320) but for a relative 1e-320
    norm = density_pnorm([0.5, 0.5], [1e-320, 1 - 1e-320], 2)
    assert abs(norm / (0.5 / math.sqrt(1e-320)) - 1.0) < 1e-12


def _steep_law():
    # the law of a 1 071-state chain drifting down: pi falls by a factor of 2
    # a state, and its last 49 entries are subnormal
    Q = build_birth_death([2.0] * 1070, [1.0] * 1070)
    return Q, stationary_distribution(Q)


@pytest.mark.parametrize("p", [100.0, math.inf])
def test_density_norm_past_the_double_range_is_inf(p):
    # exp of the log norm raised a bare OverflowError
    Q, pi = _steep_law()
    nu = np.zeros(Q.n)
    nu[-1] = 1.0
    assert density_pnorm(nu, pi, p) == math.inf


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_density_norm_reads_a_law_through_its_log_probs(p):
    # a uniform start on the steep law, against the log-space sum of
    # pi (nu / pi)^p in exact summation
    Q, pi = _steep_law()
    assert np.count_nonzero(pi.probs < np.finfo(float).tiny) == 49
    log_nu = -math.log(Q.n)
    terms = [lp + p * (log_nu - lp) for lp in pi.log_probs.tolist()]
    high = max(terms)
    reference = math.exp(
        (high + math.log(math.fsum(math.exp(x - high) for x in terms))) / p)
    norm = density_pnorm(np.full(Q.n, 1.0 / Q.n), pi, p)
    assert abs(norm / reference - 1.0) < 1e-12


def test_density_norm_guards():
    with pytest.raises(InvalidInputError):
        density_pnorm(np.array([0.5, 0.5, 0.5]), THREE_STATE_PI, 2.0)
    with pytest.raises(InvalidInputError):
        density_pnorm(THREE_STATE_PI, THREE_STATE_PI, 0.5)
    with pytest.raises(InvalidInputError):  # used to return 1.0
        density_pnorm([0.5, 0.5], [0.5, 0.5], math.nan)


# -------------------------------------------------------------- nu-start bound

def test_nu_bound_reduces_to_main_bound_exactly():
    # stationary start, sup-norm density 1: bit-for-bit the main bound
    for lam, t, eps in [(1.0, 1.0, 1.0), (2.2, 20.0, 0.05), (0.3, 7.0, 0.4)]:
        assert nu_initial_bound(lam, t, eps, 0.0, 1.0, math.inf, 1.0) == \
            ctmc_hoeffding_bound(lam, t, eps, 0.0, 1.0)


def test_nu_bound_quadratic_start_halves_exponent():
    lam, t, eps = 2.0, 10.0, 0.1
    norm = math.sqrt(3.0)
    b = nu_initial_bound(lam, t, eps, 0.0, 1.0, 2.0, norm)
    main = ctmc_hoeffding_bound(lam, t, eps, 0.0, 1.0)
    assert abs(math.log(b / norm) - 0.5 * math.log(main)) < 1e-12


def test_nu_bound_guards():
    with pytest.raises(InvalidInputError):
        nu_initial_bound(1.0, 1.0, 0.1, 0.0, 1.0, 1.0, 1.0)  # p must be > 1
    with pytest.raises(InvalidInputError):
        nu_initial_bound(1.0, 1.0, 0.1, 0.0, 1.0, 2.0, 0.5)  # norm < 1
    # a NaN p or norm used to give a NaN bound
    with pytest.raises(InvalidInputError):
        nu_initial_bound(1.0, 1.0, 0.1, 0.0, 1.0, math.nan, 1.0)
    with pytest.raises(InvalidInputError):
        nu_initial_bound(1.0, 1.0, 0.1, 0.0, 1.0, 2.0, math.nan)


# -------------------------------------------------------------------- verifier

def _unit_indicator():
    return ObservableFunction([0.0, 0.0, 1.0], 0.0, 1.0)


def test_verify_small_run_passes(three_state):
    rep = verify(three_state, _unit_indicator(), t=20.0,
                 eps_grid=[0.1, 0.2], reps=500, seed=7)
    assert rep.all_pass
    assert abs(rep.gap - THREE_STATE_GAP) < 1e-10
    assert abs(rep.pi_g - 5.0 / 9.0) < 1e-12
    for r in rep.rows:
        assert r.verdict == "PASS"
        assert r.p_hat <= r.bound_main + (r.ci_upper - r.p_hat)
        assert r.bound_lezaud is None  # not asked for
    assert rep.lezaud_hypotheses is None


def test_verify_rows_sorted_by_eps(three_state):
    rep = verify(three_state, _unit_indicator(), t=10.0,
                 eps_grid=[0.3, 0.1, 0.2], reps=50, seed=7)
    assert [r.eps for r in rep.rows] == [0.1, 0.2, 0.3]


def test_verify_keys_one_stream_per_lockstep_step(three_state, monkeypatch):
    # the replications are walked once for the whole eps grid, and their
    # uniforms drawn one stream per lockstep step, not one per replication:
    # a chunk keys a stream once for its initial states and once per step,
    # at most its longest path's jump count plus 2 times
    grid = [0.05, 0.1, 0.15, 0.2]
    calls = []
    stream_key, jump = simulate._stream_key, simulate._Chain.jump

    def counted_key(seed, index):
        calls.append(index)
        return stream_key(seed, index)

    def counted_jump(self, x, u):
        calls.append("jump")
        return jump(self, x, u)

    monkeypatch.setattr(simulate, "_stream_key", counted_key)
    monkeypatch.setattr(simulate._Chain, "jump", counted_jump)
    reps = 2000
    assert reps <= simulate._CHUNK
    verify(three_state, _unit_indicator(), t=5.0, eps_grid=grid, reps=reps,
           seed=4)
    streams = [c for c in calls if c != "jump"]
    longest = calls.count("jump")
    assert streams == list(range(len(streams)))
    assert 0 < longest and len(streams) <= longest + 2 < reps // 20


def test_verdict_compares_the_exact_lower_limit_with_the_bound(three_state,
                                                               monkeypatch):
    # 20 hits in 20 000 have the exact 99.9 % lower limit 4.48e-4, above a
    # bound of 2e-4, so the row fails; p_hat <= bound + (ci_upper - p_hat)
    # passed it
    reps, count = 20_000, 20
    estimate = simulate.TailEstimate(
        p_hat=count / reps, reps=reps,
        ci_upper=clopper_pearson_upper(count, reps), seed=0, epsilon=0.1,
        t=5.0, count=count)
    monkeypatch.setattr(bounds, "tail_probability_mc",
                        lambda *args, mean: [estimate])
    monkeypatch.setattr(bounds, "ctmc_hoeffding_bound", lambda *args: 2e-4)
    row = verify(three_state, _unit_indicator(), t=5.0, eps_grid=[0.1],
                 reps=reps, seed=0).rows[0]
    assert abs(1.0 - clopper_pearson_upper(reps - count, reps)
               - 4.48e-4) < 5e-6
    assert row.p_hat <= 2e-4 + (row.ci_upper - row.p_hat)
    assert row.verdict == "FAIL" and not row.uninformative


@pytest.mark.parametrize("chunks", [1, 2])
def test_verify_rows_match_scalar_estimates(three_state, monkeypatch, chunks):
    # verify walks the 200 replications in `chunks` lockstep chunks, the
    # scalar estimates in one; the rows agree all the same
    g = _unit_indicator()
    pi = stationary_distribution(three_state)
    with monkeypatch.context() as m:
        m.setattr(simulate, "_CHUNK", -(-200 // chunks))
        rep = verify(three_state, g, t=10.0, eps_grid=[0.2, 0.05, 0.1],
                     reps=200, seed=8)
    for row in rep.rows:
        est = tail_probability_mc(three_state, g, pi, 10.0, row.eps, 200,
                                  seed=8, mean=rep.pi_g)
        assert round(row.p_hat * row.reps) == est.count
        assert (row.p_hat, row.ci_upper) == (est.p_hat, est.ci_upper)


def test_verify_common_random_numbers_make_p_hat_monotone(three_state):
    rep = verify(three_state, _unit_indicator(), t=10.0,
                 eps_grid=[0.05, 0.1, 0.15, 0.2], reps=300, seed=11)
    p = [r.p_hat for r in rep.rows]
    assert all(a >= b for a, b in zip(p, p[1:]))


def test_verify_deterministic_report(three_state):
    kw = dict(t=15.0, eps_grid=[0.1, 0.2], reps=400, seed=2)
    a = verify(three_state, _unit_indicator(), **kw)
    b = verify(three_state, _unit_indicator(), **kw)
    assert a.to_json() == b.to_json()
    assert a.to_csv() == b.to_csv()


def test_verify_single_rep_is_uninformative(three_state):
    # A single replication can never be informative, whichever way the
    # one draw falls: hit (p_hat = 1, no upward slack but huge downward
    # slack) or miss (p_hat = 0, huge upward slack).
    rep = verify(three_state, _unit_indicator(), t=5.0, eps_grid=[0.1],
                 reps=1, seed=3)
    assert rep.rows[0].uninformative

    # eps = 0.5 makes the event impossible (the observable is bounded by
    # 1), so the single draw misses: the upward slack alone is wide.
    rep_miss = verify(three_state, _unit_indicator(), t=5.0,
                      eps_grid=[0.5], reps=1, seed=3)
    assert rep_miss.rows[0].p_hat == 0.0
    assert rep_miss.rows[0].uninformative
    assert rep_miss.rows[0].verdict == "PASS"  # slack covers everything


def test_verify_lezaud_rows_when_asserted(three_state):
    # the last state's indicator: g - pi(g) lies in [-5/9, 4/9], and the
    # tail event is about that centered function
    rep = verify(three_state, _unit_indicator(), t=10.0, eps_grid=[0.1],
                 reps=50, seed=1, assert_lezaud_hypotheses=True)
    r = rep.rows[0]
    assert abs(r.bound_lezaud
               - math.exp(-rep.gap * 10.0 * 0.1 ** 2 / 12.0)) < 1e-15
    assert rep.lezaud_hypotheses == "hold"
    assert rep.to_dict()["lezaud_hypotheses"] == "hold"
    # shifting g changes sup|g|, not g - pi(g)
    shifted = ObservableFunction([0.9, 0.9, 1.9], 0.9, 1.9)
    rep = verify(three_state, shifted, t=10.0, eps_grid=[0.1], reps=50,
                 seed=1, assert_lezaud_hypotheses=True)
    assert rep.lezaud_hypotheses == "hold"
    assert rep.rows[0].bound_lezaud == r.bound_lezaud


def test_verify_lezaud_refused_when_sup_norm_exceeds_one(three_state):
    # the doubled indicator: g - pi(g) lies in [-10/9, 8/9]
    doubled = ObservableFunction([0.0, 0.0, 2.0], 0.0, 2.0)
    rep = verify(three_state, doubled, t=10.0, eps_grid=[0.1, 0.2], reps=50,
                 seed=1, assert_lezaud_hypotheses=True)
    assert all(r.bound_lezaud is None for r in rep.rows)
    assert rep.lezaud_hypotheses == f"sup|g - pi(g)| = {rep.pi_g!r} > 1"
    assert rep.lezaud_hypotheses.startswith("sup|g - pi(g)| = 1.111")


def test_verify_lezaud_non_stationary_start_carries_l2_density(three_state):
    # the prefactor is ||d init / d pi||_2 = sqrt(3) whatever `p` the
    # density-norm bound uses
    init = np.array([1.0, 0.0, 0.0])
    rep = verify(three_state, _unit_indicator(), t=10.0, eps_grid=[0.1],
                 reps=50, seed=1, init=init, p=math.inf,
                 assert_lezaud_hypotheses=True)
    assert rep.lezaud_hypotheses == "hold"
    expect = math.sqrt(3.0) * math.exp(-rep.gap * 10.0 * 0.1 ** 2 / 12.0)
    assert abs(rep.rows[0].bound_lezaud - expect) < 1e-12


def test_verify_nu_start(three_state):
    nu = np.array([1.0, 0.0, 0.0])
    rep = verify(three_state, _unit_indicator(), t=20.0, eps_grid=[0.1],
                 reps=400, seed=9, init=nu, p=2.0)
    r = rep.rows[0]
    assert r.bound_nu is not None
    expect = math.sqrt(3.0) * math.exp(
        -rep.gap * 20.0 * 0.01 / (2.0 * 1.0))
    assert abs(r.bound_nu - expect) < 1e-12
    assert r.verdict == "PASS"


def test_verify_nu_requires_p(three_state):
    with pytest.raises(InvalidInputError, match="p"):
        verify(three_state, _unit_indicator(), t=5.0, eps_grid=[0.1],
               reps=10, seed=0, init=np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("run, outcome", [
    (lambda Q: ctmc_hoeffding_bound(1.0, 1.0, 0.0, 0.0, 1.0),
     "eps must be positive"),
    (lambda Q: density_pnorm([0.5, 0.5], [1.0, 0.0], 2.0),
     "pi must be strictly positive"),
    (lambda Q: density_pnorm([1.5, -0.5], [0.5, 0.5], 2.0),
     "nu has negative entries"),
    # a pi that sums to 10 gave a density norm of 0.316, below 1
    (lambda Q: density_pnorm([0.2, 0.3, 0.5], [2, 3, 5], 2),
     "pi sums to 10.0, not 1"),
    (lambda Q: nu_initial_bound(1.0, 1.0, 0.1, 1.0, 1.0, 2.0, 1.0),
     "range must have positive width"),
    # each of these four returned NaN with no error
    (lambda Q: ctmc_hoeffding_bound(0.0, math.inf, 0.1, 0, 1),
     "horizon t must be positive and finite"),
    (lambda Q: ctmc_hoeffding_bound(0.0, 1.0, math.inf, 0, 1),
     "eps must be positive and finite"),
    (lambda Q: lezaud_bound(0.0, math.inf, 0.1),
     "horizon t must be positive and finite"),
    (lambda Q: nu_initial_bound(1.0, 1e6, 1.0, 0, 1, 2, math.inf),
     "density norm must be finite"),
    # returned 0.0 with no error
    (lambda Q: dtmc_hoeffding_bound(0.5, 10, math.inf, 0, 1),
     "eps must be positive and finite"),
    # sqrt(3) exp(-gap t eps^2 / 2), the density's 2-norm at p = 2
    (lambda Q: verify(Q, _unit_indicator(), t=5.0, eps_grid=[0.1], reps=10,
                      seed=0, init=[1.0, 0.0, 0.0], p=2.0)
     .to_dict()["rows"][0]["bound_nu"],
     math.sqrt(3.0) * math.exp(-THREE_STATE_GAP * 5.0 * 0.01 / 2.0)),
], ids=["eps-0", "pi-not-positive", "nu-negative", "pi-sums-to-10",
        "zero-span", "t-inf", "eps-inf", "lezaud-t-inf", "density-norm-inf",
        "dtmc-eps-inf", "verify-bound-nu"])
def test_bound_guards_and_the_reported_nu_bound(three_state, run, outcome):
    if isinstance(outcome, str):
        with pytest.raises(InvalidInputError, match=outcome):
            run(three_state)
    else:
        assert abs(run(three_state) - outcome) < 1e-12


def test_verify_input_guards(three_state):
    g = _unit_indicator()
    with pytest.raises(InvalidInputError):
        verify(three_state, g, t=5.0, eps_grid=[], reps=10, seed=0)
    with pytest.raises(InvalidInputError):
        verify(three_state, g, t=5.0, eps_grid=[0.1], reps=0, seed=0)
    with pytest.raises(InvalidInputError):
        verify(three_state, g, t=-5.0, eps_grid=[0.1], reps=10, seed=0)


def test_verify_rejects_non_finite_input_before_solving(three_state,
                                                        monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("input should be rejected before any solve")

    monkeypatch.setattr(bounds, "stationary_distribution", unreachable)
    g = _unit_indicator()
    for t in (math.inf, math.nan):
        with pytest.raises(InvalidInputError, match="t must be"):
            verify(three_state, g, t=t, eps_grid=[0.1], reps=10, seed=0)
    for grid in ([0.1, math.nan], [math.inf], [0.0, 0.1]):
        with pytest.raises(InvalidInputError, match="eps"):
            verify(three_state, g, t=5.0, eps_grid=grid, reps=10, seed=0)
    with pytest.raises(InvalidInputError, match="ObservableFunction"):
        verify(three_state, np.array([0.0, 0.0, 1.0]), t=5.0,
               eps_grid=[0.1], reps=10, seed=0)
    with pytest.raises(InvalidInputError, match="seed"):
        verify(three_state, g, t=5.0, eps_grid=[0.1], reps=10, seed=-1)


@pytest.mark.parametrize("init, p", [([math.nan, 0.5, 0.5], 2.0),
                                     ([1.0, 0.0, 0.0], 1.0)],
                         ids=["nan-init", "p-1"])
def test_verify_refuses_a_bad_start_before_any_work(three_state, monkeypatch,
                                                    init, p):
    # a NaN start and an order p = 1, with no finite conjugate, used to
    # be refused only after pi was solved and every path walked
    def unreachable(*args, **kwargs):
        raise AssertionError("input should be rejected before any work")

    for module, name in ((bounds, "stationary_distribution"),
                         (generator, "stationary_distribution"),
                         (simulate, "_count_reaching")):
        monkeypatch.setattr(module, name, unreachable)
    with pytest.raises(InvalidInputError):
        verify(three_state, _unit_indicator(), t=20.0, eps_grid=[0.1],
               reps=20000, seed=1, init=init, p=p)


def test_verify_reaches_the_walk_and_the_norms_through_their_entries(
        three_state, monkeypatch):
    # one walk of every epsilon, in increasing order, about pi(g); and the
    # density norms at the order p of the nu bound and at 2 for Lezaud's
    walks, orders = [], []

    def walk(*args, **kwargs):
        walks.append((args, kwargs))
        return tail_probability_mc(*args, **kwargs)

    def norm(nu, pi, p):
        orders.append(p)
        return density_pnorm(nu, pi, p)

    monkeypatch.setattr(bounds, "tail_probability_mc", walk)
    monkeypatch.setattr(bounds, "density_pnorm", norm)
    rep = verify(three_state, _unit_indicator(), t=5.0, eps_grid=[0.2, 0.1],
                 reps=50, seed=3, init=[1.0, 0.0, 0.0], p=3.0)
    [(args, kwargs)] = walks
    assert args[4] == [0.1, 0.2] and kwargs == {"mean": rep.pi_g}
    assert orders == [3.0, 2]
    assert rep.rows[0].bound_nu is not None


def test_verify_refuses_a_start_whose_density_norm_is_inf(monkeypatch):
    # every bound is computed before the walk, which none of them reads:
    # the refusal came after 20 000 paths
    def walk(*args):
        raise AssertionError("walked before the bounds were checked")

    monkeypatch.setattr(simulate, "_count_reaching", walk)
    Q, _ = _steep_law()
    g = ObservableFunction(np.linspace(0.0, 1.0, Q.n), 0.0, 1.0)
    nu = np.zeros(Q.n)
    nu[-1] = 1.0
    with pytest.raises(InvalidInputError, match="density norm"):
        verify(Q, g, t=1.0, eps_grid=[0.1], reps=10, seed=0, init=nu,
               p=math.inf)


def test_a_gap_three_times_too_large_fails_the_default_verify(three_state,
                                                              monkeypatch):
    # the command's default run: the last state's indicator, t = 20, four
    # eps, 20 000 replications and seed 12345.  Three times the gap cubes
    # each bound, which then falls below the exact lower limit of the tail
    # at eps 0.15 (p_hat about 0.065, bound 0.050) and 0.2 (0.019, 0.0048)
    def run():
        return verify(three_state, _unit_indicator(), t=20.0,
                      eps_grid=[0.05, 0.1, 0.15, 0.2], reps=20000,
                      seed=12345)

    honest = run()
    assert [r.verdict for r in honest.rows] == ["PASS"] * 4
    gap = bounds.spectral_gap

    def inflated(Q, pi):
        report = gap(Q, pi)
        report.gap *= 3.0
        return report

    monkeypatch.setattr(bounds, "spectral_gap", inflated)
    shrunk = run()
    assert not shrunk.all_pass
    assert [r.verdict for r in shrunk.rows] == ["PASS", "PASS", "FAIL",
                                                "FAIL"]
    for fair, low in zip(honest.rows, shrunk.rows):
        assert low.p_hat == fair.p_hat
        assert abs(low.bound_main - fair.bound_main ** 3) \
            <= 1e-12 * fair.bound_main ** 3


def test_verify_csv_schema(three_state):
    rep = verify(three_state, _unit_indicator(), t=5.0, eps_grid=[0.1],
                 reps=20, seed=0)
    lines = rep.to_csv().splitlines()
    assert lines[0] == ("eps,t,reps,p_hat,ci_upper,bound_main,bound_lezaud,"
                        "verdict,gap,gap_method")
    cells = lines[1].split(",")
    assert cells[6] == ""              # no exponent-12 bound by default
    assert cells[7] in ("PASS", "FAIL")
    assert float(cells[8]) == rep.gap