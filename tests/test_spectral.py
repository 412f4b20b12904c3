import collections
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from ctmcgap import _symeig, generator, spectral
from ctmcgap import (GeneratorMatrix, InvalidInputError,
                     NumericalFailureError, ObservableFunction,
                     additive_symmetrization, bd_closed_form_gap,
                     bd_lower_bound, build_birth_death, dirichlet_form,
                     drift_certificate_check, rayleigh_quotient,
                     spectral_gap, stationary_distribution, symmetrized_form,
                     verify)
from ctmcgap.cli import main
from ctmcgap.skeleton import skeleton_gap_check, transition_matrix_exp
from ctmcgap.truncation import CountableModel, gap_convergence_sweep
from conftest import (THREE_STATE_GAP, THREE_STATE_PI, random_birth_death,
                      ring_with_chords, scipy_csr)


# ------------------------------------------------------------------------ gap

def test_gap_three_state(three_state):
    rep = spectral_gap(three_state, THREE_STATE_PI)
    assert abs(rep.gap - THREE_STATE_GAP) < 1e-10
    assert rep.method == "dense"
    assert rep.residual < 1e-12
    assert rep.trivial_residual < 1e-12
    assert not rep.degenerate


def test_gap_two_state(two_state):
    # rates b=2 up, a=1 down: gap is a + b
    rep = spectral_gap(two_state)
    assert abs(rep.gap - 3.0) < 1e-12


def test_gap_solves_stationary_when_omitted(three_state):
    assert abs(spectral_gap(three_state).gap - THREE_STATE_GAP) < 1e-10


def test_gap_single_state_degenerate():
    rep = spectral_gap(GeneratorMatrix(np.zeros((1, 1))))
    assert rep.degenerate and math.isinf(rep.gap)


def test_gap_dense_vs_lanczos():
    # same answer through two independent solver routes
    Q = build_birth_death([2.0] * 60, [1.0] * 60)
    pi = stationary_distribution(Q)
    dense = spectral_gap(Q, pi, method="dense")
    lanczos = spectral_gap(Q, pi, method="lanczos")
    assert lanczos.method == "lanczos" and lanczos.iterations > 0
    assert abs(dense.gap - lanczos.gap) < 1e-12


@settings(max_examples=12, deadline=None)
@given(st.integers(20, 600), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_lanczos_matches_dense_on_general_chains(n, seed, largest):
    # the CTMC gap is the least eigenvalue of -S off sqrt(pi); a skeleton's
    # lambda_P is the largest of its kernel's T off sqrt(pi)
    Q = GeneratorMatrix(ring_with_chords(n, False, seed))
    pi = stationary_distribution(Q)
    if largest:
        P = transition_matrix_exp(Q, 0.05)
        A = generator._symmetric_part(P.matrix, pi.log_probs)
    else:
        A, _ = symmetrized_form(Q, pi)
        np.negative(A.data, out=A.data)
    sq = np.sqrt(pi.probs)
    dense, _ = _symeig.deflated_extremal(A, sq, largest, budget=0)
    lanczos, used = _symeig.deflated_extremal(A, sq, largest)
    assert used == "lanczos" and lanczos.iterations > 0
    assert abs(lanczos.value - dense.value) <= 1e-12 * abs(dense.value)


def test_lanczos_out_of_restarts_is_a_numerical_failure(monkeypatch, capsys):
    # one restart of the basis is far too few for this chain
    monkeypatch.setattr(_symeig, "_MIN_RESTARTS", 1)
    monkeypatch.setattr(_symeig, "_RESTARTS_PER_STATE", 0)
    Q = build_birth_death([2.0] * 100, [1.0] * 100)
    with pytest.raises(NumericalFailureError,
                       match="did not converge within 1 restarts"):
        spectral_gap(Q, method="lanczos")
    assert main(["gap", "--bd", "2", "1", "100", "--method", "lanczos"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "did not converge" in err


def test_start_vectors_are_splitmix64_without_warnings():
    # the published SplitMix64 stream from state 0, whose first word is
    # 0xE220A8397B1DCDAF, as doubles in (0, 1) from its top 53 bits; the
    # uint64 arrays wrap silently, where a scalar would warn
    words = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = _symeig._counter_hash(np.arange(3, dtype=np.uint64), 0)
        assert _symeig._counter_hash(np.zeros(1, dtype=np.uint64),
                                     2 ** 64 - 1).size == 1
    assert u.tolist() == [((w >> 11) + 0.5) * 2.0 ** -53 for w in words]
    assert np.all((u > 0) & (u < 1))


def test_gap_matches_symmetrized_chain(three_state):
    Qbar = additive_symmetrization(three_state, THREE_STATE_PI)
    assert abs(spectral_gap(three_state, THREE_STATE_PI).gap
               - spectral_gap(Qbar, THREE_STATE_PI).gap) < 1e-10


def test_gap_eigenvector_contract(three_state):
    rep = spectral_gap(three_state, THREE_STATE_PI)
    f = rep.eigenvector
    assert abs(THREE_STATE_PI @ f) < 1e-12             # centered
    assert abs(THREE_STATE_PI @ f ** 2 - 1.0) < 1e-12  # unit pi-norm
    assert abs(rayleigh_quotient(three_state, THREE_STATE_PI, f)
               - rep.gap) < 1e-10


@settings(max_examples=15, deadline=None)
@given(st.integers(3, 60), st.integers(0, 2 ** 32 - 1))
def test_gap_is_the_least_rayleigh_quotient(n, seed):
    # the gap bounds the quotient of every nonconstant f from below and is
    # met at the reported eigenvector
    Q = GeneratorMatrix(ring_with_chords(n, False, seed))
    pi = stationary_distribution(Q)
    rep = spectral_gap(Q, pi)
    f = np.random.default_rng(seed).standard_normal(n)
    assert rayleigh_quotient(Q, pi, f) >= rep.gap * (1.0 - 1e-10)
    assert abs(rayleigh_quotient(Q, pi, rep.eigenvector)
               - rep.gap) <= 1e-10 * rep.gap


def _gap_budget(Q, pi):
    """The Lanczos budget generator's cost rule gives the gap of `Q`."""
    A, _ = symmetrized_form(Q, pi)
    return generator._dense_cost_in_steps("eigh", Q.n, A.nnz)


def test_each_gap_route_holds_to_its_boundary(monkeypatch):
    # spectral_gap alone picks the solver, by generator's cost rule: a
    # general chain whose Lanczos budget is under the floor takes the dense
    # spectrum at once; the first size past the floor runs Lanczos on a
    # budget too small for it and hands off to the dense spectrum, which
    # reports exactly as the dense route; a larger chain's Lanczos converges
    # within its budget.  Each agrees with the other solver.  A birth-death
    # chain of any size takes the bidiagonal solver
    budgets = []
    lanczos = _symeig._lanczos

    def recorded(A, v0, largest, budget=None):
        budgets.append(budget)
        return lanczos(A, v0, largest, budget)

    monkeypatch.setattr(_symeig, "_lanczos", recorded)
    chains = []
    for n in range(20, 200):
        Q = GeneratorMatrix(ring_with_chords(n, False, n))
        pi = stationary_distribution(Q)
        chains.append((Q, pi, _gap_budget(Q, pi)))
        if chains[-1][2]:
            break
    (below, pi_below, zero), (at, pi_at, budget) = chains[-2:]
    assert zero == 0 and budget >= generator._HANDOFF_FLOOR
    for Q, pi, used in ((below, pi_below, []), (at, pi_at, [budget])):
        budgets.clear()
        rep = spectral_gap(Q, pi)
        assert budgets == used
        dense = spectral_gap(Q, pi, method="dense")
        assert (rep.method, rep.iterations) == ("dense", 0)
        assert (rep.gap, rep.residual) == (dense.gap, dense.residual)
        assert np.array_equal(rep.eigenvalues, dense.eigenvalues)
        other = spectral_gap(Q, pi, method="lanczos")
        assert abs(other.gap - rep.gap) <= 1e-12 * rep.gap
    Q = GeneratorMatrix(ring_with_chords(400, False, 400))
    pi = stationary_distribution(Q)
    budgets.clear()
    rep = spectral_gap(Q, pi)
    assert rep.method == "lanczos"
    assert budgets == [_gap_budget(Q, pi)] and 0 < rep.iterations <= budgets[0]
    dense = spectral_gap(Q, pi, method="dense")
    assert abs(rep.gap - dense.gap) <= 1e-12 * dense.gap
    Q = build_birth_death([2.0] * 1000, [1.0] * 1000)
    assert spectral_gap(Q).method == "tridiagonal"


@settings(max_examples=15, deadline=None)
@given(st.integers(4, 600), st.integers(0, 2 ** 32 - 1))
def test_auto_routes_match_the_dense_spectrum(n, seed):
    # whichever way the cost rule routes a general chain (dense at once,
    # Lanczos within its budget, or the dense spectrum after it), the gap
    # and each skeleton's lambda_P are the dense spectrum's
    Q = GeneratorMatrix(ring_with_chords(n, False, seed))
    pi = stationary_distribution(Q)
    gap = spectral_gap(Q, pi).gap
    dense = spectral_gap(Q, pi, method="dense").gap
    assert abs(gap - dense) <= 1e-12 * dense
    table = skeleton_gap_check(Q, pi)
    for row, P in zip(table.rows, transition_matrix_exp(Q, [0.1, 0.05,
                                                            0.01])):
        T = generator._symmetric_part(P.matrix, pi.log_probs)
        ref, _ = _symeig.deflated_extremal(T, np.sqrt(pi.probs), True,
                                           budget=0)
        assert abs(row.lambda_P - ref.value) <= 1e-12 * abs(ref.value)


def test_a_slow_lanczos_hands_off_to_the_dense_spectrum():
    # relabelled, the (1.1, 1) chain on 400 states needs some 780 products
    # of Lanczos, past the budget of about 450 that its dense spectrum is
    # worth: the gap comes from the dense spectrum and says so
    N = 399
    order = np.random.default_rng(0).permutation(N + 1)
    Q = _permuted(build_birth_death(np.full(N, 1.1), np.ones(N)), order)
    rep = spectral_gap(Q)
    assert (rep.method, rep.iterations) == ("dense", 0)
    assert rep.eigenvalues is not None
    ref = bd_closed_form_gap(1.1, 1.0, N)
    assert abs(rep.gap - ref) <= 1e-10 * ref
    slow = spectral_gap(Q, method="lanczos")
    assert slow.iterations > _gap_budget(Q, stationary_distribution(Q))


def test_the_dense_cap_is_one_error_wherever_it_is_met():
    # to_dense alone enforces it, before any n x n array exists
    n = generator.DENSE_SOLVE_CUTOFF + 1
    Q = build_birth_death([2.0] * (n - 1), [1.0] * (n - 1))
    messages = set()
    for refused in (Q.to_dense, lambda: transition_matrix_exp(Q, 0.1),
                    lambda: spectral_gap(Q, method="dense")):
        with pytest.raises(InvalidInputError) as exc:
            refused()
        messages.add(str(exc.value))
    assert messages == {f"{n} states exceed the dense cap of "
                        f"{generator.DENSE_SOLVE_CUTOFF}"}


_PATH3 = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])


_PATH4 = np.diag([1.0, 2.0, 2.0, 1.0]) - np.eye(4, k=1) - np.eye(4, k=-1)
_WALK3 = _symeig.BirthDeathForm(np.ones(2), np.ones(2))  # _PATH3 as rates


@pytest.mark.parametrize("A, largest, budget, route", [
    (_WALK3, True, None, "gives only its smallest eigenvalue"),
    (_WALK3, False, 0, "tridiagonal"),
    (_PATH3, False, None, "dense"),
    (_PATH4, False, 0, "dense"),
    (_PATH4, False, None, "lanczos"),
], ids=["birth-death-largest", "birth-death", "array-below-4-states",
        "array-budget-0", "array-no-budget"])
def test_deflated_extremal_routes_by_operand_and_budget(A, largest, budget,
                                                        route):
    # -S of the symmetric walk on n states: spectrum 2 - 2 cos(k pi / n),
    # null vector the uniform one.  A BirthDeathForm takes the bidiagonal
    # solver whatever the budget; an array takes the dense spectrum at a
    # budget of 0 or on fewer than 4 states, and Lanczos otherwise
    n = (A.diag if isinstance(A, _symeig.BirthDeathForm) else A).shape[0]
    v0 = np.full(n, n ** -0.5)
    if largest:
        with pytest.raises(ValueError, match=route):
            _symeig.deflated_extremal(A, v0, largest, budget)
        return
    result, used = _symeig.deflated_extremal(A, v0, largest, budget)
    assert used == route
    assert abs(result.value - (2 - 2 * math.cos(math.pi / n))) < 1e-14


def test_an_unknown_gap_method_is_refused_before_pi_is_solved(monkeypatch,
                                                              three_state):
    # it used to solve pi and then raise a bare ValueError from the solver
    def unreachable(*args, **kwargs):
        raise AssertionError("the method should be refused before any solve")

    monkeypatch.setattr(spectral, "stationary_distribution", unreachable)
    monkeypatch.setattr(generator, "stationary_distribution", unreachable)
    for method in ("foo", "tridiagonal", None):
        with pytest.raises(InvalidInputError, match="unknown gap method"):
            spectral_gap(three_state, method=method)


def test_gap_dense_spectrum_contains_zero_mode(three_state):
    rep = spectral_gap(three_state, THREE_STATE_PI, method="dense")
    assert rep.eigenvalues is not None
    assert np.min(np.abs(rep.eigenvalues)) < 1e-12


def test_gap_rejects_wrong_pi(three_state):
    with pytest.raises(NumericalFailureError, match="stationary"):
        spectral_gap(three_state, np.array([0.5, 0.25, 0.25]))


@pytest.fixture
def stationarity_checks(monkeypatch):
    """Calls of `generator._check_stationary` per chain, counted through
    every module's binding of it (the imports above load them all)."""
    original = generator._check_stationary
    calls = collections.Counter()

    def counted(p, Q, what):
        calls[Q] += 1
        return original(p, Q, what)

    for name, module in list(sys.modules.items()):
        if name.startswith("ctmcgap.") \
                and getattr(module, "_check_stationary", None) is original:
            monkeypatch.setattr(module, "_check_stationary", counted)
    return calls


def test_each_command_checks_pi_once_per_chain(stationarity_checks,
                                               three_state):
    # verify and skeleton solve pi, and the sweep collapses each chain
    # with its law; spectral_gap and symmetrized_form take that law as
    # checked
    g = ObservableFunction([0.0, 0.0, 1.0], 0.0, 1.0)
    general = GeneratorMatrix(ring_with_chords(40, False, 3))
    general_pi = stationary_distribution(general).probs.copy()
    runs = [
        (lambda: verify(three_state, g, t=5.0, eps_grid=[0.1], reps=20,
                        seed=0), 1),
        (lambda: skeleton_gap_check(three_state, deltas=[0.1]), 1),
        (lambda: gap_convergence_sweep(CountableModel.birth_death(2.0, 1.0),
                                       [5, 10, 20]), 3),
        # the model's own pi, then one law per collapsed chain
        (lambda: gap_convergence_sweep(CountableModel.from_generator(
            general, stationary_distribution(general)), [10, 20]), 3),
        # a law passed in as an array is checked once, then recorded
        (lambda: spectral_gap(general, general_pi), 1),
        (lambda: additive_symmetrization(
            general, stationary_distribution(general)), 1),
        (lambda: skeleton_gap_check(general, pi=general_pi,
                                    deltas=[0.1]), 1),
    ]
    for run, chains in runs:
        stationarity_checks.clear()
        run()
        assert list(stationarity_checks.values()) == [1] * chains


def test_gap_checks_a_law_solved_for_another_chain():
    # the law is tied to the chain it was checked for, not to its size
    for make in (lambda up: build_birth_death([2.0] * 30, [up] * 30),
                 lambda up: GeneratorMatrix(ring_with_chords(30, False,
                                                             int(up)))):
        Q1, Q2 = make(1.0), make(3.0)
        pi1 = stationary_distribution(Q1)
        stationary_distribution(Q2)
        with pytest.raises(NumericalFailureError, match="stationary"):
            spectral_gap(Q2, pi1)


def test_gap_rejects_inaccurate_eigenpair(perturbed_eigensolver,
                                          three_state):
    with pytest.raises(NumericalFailureError, match="residual"):
        spectral_gap(three_state, THREE_STATE_PI)


def test_symmetrized_form_is_symmetric(three_state):
    S, sq = symmetrized_form(three_state, THREE_STATE_PI)
    assert isinstance(S, generator._CSR) and isinstance(sq, np.ndarray)
    dense = S.to_dense()
    assert np.max(np.abs(dense - dense.T)) <= 1e-12 * three_state.max_rate()
    assert np.linalg.norm(S @ sq) < 1e-12  # sqrt(pi) spans the zero mode
    assert S.nnz == np.count_nonzero(dense)
    assert not hasattr(S, "matrix") and not hasattr(three_state, "matrix")


def test_gap_report_json(three_state):
    rep = spectral_gap(three_state)
    d = rep.to_dict()
    assert set(d) == {"gap", "method", "residual", "iterations"}
    assert isinstance(d["gap"], float)


# ------------------------------------------------- birth-death (tridiagonal)

@pytest.mark.parametrize("down, up", [(2.0, 1.0), (1.1, 1.0)])
@pytest.mark.parametrize("N", [1000, 1500, 2001, 3000, 10 ** 5, 10 ** 6])
def test_bd_gap_matches_closed_form_at_scale(N, down, up):
    # pi underflows at 1 500 states for (2, 1), and above 2 000 states the
    # stationary solve used to stop early and give a wrong gap
    rep = spectral_gap(build_birth_death(np.full(N, down), np.full(N, up)))
    ref = bd_closed_form_gap(down, up, N)
    assert abs(rep.gap - ref) <= 1e-10 * ref
    assert rep.method == "tridiagonal" and rep.iterations == 0


def test_bd_gap_needs_no_elimination(monkeypatch):
    solvers = []

    def recording(Q):
        pi = stationary_distribution(Q)
        solvers.append(pi.solver)
        return pi

    monkeypatch.setattr(spectral, "stationary_distribution", recording)
    rep = spectral_gap(build_birth_death([2.0] * 20, [1.0] * 20))
    assert abs(rep.gap - bd_closed_form_gap(2.0, 1.0, 20)) < 1e-12
    assert solvers == ["product_form"]


def _permuted(Q, order):
    # new state k is old state order[k]
    return GeneratorMatrix(scipy_csr(Q)[order][:, order])


@settings(max_examples=20, deadline=None)
@given(st.one_of(st.integers(1, 6), st.integers(496, 503)),
       st.integers(0, 2 ** 32 - 1))
def test_bd_tridiagonal_gap_matches_general_paths(N, seed):
    # sizes straddle the 4-state Lanczos floor and the 500-state dense
    # cutoff.  The general path solves pi in linear scale, so the rates keep
    # every pi entry above 1e-300; their drift toward 0 keeps the gap away
    # from 0, where solvers with absolute error agree to relative 1e-10
    rng = np.random.default_rng(seed)
    Q = build_birth_death(rng.uniform(1.5, 2.0, N), rng.uniform(0.6, 1.0, N))
    rep = spectral_gap(Q)
    assert rep.method == "tridiagonal"
    dense = spectral_gap(Q, method="dense")
    assert dense.method == "dense"
    assert abs(rep.gap - dense.gap) <= 1e-10 * dense.gap
    order = rng.permutation(N + 1)
    permuted = _permuted(Q, order)
    assume(not np.all(np.abs(np.diff(order)) == 1))  # still tridiagonal
    other = spectral_gap(permuted)
    assert other.method in ("dense", "lanczos")
    assert abs(rep.gap - other.gap) <= 1e-9 * other.gap


@settings(max_examples=10, deadline=None)
@given(st.one_of(st.integers(3, 40), st.integers(400, 440)),
       st.integers(0, 2 ** 32 - 1))
def test_gap_invariant_under_relabelling(n, seed):
    # sizes on both sides of the floor of the pi solve's cost rule: below
    # it elimination runs at once, above it the iteration runs within its
    # budget, or elimination after it; a chain and its relabelling have
    # the same budget and one gap
    Q = GeneratorMatrix(ring_with_chords(n, False, seed))
    other = _permuted(Q, np.random.default_rng(seed).permutation(n))
    budget = generator._dense_cost_in_steps("elimination", n, 2 * Q.nnz)
    assert budget == generator._dense_cost_in_steps("elimination", n,
                                                    2 * other.nnz)
    if n <= 20 or n >= 400:
        assert (budget == 0) == (n <= 20)
    pi, pi_other = stationary_distribution(Q), stationary_distribution(other)
    for law in (pi, pi_other):
        if law.solver == "iteration":
            assert 0 < law.iterations <= budget
        else:
            assert (law.solver, law.iterations) == ("elimination", 0)
    gap = spectral_gap(Q, pi).gap
    assert abs(spectral_gap(other, pi_other).gap - gap) <= 1e-12 * gap


def test_permuted_bd_gap_by_elimination_or_refusal():
    # relabelled, a birth-death chain takes the general pi solve.  Power
    # iteration, used above 2 000 states until the elimination cutoff rose
    # to 4 096, returned a gap of 1.3e-4 for (1.1, 1) and 2.1e-3 for
    # (2, 1) at this size.  The pi of (2, 1) leaves the double range in
    # linear scale, where the only right answer is a numerical failure
    N = 2500
    order = np.random.default_rng(0).permutation(N + 1)

    def permuted(down):
        return _permuted(build_birth_death(np.full(N, down), np.ones(N)),
                         order)

    ref = bd_closed_form_gap(1.1, 1.0, N)
    assert abs(spectral_gap(permuted(1.1)).gap - ref) <= 1e-10 * ref
    with pytest.raises(NumericalFailureError):
        spectral_gap(permuted(2.0))


@pytest.mark.parametrize("N", [1000, 10 ** 5, 10 ** 6])
def test_symmetric_walk_gap_matches_closed_form(N):
    # the gap 4 sin^2(pi / (2N + 2)), 9.9e-12 at 10^6 states, sits far
    # below eps times the unit rates: the edge-chain test resolves it
    rep = spectral_gap(build_birth_death(np.ones(N), np.ones(N)))
    ref = bd_closed_form_gap(1.0, 1.0, N)
    assert abs(rep.gap - ref) <= 1e-10 * ref
    assert abs(ref - 4 * math.sin(math.pi / (2 * N + 2)) ** 2) <= 1e-15 * ref


def test_three_well_gap_takes_the_edge_bisection(monkeypatch):
    # two outer wells drain into a deeper middle one at nearly one rate:
    # the gap, 2.5e-27 of the rates, and the next eigenvalue differ by
    # 2.4e-4 of themselves, so only a vector from a bracket resolved
    # relative to the gap converges; 40-digit reference from mpmath
    i = np.arange(61)
    V = -30 * np.cos(4 * np.pi * i / 60) - 9 * np.exp(-((i - 30) / 4) ** 2)
    shifts = []
    edges = _symeig._reduce_edges
    monkeypatch.setattr(_symeig, "_reduce_edges",
                        lambda x, *args: shifts.append(x) or edges(x, *args))
    rep = spectral_gap(build_birth_death(np.exp(V[1:] - V[:-1]), np.ones(60)))
    ref = 2.4984595533188913332e-27
    assert abs(rep.gap - ref) <= 1e-10 * ref
    assert max(shifts) > 0


def _double_well(h, N=1000):
    # down rates e^h on the left half, e^-h on the right: pi piles up at
    # both ends, and a barrier of about e^(-h N / 2) parts them
    x = np.linspace(-1, 1, N)
    return build_birth_death(np.exp(np.where(x < 0, h, -h)), np.ones(N))


def test_deep_double_well_gap():
    # the gap, 4e-218, and the eigenfunction's differences, up to e^750,
    # leave no room in double precision but in logs; reference from a
    # 320-digit Sturm-count bisection
    rep = spectral_gap(_double_well(1.0))
    ref = 4.162373543768044101381e-218
    assert abs(rep.gap - ref) <= 1e-10 * ref


def test_gap_below_the_double_range_is_refused():
    # about e^(-750): no double holds it, so no number
    with pytest.raises(NumericalFailureError):
        spectral_gap(_double_well(1.5))


def _rounding_of_rayleigh_quotient(Q, p, f):
    # how far the Rayleigh quotient of f can move when each entry of f is
    # rounded to double precision: on a plateau of f the true differences
    # lie below the rounding of its entries
    c = f - p @ f
    rates = Q.diagonal(1)
    d = np.abs(np.diff(c))
    e = np.finfo(float).eps * (np.abs(c[:-1]) + np.abs(c[1:]))
    return 4 * float(np.sum(p[:-1] * rates * (2 * d + e) * e) / (p @ c ** 2))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([*range(1, 9), 60, 499, 500, 501, 502]),
       st.integers(0, 2 ** 32 - 1))
def test_bidiagonal_gap_matches_lapack(N, seed):
    # rates log-uniform in [1e-3, 1e3]; LAPACK on -S is the reference, to
    # within its own absolute accuracy.  Gaps far below eps times the
    # largest rate are common here, and none is refused
    rng = np.random.default_rng(seed)
    down, up = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), (2, N)))
    Q = build_birth_death(down, up)
    exits = np.append(up, 0.0) + np.insert(down, 0, 0.0)
    ref = eigh_tridiagonal(exits, -np.sqrt(up * down), eigvals_only=True,
                           select="i", select_range=(1, 1))[0]
    rep = spectral_gap(Q)
    assert rep.method == "tridiagonal" and rep.iterations == 0
    assert abs(rep.gap - ref) <= 1e-12 * exits.max()
    if N == 1:
        assert rep.gap == up[0] + down[0]
    if rep.eigenvector is not None:
        p = stationary_distribution(Q).probs
        f = rep.eigenvector
        assert abs(rayleigh_quotient(Q, p, f) - rep.gap) <= (
            1e-10 * rep.gap + _rounding_of_rayleigh_quotient(Q, p, f))


def test_bd_gap_refuses_an_uncertified_lower_end(monkeypatch, capsys):
    # positive-definiteness tests that never pass leave no certified lower
    # end: exit 3, and no number
    monkeypatch.setattr(_symeig, "_reduce", lambda *args: None)
    monkeypatch.setattr(_symeig, "_reduce_edges", lambda *args: None)
    assert main(["gap", "--bd", "2", "1", "30"]) == 3
    out = capsys.readouterr()
    assert out.out == "" and "positive-definiteness" in out.err


def test_bd_gap_refuses_a_rayleigh_quotient_off_the_bracket(monkeypatch,
                                                           capsys):
    # a solve that returns its right-hand side gives a Rayleigh quotient
    # far above the bracket; nothing certifies it
    monkeypatch.setattr(_symeig, "_solve", lambda levels, last, y: y)
    assert main(["gap", "--bd", "2", "1", "30"]) == 3
    out = capsys.readouterr()
    assert out.out == "" and "Rayleigh quotient" in out.err


def test_small_bd_gap_does_not_rest_on_the_bisection(monkeypatch):
    # tests that pass up to twice the gap leave the bisection at twice the
    # gap; a gap below 1e-4 of the rates comes from the unshifted solves,
    # bracketed by Collatz-Wielandt, and does not move
    for name in ("_reduce", "_reduce_edges"):
        test = getattr(_symeig, name)
        monkeypatch.setattr(_symeig, name,
                            lambda x, *args, test=test: test(x / 2, *args))
    rep = spectral_gap(build_birth_death(np.ones(1000), np.ones(1000)))
    ref = bd_closed_form_gap(1.0, 1.0, 1000)
    assert abs(rep.gap - ref) <= 1e-10 * ref


def test_small_bd_gap_refuses_an_unbracketed_value(monkeypatch, capsys):
    # with no unshifted solve, nothing bounds a small gap from below
    monkeypatch.setattr(_symeig, "_POLISH_STEPS", 0)
    assert main(["gap", "--bd", "1", "1", "1000"]) == 3
    out = capsys.readouterr()
    assert out.out == "" and "Collatz-Wielandt" in out.err


@pytest.mark.parametrize("value, bound, shown", [
    # the seed-4419 chain of test_bidiagonal_gap_matches_lapack: finite,
    # 1.06e-9 apart, so the refusal shows the digits where they differ
    (1.0384527128e-28, 1.0384527117e-28,
     "bound 1.038452712e-28 is not within 1e-10 of its Rayleigh quotient "
     "1.038452713e-28"),
    (0.5, math.nan, "bound nan is not within 1e-10 of its Rayleigh "
     "quotient 5.000000000e-01 (nan: the Perron vector left the double "
     "range)"),
], ids=["finite", "nan"])
def test_small_bd_gap_refusal_names_nan_only_when_there(monkeypatch, value,
                                                        bound, shown):
    monkeypatch.setattr(_symeig, "_polish",
                        lambda levels, last, w: (value, bound, w))
    with pytest.raises(NumericalFailureError) as info:
        spectral_gap(build_birth_death(np.ones(1000), np.ones(1000)))
    message = str(info.value)
    assert shown in message
    assert ("nan" in message) == math.isnan(bound)


def test_bd_gap_rejects_inaccurate_eigenpair(perturbed_tridiagonal_solver):
    with pytest.raises(NumericalFailureError, match="residual"):
        spectral_gap(build_birth_death([2.0] * 30, [1.0] * 30))


def test_bd_gap_rejects_a_zero_eigenvector(monkeypatch):
    # a zero vector has residual 0; an eigenvector that overflowed on its
    # way to unit length used to come out as one
    solve = _symeig._tridiagonal
    monkeypatch.setattr(_symeig, "_tridiagonal",
                        lambda A: (solve(A)[0], np.zeros(A.up.size + 1)))
    with pytest.raises(NumericalFailureError, match="unit vector"):
        spectral_gap(build_birth_death([2.0] * 30, [1.0] * 30))


def test_bd_gap_rejects_wrong_pi():
    Q = build_birth_death([2.0] * 30, [1.0] * 30)
    with pytest.raises(NumericalFailureError, match="stationary"):
        spectral_gap(Q, np.full(31, 1.0 / 31))
    pi = stationary_distribution(Q).probs.copy()
    pi[5] = 0.0
    with pytest.raises(InvalidInputError, match="positive"):
        spectral_gap(Q, pi)


def test_bd_gap_rejects_non_conservative_diagonal():
    # the product form is stationary only when rows sum to zero
    Q = GeneratorMatrix.from_rates(3, [(0, 1, 1.0), (1, 0, 2.0), (1, 2, 1.0),
                                       (2, 1, 2.0), (2, 2, -3.0)])
    with pytest.raises(NumericalFailureError, match="stationary"):
        spectral_gap(Q)


@pytest.mark.parametrize("n", [3, 2200])
def test_bd_gap_zero_rate_is_reducible(n):
    # no way down from the top state: a tridiagonal but reducible chain
    rates = [(i, i + 1, 1.0) for i in range(n - 1)]
    rates += [(i, i - 1, 2.0) for i in range(1, n - 1)]
    Q = GeneratorMatrix.from_rates(n, rates)
    with pytest.raises(InvalidInputError, match="reducible"):
        spectral_gap(Q)
    with pytest.raises(InvalidInputError, match="reducible"):
        stationary_distribution(Q)


def _two_rings(n):
    # two disjoint directed rings of n states each
    rates = [(i, (i + 1) % n, 1.0) for i in range(n)]
    rates += [(n + i, n + (i + 1) % n, 2.0) for i in range(n)]
    return GeneratorMatrix.from_rates(2 * n, rates), None


def _split_birth_death(n):
    # two birth-death blocks of n states joined by a zero rate both ways;
    # any mixture of the block laws is a positive stationary pi
    Q = build_birth_death([2.0] * (2 * n - 1), [1.0] * (2 * n - 1))
    M = scipy_csr(Q).tolil()
    M[n - 1, n] = M[n, n - 1] = 0.0
    M.setdiag(0.0)
    M.setdiag(-np.asarray(M.sum(axis=1)).ravel())
    block = stationary_distribution(build_birth_death([2.0] * (n - 1),
                                                      [1.0] * (n - 1))).probs
    return GeneratorMatrix(M.tocsr()), np.concatenate([block, block]) / 2


@pytest.mark.parametrize("chain", [lambda: _two_rings(1100),
                                   lambda: _split_birth_death(5)],
                         ids=["two-rings", "split-birth-death"])
def test_reducible_chain_is_invalid_input(chain):
    # refused before any solver runs, given pi or not; the two-ring chain
    # used to get a gap of about 1e-16 and no error
    Q, pi = chain()
    if pi is not None:
        generator._check_stationary(pi, Q, "stationary")
    with pytest.raises(InvalidInputError, match="reducible"):
        stationary_distribution(Q)
    with pytest.raises(InvalidInputError, match="reducible"):
        spectral_gap(Q, pi)


def test_one_band_scan_per_gap_and_verify(monkeypatch):
    scans = []
    scan = generator._band_rates

    def counting(Q):
        scans.append(Q.n)
        return scan(Q)

    monkeypatch.setattr(generator, "_band_rates", counting)
    spectral_gap(build_birth_death([2.0] * 40, [1.0] * 40))
    assert scans == [41]
    verify(build_birth_death([2.0] * 10, [1.0] * 10),
           ObservableFunction(np.arange(11) / 10.0, 0.0, 1.0), t=1.0,
           eps_grid=[0.5], reps=10, seed=1)
    assert scans == [41, 11]


@settings(max_examples=12, deadline=None)
@given(st.one_of(st.integers(2, 6), st.integers(497, 503)),
       st.floats(-3.0, 3.0), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_gap_scales_with_the_rates(n, log_c, birth_death, seed):
    # sizes straddle the 4-state Lanczos floor and the 500-state dense
    # cutoff; a general chain is a ring plus random chords, so irreducible
    rng = np.random.default_rng(seed)
    if birth_death:
        Q = build_birth_death(rng.uniform(1.5, 2.0, n - 1),
                              rng.uniform(0.6, 1.0, n - 1))
    else:
        rates = {(i, (i + 1) % n): rng.uniform(0.5, 1.5) for i in range(n)}
        for i, j in rng.integers(0, n, size=(2 * n, 2)):
            if i != j:
                rates[int(i), int(j)] = rng.uniform(0.5, 1.5)
        Q = GeneratorMatrix.from_rates(n, [(i, j, v) for (i, j), v in
                                           rates.items()])
    c = 10.0 ** log_c
    gap = spectral_gap(Q).gap
    scaled = spectral_gap(GeneratorMatrix(c * scipy_csr(Q))).gap
    assert abs(scaled - c * gap) <= 1e-10 * c * gap


def test_bd_gap_eigenvector_contract():
    N = 200
    Q = build_birth_death([2.0] * N, [1.0] * N)
    pi = stationary_distribution(Q).probs
    rep = spectral_gap(Q)
    f = rep.eigenvector
    assert abs(pi @ f) < 1e-12
    assert abs(pi @ f ** 2 - 1.0) < 1e-10
    assert abs(rayleigh_quotient(Q, pi, f) - rep.gap) < 1e-10 * rep.gap


@pytest.mark.parametrize("down, up, finite", [(1.1, 1.0, True),
                                              (2.0, 1.0, False)])
def test_bd_gap_eigenvector_never_inf_or_nan(down, up, finite):
    # with (2, 1) on 3 000 states pi reaches 2^-3000, so 1/sqrt(pi) overflows
    rep = spectral_gap(build_birth_death([down] * 3000, [up] * 3000))
    if finite:
        assert np.all(np.isfinite(rep.eigenvector))
    else:
        assert rep.eigenvector is None


# ------------------------------------------------- Dirichlet form and Rayleigh

def test_dirichlet_constant_is_zero(three_state):
    assert dirichlet_form(three_state, THREE_STATE_PI, [5.0, 5.0, 5.0]) == 0.0


def test_dirichlet_two_state_closed_form(two_state):
    # f = (0, 1): energy is a*b/(a+b) = 2/3
    pi = stationary_distribution(two_state)
    assert abs(dirichlet_form(two_state, pi, [0.0, 1.0]) - 2.0 / 3.0) < 1e-15


@pytest.mark.parametrize("n", [1, 3])
def test_dirichlet_form_of_a_chain_without_rates_is_zero(n):
    Q = GeneratorMatrix(np.zeros((n, n)))
    assert dirichlet_form(Q, np.full(n, 1.0 / n), np.arange(n) ** 2) == 0.0


def test_dirichlet_unchanged_by_symmetrization(three_state):
    Qbar = additive_symmetrization(three_state, THREE_STATE_PI)
    rng = np.random.default_rng(7)
    for _ in range(20):
        f = rng.standard_normal(3)
        a = dirichlet_form(three_state, THREE_STATE_PI, f)
        b = dirichlet_form(Qbar, THREE_STATE_PI, f)
        assert abs(a - b) < 1e-12 * max(1.0, a)


def test_rayleigh_two_state_eigenfunction(two_state):
    pi = stationary_distribution(two_state)
    assert abs(rayleigh_quotient(two_state, pi, [0.0, 1.0]) - 3.0) < 1e-12


def test_rayleigh_indicator_three_state(three_state):
    # hand-computed: energy 2/3, variance 2/9
    q = rayleigh_quotient(three_state, THREE_STATE_PI, [1.0, 0.0, 0.0])
    assert abs(q - 3.0) < 1e-12


def test_rayleigh_variational_lower_bound(three_state):
    rng = np.random.default_rng(11)
    for _ in range(200):
        f = rng.standard_normal(3)
        q = rayleigh_quotient(three_state, THREE_STATE_PI, f)
        assert q >= THREE_STATE_GAP - 1e-10


def test_rayleigh_rejects_constant(three_state):
    with pytest.raises(InvalidInputError, match="constant"):
        rayleigh_quotient(three_state, THREE_STATE_PI, [2.0, 2.0, 2.0])
    # a pi with a negative entry used to be blamed on a constant f
    with pytest.raises(InvalidInputError, match="pi has negative entries"):
        rayleigh_quotient(three_state, [-1.0, 1.0, 1.0], [0.0, 0.0, 1.0])


# ------------------------------------------------------- birth-death formulas

def test_bd_closed_form_values():
    # N = 1: two states, unit rates, generator [[-1, 1], [1, -1]], gap 2
    assert abs(bd_closed_form_gap(1.0, 1.0, 1) - 2.0) < 1e-15
    # N = 3, symmetric rates: 2 - sqrt(2)
    assert abs(bd_closed_form_gap(1.0, 1.0, 3)
               - (2.0 - math.sqrt(2.0))) < 1e-15
    assert abs(bd_closed_form_gap(2.0, 1.0, math.inf)
               - (math.sqrt(2.0) - 1.0) ** 2) < 1e-15


def test_bd_closed_form_matches_eigensolver():
    for N in (1, 3, 10):
        Q = build_birth_death([2.0] * N, [1.0] * N)
        assert abs(spectral_gap(Q).gap
                   - bd_closed_form_gap(2.0, 1.0, N)) < 1e-10


def test_bd_closed_form_errors():
    with pytest.raises(InvalidInputError):
        bd_closed_form_gap(1.0, 2.0, math.inf)  # transient chain
    with pytest.raises(InvalidInputError):
        bd_closed_form_gap(-1.0, 2.0, 5)
    with pytest.raises(InvalidInputError):
        bd_closed_form_gap(1.0, 2.0, 0)
    # rates that are not positive and finite, NaN among them, whatever N
    for alpha, beta in ((math.nan, 1.0), (2.0, math.nan), (math.inf, 1.0),
                        (2.0, math.inf), (math.inf, math.inf)):
        for n_levels in (math.inf, 5):
            with pytest.raises(InvalidInputError, match="finite"):
                bd_closed_form_gap(alpha, beta, n_levels)


def test_bd_lower_bound_single_level():
    rep = bd_lower_bound([1.0], [1.0])
    assert rep.mu.tolist() == [1.0, 1.0]
    assert rep.delta == 1.0
    assert rep.lower_bound == 0.25  # true gap is 2


def test_bd_lower_bound_holds_on_ensemble():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        a, b = random_birth_death(rng)
        rep = bd_lower_bound(a, b)
        gap = spectral_gap(build_birth_death(a, b)).gap
        assert rep.lower_bound <= gap + 1e-9
        assert rep.mu[0] == 1.0 and np.all(rep.mu > 0) and rep.delta > 0


def test_bd_lower_bound_scale_covariance():
    # doubling all rates doubles the certified bound
    a = np.array([2.0, 1.5, 3.0])
    b = np.array([1.0, 0.5, 2.0])
    r1 = bd_lower_bound(a, b)
    r2 = bd_lower_bound(2 * a, 2 * b)
    assert abs(r2.lower_bound - 2 * r1.lower_bound) < 1e-12


def test_bd_lower_bound_past_the_double_range():
    # mu_k = 2**-k underflows past level 1 074 and the chain's own delta,
    # about 2**3000, overflows; its mirror's does not, and no step warns
    a, b = np.full(3000, 2.0), np.full(3000, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = bd_lower_bound(a, b)
    gap = spectral_gap(build_birth_death(a, b)).gap
    assert 0.0 <= rep.lower_bound <= gap
    # up 2, down 1 to the middle and up 1, down 2 beyond: mu peaks at
    # 2**1500, and delta overflows in both orientations
    a = np.repeat([1.0, 2.0], 1500)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = bd_lower_bound(a, a[::-1])
    assert rep.delta == np.inf and rep.lower_bound == 0.0


def test_bd_lower_bound_takes_the_better_orientation():
    # a chain and its mirror image have one gap and now one bound; (2, 1)
    # at 1 000 levels got 1.2e-302 from its own orientation, its mirror 0.125
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b = random_birth_death(rng)
        assert (bd_lower_bound(a, b).lower_bound
                == bd_lower_bound(b[::-1], a[::-1]).lower_bound)
    a, b = np.full(1000, 2.0), np.ones(1000)
    rep = bd_lower_bound(a, b)
    assert 0.1 <= rep.lower_bound <= bd_closed_form_gap(2.0, 1.0, 1000)
    assert rep.lower_bound == bd_lower_bound(b, a).lower_bound


# ------------------------------------------------------------ drift certificate

def test_drift_certificate_two_state(two_state):
    # V = (1, 4), excluded state 0: (QV)(1) = 1 - 4 = -3 = -0.75 * V(1)
    rep = drift_certificate_check(two_state, [1.0, 4.0], 0.75, 0)
    assert rep.certified
    assert rep.beta <= spectral_gap(two_state).gap + 1e-9


def test_drift_certificate_violations_reported(two_state):
    rep = drift_certificate_check(two_state, [1.0, 4.0], 2.0, 0)
    assert not rep.certified
    assert rep.violations and rep.violations[0][0] == 1


def test_drift_certificate_requires_v_at_least_one(two_state):
    with pytest.raises(InvalidInputError, match="V >= 1"):
        drift_certificate_check(two_state, [0.5, 4.0], 0.5, 0)
    # and its other guards; a NaN in V used to certify beta = 5, above the
    # gap of 3
    # beta = inf was taken, and reported a violation of inf
    for V, beta, j, msg in (([1.0, math.nan], 5.0, 0, "V must be finite"),
                            ([1.0, 4.0], 0.0, 0, "beta must be positive"),
                            ([1.0, 4.0], math.inf, 0,
                             "beta must be positive and finite"),
                            ([1.0, 4.0], math.nan, 0, "beta"),
                            ([1.0, 4.0], 0.5, 2, "excluded state 2")):
        with pytest.raises(InvalidInputError, match=msg):
            drift_certificate_check(two_state, V, beta, j)


def test_drift_certificate_geometric_test_function():
    # downward-drift chain: every death rate beats every birth rate, so
    # V = z^i with modest z > 1 satisfies the drift inequality off state 0
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 20))
        b = rng.uniform(0.2, 1.0, size=n)
        a = float(np.max(b)) * rng.uniform(1.5, 4.0, size=n)
        Q = build_birth_death(a, b)
        z = math.sqrt(1.5)
        V = z ** np.arange(n + 1)
        drift = scipy_csr(Q) @ V
        beta = min(-drift[i] / V[i] for i in range(1, n + 1))
        assert beta > 0
        rep = drift_certificate_check(Q, V, beta, 0)
        assert rep.certified
        assert beta <= spectral_gap(Q).gap + 1e-9
