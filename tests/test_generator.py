import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctmcgap import generator
from ctmcgap import (CountableModel, GeneratorMatrix, InvalidInputError,
                     NumericalFailureError, ObservableFunction,
                     StationaryDistribution, additive_symmetrization,
                     bd_closed_form_gap, build_birth_death,
                     clopper_pearson_upper, collapse, collapse_function,
                     density_pnorm, dirichlet_form, drift_certificate_check,
                     dtmc_hoeffding_bound, dtmc_spectral_gap,
                     gap_convergence_sweep, load_model, load_observable,
                     parse_model, parse_observable, rayleigh_quotient,
                     sample_path, skeleton_gap_check, spectral_gap,
                     stationary_distribution, substream, symmetrized_form,
                     tail_probability_mc, transition_matrix_exp,
                     validate_generator, verify)
from conftest import (THREE_STATE_DUAL, THREE_STATE_PI, THREE_STATE_SYM,
                      random_birth_death, ring_with_chords, scipy_csr)


# ---------------------------------------------------------------- construction

def test_from_rates_recomputes_diagonal(three_state):
    Q = three_state.to_dense()
    assert np.allclose(Q.sum(axis=1), 0.0, atol=0.0)
    assert Q[0, 0] == -2.0 and Q[1, 1] == -3.0 and Q[2, 2] == -1.0


def test_from_rates_keeps_explicit_diagonal():
    Q = GeneratorMatrix.from_rates(2, [(0, 1, 1.0), (1, 0, 1.0), (0, 0, 0.5)])
    assert Q.to_dense()[0, 0] == 0.5  # deliberately defective, kept as given


def test_from_rates_rejects_duplicates():
    with pytest.raises(InvalidInputError, match="duplicate"):
        GeneratorMatrix.from_rates(2, [(0, 1, 1.0), (0, 1, 2.0), (1, 0, 1.0)])


def test_from_rates_rejects_out_of_range():
    with pytest.raises(InvalidInputError, match="out of range"):
        GeneratorMatrix.from_rates(2, [(0, 2, 1.0)])
    with pytest.raises(InvalidInputError, match="n must be"):
        GeneratorMatrix.from_rates(0, [])


@pytest.mark.parametrize("rates, msg", [
    ([(0, 1, 1.0), (1.9, 0, 1.0)], r"rates\[1\] index \(1.9, 0\) not an integer"),
    ([(0.5, 1, 1.0)], r"rates\[0\] index \(0.5, 1\) not an integer"),
    ([(0, 1, 1.0), (float("nan"), 0, 1.0)], r"rates\[1\] .* not an integer"),
    ([(0, 1, 1.0), (1, float("inf"), 1.0)], r"rates\[1\] .* out of range"),
    ([(0, 1, 1.0), (-1, 0, 1.0)], r"rates\[1\] .* out of range"),
    ([(0, 1, 1.0), (1, 0, float("inf"))], r"rates\[1\] rate inf is not finite"),
    ([(0, 0, float("nan"))], r"rates\[0\] rate nan is not finite"),
    ([(1, 1, 1.0), (0, 1, 1.0), (1, 1, 2.0), (0, 1, 3.0)],
     r"duplicate rate entry for \(1, 1\) at rates\[2\]"),
    ([(0, 1, 1.0), (1,)], "triplets"),
    ([(0, 1, "x")], "triplets of numbers"),
])
def test_from_rates_names_the_first_bad_entry(rates, msg):
    with pytest.raises(InvalidInputError, match=msg):
        GeneratorMatrix.from_rates(2, rates)


def test_from_rates_accepts_integral_float_indices():
    Q = GeneratorMatrix.from_rates(2, [(0.0, 1.0, 2.0), (1.0, 0, 1.0)])
    assert np.array_equal(Q.to_dense(), [[-2.0, 2.0], [1.0, -1.0]])
    assert GeneratorMatrix.from_rates(3, []).nnz == 0


def test_labels_length_checked():
    with pytest.raises(InvalidInputError, match="labels"):
        GeneratorMatrix.from_rates(2, [(0, 1, 1.0), (1, 0, 1.0)],
                                   labels=["only-one"])


def test_nonsquare_rejected():
    with pytest.raises(InvalidInputError, match="square"):
        GeneratorMatrix(np.zeros((2, 3)))
    with pytest.raises(InvalidInputError, match="square"):
        GeneratorMatrix(sp.csr_matrix((2, 3)))
    with pytest.raises(InvalidInputError, match="at least one state"):
        GeneratorMatrix(np.zeros((0, 0)))
    with pytest.raises(InvalidInputError, match="finite"):
        GeneratorMatrix(np.array([[-1.0, 1.0], [np.inf, -1.0]]))


def test_exit_and_max_rate(three_state):
    assert np.array_equal(three_state.exit_rates(), [2.0, 3.0, 1.0])
    assert three_state.max_rate() == 3.0


# ------------------------------------------------------------------ validation

def test_validate_admissible(three_state):
    rep = validate_generator(three_state)
    assert rep.admissible
    assert rep.strongly_connected
    assert not rep.row_sum_defects and not rep.negative_entries


def test_validate_zero_matrix_not_connected():
    rep = validate_generator(GeneratorMatrix(np.zeros((2, 2))))
    assert not rep.strongly_connected
    assert not rep.admissible
    assert not rep.row_sum_defects  # rows do sum to zero


def test_validate_row_sum_defect():
    Q = GeneratorMatrix.from_rates(2, [(0, 1, 1.0), (1, 0, 1.0), (0, 0, -0.5)])
    rep = validate_generator(Q)
    assert rep.row_sum_defects == [(0, 0.5)]
    assert not rep.admissible


def test_validate_negative_rate():
    Q = GeneratorMatrix(np.array([[0.5, -0.5], [1.0, -1.0]]))
    rep = validate_generator(Q)
    assert (0, 1, -0.5) in rep.negative_entries
    assert not rep.admissible


def test_validate_lists_negative_rates_in_order():
    # -1e-13 at (1, 2) lies within the tolerance and is not listed
    Q = GeneratorMatrix(np.array([[1.5, -1.0, -0.5], [2.0, -2.0, -1e-13],
                                  [-3.0, 4.0, -1.0]]))
    rep = validate_generator(Q)
    assert rep.negative_entries == [(0, 1, -1.0), (0, 2, -0.5), (2, 0, -3.0)]
    assert all(type(i) is int and type(j) is int and type(v) is float
               for i, j, v in rep.negative_entries)
    assert rep.messages == ["negative rate -1.000e+00 at (0, 1)",
                            "negative rate -5.000e-01 at (0, 2)",
                            "negative rate -3.000e+00 at (2, 0)",
                            "transition graph is not strongly connected"]


def test_validate_admissible_at_large_rates():
    # rounding in the row sums grows with the rates; it is not a defect
    rng = np.random.default_rng(8)
    for _ in range(50):
        rates = [(i, j, float(rng.uniform(0.5e6, 1.5e6)))
                 for i in range(6) for j in range(6) if i != j]
        rep = validate_generator(GeneratorMatrix.from_rates(6, rates))
        assert rep.admissible, rep.messages


def test_validate_one_way_chain_not_connected():
    Q = GeneratorMatrix.from_rates(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 2, 0.0)])
    rep = validate_generator(Q)
    assert not rep.strongly_connected


def _reference_strongly_connected(matrix):
    # forward and reverse depth-first reachability from state 0, walking
    # only stored off-diagonal entries that are strictly positive
    n = matrix.shape[0]

    def reaches_all(mat):
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        stack = [0]
        while stack:
            u = stack.pop()
            for k in range(mat.indptr[u], mat.indptr[u + 1]):
                v = mat.indices[k]
                if v != u and mat.data[k] > 0 and not seen[v]:
                    seen[v] = True
                    stack.append(v)
        return bool(seen.all())

    return reaches_all(matrix) and reaches_all(matrix.T.tocsr())


# each off-diagonal slot is absent, an explicit zero, positive or negative
_PATTERNS = st.integers(1, 7).flatmap(lambda n: st.lists(
    st.sampled_from([None, 0.0, 0.5, 2.0, -1.0]),
    min_size=n * n, max_size=n * n))


def _pattern_matrix(slots):
    n = int(round(len(slots) ** 0.5))
    stored = [(k // n, k % n, v) for k, v in enumerate(slots)
              if v is not None and k // n != k % n]
    rows, cols, vals = zip(*stored) if stored else ((), (), ())
    matrix = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    assert matrix.nnz == len(stored)  # explicit zeros stay stored
    return matrix


@st.composite
def _relabelled_graphs(draw):
    # a path walked both ways, or a ring with n chords, on 2-300 states in
    # a random order, so that no band is left; one edge may be dropped
    n = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    i = np.arange(n)
    if draw(st.booleans()):
        rows, cols = np.r_[i[:-1], i[1:]], np.r_[i[1:], i[:-1]]
    else:
        rows = np.r_[i, rng.integers(0, n, n)]
        cols = np.r_[(i + 1) % n, rng.integers(0, n, n)]
        keep = rows != cols
        rows, cols = rows[keep], cols[keep]
    if draw(st.booleans()):
        k = int(rng.integers(rows.size))
        rows, cols = np.delete(rows, k), np.delete(cols, k)
    order = rng.permutation(n)
    return sp.csr_matrix((rng.uniform(0.5, 2.0, rows.size),
                          (order[rows], order[cols])), shape=(n, n))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_PATTERNS.map(_pattern_matrix), _relabelled_graphs()))
def test_strong_connectivity_matches_reference_dfs(matrix):
    from scipy.sparse.csgraph import connected_components

    Q = GeneratorMatrix(matrix)
    expected = _reference_strongly_connected(scipy_csr(Q))
    rows, cols, vals = Q.off_diagonal()
    keep = vals > 0  # csgraph takes every stored entry for an edge
    edges = sp.csr_matrix((vals[keep], (rows[keep], cols[keep])),
                          shape=(Q.n, Q.n))
    count, _ = connected_components(edges, directed=True, connection="strong")
    assert (count == 1) == expected
    assert validate_generator(Q).strongly_connected == expected


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 200), st.integers(0, 2 ** 32 - 1))
def test_matvec_adds_each_row_as_scipy_does(n, seed):
    Q = GeneratorMatrix(ring_with_chords(n, False, seed))
    x = np.random.default_rng(seed).standard_normal(n)
    assert np.array_equal(Q @ x, scipy_csr(Q) @ x)


# ---------------------------------------------------------------- stationarity

def test_stationary_three_state(three_state):
    pi = stationary_distribution(three_state)
    assert np.max(np.abs(pi.probs - THREE_STATE_PI)) < 1e-12


def test_stationary_two_state(two_state):
    # closed form pi = (a, b)/(a+b) for rates 0->1 = b, 1->0 = a
    pi = stationary_distribution(two_state)
    assert np.max(np.abs(pi.probs - [1.0 / 3.0, 2.0 / 3.0])) < 1e-14


def test_stationary_single_state():
    pi = stationary_distribution(GeneratorMatrix(np.zeros((1, 1))))
    assert pi.probs.tolist() == [1.0]


def test_stationary_birth_death_geometric_tails():
    # product form pi_k proportional to (b/a)^k; entries span 2^-200 yet
    # keep componentwise relative accuracy
    N = 200
    Q = build_birth_death([2.0] * N, [1.0] * N)
    pi = stationary_distribution(Q)
    r = 0.5
    exact = (1 - r) / (1 - r ** (N + 1)) * r ** np.arange(N + 1)
    rel = np.abs(pi.probs - exact) / exact
    assert rel.max() < 1e-12


def test_stationary_matches_least_squares_oracle():
    # independent route: dense least-squares on the augmented system
    rng = np.random.default_rng(42)
    for _ in range(10):
        n = int(rng.integers(2, 15))
        A = rng.uniform(0.1, 2.0, size=(n, n))
        np.fill_diagonal(A, 0.0)
        np.fill_diagonal(A, -A.sum(axis=1))
        Q = GeneratorMatrix(A)
        pi = stationary_distribution(Q).probs
        M = np.vstack([A.T, np.ones(n)])
        rhs = np.zeros(n + 1)
        rhs[-1] = 1.0
        ref, *_ = np.linalg.lstsq(M, rhs, rcond=None)
        assert np.max(np.abs(pi - ref)) < 1e-10


def test_stationary_power_iteration_path(three_state):
    pi_elim = stationary_distribution(three_state)
    pi_iter, steps, resid, spread = generator._power_iteration_solve(
        three_state, generator._ITERATION_RTOL)
    assert np.max(np.abs(pi_elim.probs - pi_iter)) < 1e-9
    assert resid <= generator._ITERATION_RTOL and spread <= 1e-12
    assert 0 < steps < generator._ITERATION_BUDGET
    assert pi_elim.solver == "elimination" and pi_elim.iterations == 0
    assert pi_elim.residual <= generator._ITERATION_RTOL


def test_power_iteration_is_componentwise_stationary():
    # one state above the dense cutoff: a ring plus five random chords per
    # state, rates Exp(1).  Stopping on max|pi Q| alone accepted a pi whose
    # entries were off by 6e-7 relative
    n = generator.DENSE_SOLVE_CUTOFF + 1
    rng = np.random.default_rng(4097)
    rows = np.repeat(np.arange(n), 6)
    steps = np.column_stack([np.ones(n, dtype=int),
                             rng.integers(2, n, size=(n, 5))])
    off = sp.csr_matrix((rng.exponential(size=6 * n),
                         (rows, (rows + steps.ravel()) % n)), shape=(n, n))
    Q = GeneratorMatrix(off - sp.diags(np.asarray(off.sum(axis=1)).ravel()))
    pi = stationary_distribution(Q).probs
    resid = np.abs(pi @ scipy_csr(Q)) / (pi * Q.exit_rates())
    assert resid.max() <= generator._STATIONARY_RTOL


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([3, 4, 5, 40, 200, 700]), st.integers(0, 2 ** 32 - 1))
def test_iteration_matches_elimination_componentwise(n, seed):
    # a ring plus chords mixes well: the iteration reaches its rounding
    # floor well within its budget and agrees with elimination entrywise
    A = ring_with_chords(n, False, seed)
    pi, steps, resid, spread = generator._power_iteration_solve(
        GeneratorMatrix(A), generator._ITERATION_RTOL)
    assert resid <= generator._ITERATION_RTOL and spread <= 1e-12
    assert steps < generator._ITERATION_BUDGET
    ref = generator._gth_solve(A)
    assert np.max(np.abs(pi - ref) / ref) <= 1e-12


def _pi_budget(Q):
    """The iteration budget generator's cost rule gives the pi of `Q`."""
    return generator._dense_cost_in_steps("elimination", Q.n, 2 * Q.nnz)


def test_iteration_ranks_above_elimination_past_the_crossover(monkeypatch):
    # by the cost rule, elimination of 20 states of a ring with chords is
    # worth fewer steps than the floor, so it runs at once; at 40 the
    # budget is too small for the iteration, and elimination takes over;
    # at 1 500 the iteration converges within its budget.  stdout does not
    # show which ran
    budgets = []
    iterate = generator._power_iteration_solve

    def recorded(Q, target, budget):
        budgets.append(budget)
        return iterate(Q, target, budget)

    monkeypatch.setattr(generator, "_power_iteration_solve", recorded)
    for n, iterated in ((20, False), (40, True)):
        budgets.clear()
        Q = GeneratorMatrix(ring_with_chords(n, False, 1))
        small = stationary_distribution(Q)
        assert (small.solver, small.iterations) == ("elimination", 0)
        assert (_pi_budget(Q) > 0) == iterated
        assert budgets == ([_pi_budget(Q)] if iterated else [])
    A = ring_with_chords(1500, False, 2)
    budgets.clear()
    large = stationary_distribution(GeneratorMatrix(A))
    assert large.solver == "iteration"
    assert 0 < large.iterations <= budgets[0] < generator._ITERATION_BUDGET
    assert large.residual <= generator._ITERATION_RTOL
    ref = generator._gth_solve(A)
    assert np.max(np.abs(large.probs - ref) / ref) <= 1e-12


def test_dense_cost_in_steps_floors_and_caps():
    # one rule for both hand-offs: no steps while the dense route is worth
    # fewer than the floor, a budget that grows with the size, none (no
    # dense route) above the cap; a dense product costs more per state
    # than a sparse one of seven entries a row
    cost = generator._dense_cost_in_steps
    for route in ("eigh", "elimination"):
        assert cost(route, 3, 9) == 0 and cost(route, 20, None) == 0
        steps = [cost(route, n, 7 * n) for n in (300, 1000, 4096)]
        assert generator._HANDOFF_FLOOR <= steps[0] < steps[1] < steps[2]
        assert cost(route, 4097, 7 * 4097) is None
        assert cost(route, 1000, None) < cost(route, 1000, 7000)


def _relabelled_birth_death(down, N, seed=0):
    Q = build_birth_death(np.full(N, down), np.ones(N))
    order = np.random.default_rng(seed).permutation(N + 1)
    return GeneratorMatrix(scipy_csr(Q)[order][:, order]), order


def test_iteration_out_of_budget_falls_back_on_elimination():
    # relabelled, the (1.1, 1) chain is past the floor but mixes too slowly
    # for the budget the cost rule gives it, which the decay of its
    # residual shows within a fifth of that budget; elimination then gives
    # its product form
    N = 600
    Q, order = _relabelled_birth_death(1.1, N)
    budget = _pi_budget(Q)
    assert budget >= generator._HANDOFF_FLOOR
    _, steps, resid, _ = generator._power_iteration_solve(
        Q, generator._ITERATION_RTOL, budget)
    assert steps <= budget / 5
    assert resid > generator._ITERATION_RTOL
    pi = stationary_distribution(Q)
    assert (pi.solver, pi.iterations) == ("elimination", 0)
    r = 1.0 / 1.1
    exact = (1 - r) / (1 - r ** (N + 1)) * r ** np.arange(N + 1)
    assert np.max(np.abs(pi.probs - exact[order]) / exact[order]) < 1e-12


def test_iteration_above_the_cap_refuses_once_hopeless():
    # relabelled, the pi of the (2, 1) chain leaves the double range, and
    # above the cap there is no elimination to fall back on.  Iterating
    # 200 000 steps took 189 s before the same refusal; the residual's
    # decay now shows within a few hundred steps that it cannot succeed
    Q, _ = _relabelled_birth_death(2.0, 5000)
    with pytest.raises(NumericalFailureError,
                       match="stopped after [0-9]+ steps at componentwise"
                       ) as failure:
        stationary_distribution(Q)
    assert failure.value.residual > generator._STATIONARY_RTOL


def _two_clusters(m, coupling):
    # two rings with chords, joined by one rate each way: 0 -> m and m -> 0
    A = np.zeros((2 * m, 2 * m))
    A[:m, :m] = ring_with_chords(m, False, 3)
    A[m:, m:] = ring_with_chords(m, False, 4)
    A[[0, m], [m, 0]] = coupling, 2 * coupling
    A[[0, m], [0, m]] -= coupling, 2 * coupling
    return A


@pytest.mark.parametrize("coupling", [1e-13, 1e-11, 1e-8])
def test_nearly_decomposable_chain_is_not_taken_from_the_iteration(coupling):
    # each cluster mixes within a few dozen steps, and after that the
    # error in the clusters' masses shows in the residual only times the
    # coupling: the residual reaches its floor while each start's split of
    # the mass stands.  The uniform start's split was off by 30 percent
    A = _two_clusters(250, coupling)
    pi = stationary_distribution(GeneratorMatrix(A))
    ref = generator._gth_solve(A.copy())
    assert np.max(np.abs(pi.probs - ref) / ref) <= 1e-12
    _, _, _, spread = generator._power_iteration_solve(
        GeneratorMatrix(A), generator._ITERATION_RTOL)
    assert spread > 1e-2 and pi.solver == "elimination"


def test_stationary_birth_death_matches_gth():
    # the product form against subtraction-free elimination, componentwise
    rng = np.random.default_rng(7)
    for _ in range(100):
        a, b = random_birth_death(rng)
        Q = build_birth_death(a, b)
        pi = stationary_distribution(Q).probs
        ref = generator._gth_solve(Q.to_dense())
        assert np.max(np.abs(pi - ref) / ref) < 1e-12


def _gth_reference(A):
    # the unblocked elimination: one rank-1 update of A[:k, :k] per state
    A = A.astype(float, copy=True)
    n = A.shape[0]
    for k in range(n - 1, 0, -1):
        s = A[k, :k].sum()
        if s <= 0:
            raise NumericalFailureError(
                f"elimination pivot {s!r} at state {k}; "
                "generator is likely reducible")
        f = A[:k, k] / s
        A[:k, :k] += np.outer(f, A[k, :k])
    x = np.zeros(n)
    x[0] = 1.0
    for k in range(1, n):
        s = A[k, :k].sum()
        x[k] = (x[:k] @ A[:k, k]) / s
    return x / x.sum()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3, 63, 64, 65, 66, 127, 128, 129, 130,
                        199, 200, 201]),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_gth_blocked_matches_unblocked_loop(n, skewed, seed):
    # sizes straddle one and two panels of 64 states.  Up to one panel the
    # arithmetic is the loop's; beyond, only the summation order differs
    A = ring_with_chords(n, skewed, seed)
    ref = _gth_reference(A)
    got = generator._gth_solve(A.copy())
    if skewed and n > 1:
        assert 1e-300 < ref.min() < 1e-280
    if n <= generator._GTH_PANEL:
        assert np.array_equal(got, ref)
    else:
        assert np.max(np.abs(got - ref) / ref) <= 1e-13


def test_gth_pivot_error_from_a_later_panel():
    # 0 -> 1 -> ... -> 10 feeds the closed ring 10 -> ... -> 199 -> 10, so
    # state 10, in the third panel, has no way back below it
    n = 200
    A = np.zeros((n, n))
    i = np.arange(10, n)
    A[i, np.where(i + 1 < n, i + 1, 10)] = 1.0
    A[np.arange(10), np.arange(1, 11)] = 1.0
    np.fill_diagonal(A, -A.sum(axis=1))
    assert 10 < n - 2 * generator._GTH_PANEL
    with pytest.raises(NumericalFailureError,
                       match=r"elimination pivot .* at state 10;"):
        generator._gth_solve(A)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([255, 256, 257, 320, 385]), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_gth_many_panels_match_unblocked_loop(n, skewed, seed):
    # three to six panels: rows and columns outside each panel come from the
    # triangular transforms, and the trailing block is updated in strips
    A = ring_with_chords(n, skewed, seed)
    ref = _gth_reference(A)
    got = generator._gth_solve(A.copy())
    assert np.max(np.abs(got - ref) / ref) <= 1e-13


def test_gth_makes_no_temporary_of_the_matrix_size():
    A = ring_with_chords(1024, False, 5)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        generator._gth_solve(A)
        extra = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert extra < A.nbytes / 4


def test_exact_cumsum_against_rational_sums():
    # a plain cumsum of log(1/1.1) drifts by 8e-12 over 3 000 terms
    from fractions import Fraction
    rng = np.random.default_rng(11)
    cases = [np.full(3000, -np.log(1.1))]
    cases += [rng.normal(size=300) * 10 ** rng.uniform(-3, 3, size=300)
              for _ in range(5)]
    for x in cases:
        got = generator._exact_cumsum(x)
        total = Fraction(0)
        for k, v in enumerate(x):
            total += Fraction(float(v))
            exact = float(total)
            assert abs(got[k] - exact) <= np.spacing(abs(exact))


def test_stationary_birth_death_closed_form_above_power_cutoff():
    # truncated geometric law with ratio 1/1.1 on 0..3000; the power
    # iteration used above 2 000 states stopped far from it
    N = 3000
    Q = build_birth_death(np.full(N, 1.1), np.full(N, 1.0))
    pi = stationary_distribution(Q).probs
    r = 1.0 / 1.1
    exact = (1 - r) / (1 - r ** (N + 1)) * r ** np.arange(N + 1)
    assert np.max(np.abs(pi - exact) / exact) < 1e-12


def test_stationary_birth_death_needs_no_elimination():
    for N in (5, 2500):
        pi = stationary_distribution(build_birth_death([1.1] * N, [1.0] * N))
        assert (pi.solver, pi.iterations, pi.residual) == ("product_form",
                                                           0, 0.0)


def test_stationary_birth_death_log_probs_below_double_range():
    # pi[k] = 2^-k / Z: entries past about 1 075 are below the double range,
    # where probs reads 0 and log_probs keeps the truncated geometric law
    N = 1500
    pi = stationary_distribution(build_birth_death([2.0] * N, [1.0] * N))
    r = 0.5
    exact = np.log((1 - r) / (1 - r ** (N + 1))) + np.arange(N + 1) * np.log(r)
    assert np.max(np.abs(pi.log_probs - exact) / np.abs(exact)) < 1e-12
    assert pi.probs[-1] == 0.0


def test_stationary_reducible_raises():
    Q = GeneratorMatrix.from_rates(
        2, [(0, 1, 1.0), (1, 1, 0.0)])  # no way back: not irreducible
    with pytest.raises(InvalidInputError, match="reducible"):
        stationary_distribution(Q)


def test_stationary_rejects_non_stationary_solve(monkeypatch, three_state):
    # the acceptance test, not the solver, is what stops a wrong pi
    monkeypatch.setattr(generator, "_gth_solve",
                        lambda A: np.array([0.5, 0.25, 0.25]))
    with pytest.raises(NumericalFailureError, match="stationary residual"):
        stationary_distribution(three_state)


def test_stationary_distribution_type_guards():
    with pytest.raises(InvalidInputError, match="positive"):
        StationaryDistribution([0.5, 0.5, 0.0])
    with pytest.raises(InvalidInputError, match="sum"):
        StationaryDistribution([0.5, 0.6])
    with pytest.raises(InvalidInputError, match="1-D"):
        StationaryDistribution([[0.5, 0.5]])
    with pytest.raises(InvalidInputError, match="finite"):
        StationaryDistribution([0.5, np.nan])


# ------------------------------------------------ additive reversibilization

def test_dual_three_state(three_state):
    Qbar = additive_symmetrization(three_state, THREE_STATE_PI)
    Qhat = 2.0 * Qbar.to_dense() - three_state.to_dense()  # time reversal
    assert np.max(np.abs(Qhat - THREE_STATE_DUAL)) < 1e-12


def test_dual_of_reversible_is_identity_map():
    Q = build_birth_death([2.0, 3.0], [1.0, 1.5])
    pi = stationary_distribution(Q)
    Qbar = additive_symmetrization(Q, pi)
    assert np.max(np.abs(Qbar.to_dense() - Q.to_dense())) < 1e-14


def test_dual_rejects_zero_pi(three_state):
    with pytest.raises(InvalidInputError, match="positive"):
        additive_symmetrization(three_state, np.array([0.5, 0.5, 0.0]))


def test_symmetrization_rejects_a_law_that_is_not_stationary(three_state):
    with pytest.raises(NumericalFailureError, match="stationary residual"):
        additive_symmetrization(three_state, np.array([0.5, 0.25, 0.25]))


def test_symmetrization_three_state(three_state):
    Qbar = additive_symmetrization(three_state, THREE_STATE_PI)
    assert np.max(np.abs(Qbar.to_dense() - THREE_STATE_SYM)) < 1e-12
    assert Qbar.labels == three_state.labels
    # reversible: its own reversibilization
    again = additive_symmetrization(Qbar, THREE_STATE_PI)
    assert np.max(np.abs(again.to_dense() - Qbar.to_dense())) < 1e-12


def test_symmetrization_preserves_stationary_law(three_state):
    Qbar = additive_symmetrization(three_state, THREE_STATE_PI)
    assert np.max(np.abs(THREE_STATE_PI @ Qbar.to_dense())) < 1e-12


def test_is_reversible(three_state):
    Qbar = additive_symmetrization(three_state, THREE_STATE_PI)
    assert np.max(np.abs(Qbar.to_dense() - three_state.to_dense())) > 0.1
    Q = build_birth_death([1.0, 2.0, 0.5], [0.3, 0.7, 1.1])
    Qbar = additive_symmetrization(Q, stationary_distribution(Q))
    assert np.max(np.abs(Qbar.to_dense() - Q.to_dense())) < 1e-14


_BD_1500 = "(2, 1) birth-death chain at 1 500 levels"


def test_additive_symmetrization_of_a_chain_past_int32_cells():
    # the chain's indices are int32, while its cell numbers i n + j pass
    # 2^31; a birth-death chain is its own reversibilization
    rates = np.random.default_rng(3).uniform(0.5, 2.0, (2, 50_000))
    Q = build_birth_death(*rates)
    Qbar = additive_symmetrization(Q, stationary_distribution(Q))
    (rows, cols, vals), (r, c, v) = Qbar.off_diagonal(), Q.off_diagonal()
    assert np.array_equal(rows, r) and np.array_equal(cols, c)
    np.testing.assert_allclose(vals, v, rtol=1e-12, atol=0.0)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 5, 40, 200, 700, "birth-death", _BD_1500]),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
@example(_BD_1500, False, 0)  # its pi underflows in 426 entries
def test_additive_symmetrization_is_a_reversible_projection(kind, skewed,
                                                            seed):
    if kind == _BD_1500:
        Q = build_birth_death([2.0] * 1500, [1.0] * 1500)
    elif kind == "birth-death":
        Q = build_birth_death(*random_birth_death(np.random.default_rng(seed)))
    else:
        Q = GeneratorMatrix(ring_with_chords(kind, skewed, seed))
    pi = stationary_distribution(Q)
    Qbar = additive_symmetrization(Q, pi)
    scale = max(Q.max_rate(), 1.0)
    dense = Qbar.to_dense()
    assert np.max(np.abs(dense.sum(axis=1))) <= 1e-12 * scale
    # detailed balance, pi[i] Qbar[i, j] = pi[j] Qbar[j, i], in logs
    rows, cols, vals = Qbar.off_diagonal()
    back = dense[cols, rows]
    assert np.all(vals > 0) and np.all(back > 0)
    log_pi = pi.log_probs
    balance = (log_pi[rows] + np.log(vals)) - (log_pi[cols] + np.log(back))
    assert np.max(np.abs(balance), initial=0.0) <= 1e-12
    again = additive_symmetrization(Qbar, pi).to_dense()
    np.testing.assert_allclose(again, dense, rtol=1e-12, atol=0.0)
    if Q.structure()[0] is not None:  # birth-death chains are reversible
        np.testing.assert_allclose(dense, Q.to_dense(), rtol=1e-12, atol=0.0)
    want = spectral_gap(Q, pi).gap
    assert abs(spectral_gap(Qbar, pi).gap - want) <= 1e-10 * want


# -------------------------------------------------------------------- builders

def test_build_birth_death_shape():
    Q = build_birth_death([2.0, 2.0], [1.0, 1.0]).to_dense()
    expect = np.array([[-1.0, 1.0, 0.0], [2.0, -3.0, 1.0], [0.0, 2.0, -2.0]])
    assert np.array_equal(Q, expect)


def test_build_birth_death_matches_triplet_construction():
    # same CSR arrays, so simulated paths pick jump targets in the same order
    rng = np.random.default_rng(3)
    for N in (1, 2, 7, 300):
        a, b = rng.uniform(0.1, 10.0, N), rng.uniform(0.1, 10.0, N)
        rates = [(i, i + 1, b[i]) for i in range(N)]
        rates += [(i, i - 1, a[i - 1]) for i in range(1, N + 1)]
        ref = scipy_csr(GeneratorMatrix.from_rates(N + 1, rates))
        got = scipy_csr(build_birth_death(a, b))
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, field), getattr(ref, field))


def test_build_birth_death_rejects_bad_rates():
    with pytest.raises(InvalidInputError):
        build_birth_death([1.0, -1.0], [1.0, 1.0])
    with pytest.raises(InvalidInputError):
        build_birth_death([1.0], [1.0, 1.0])


# ---------------------------------------------------------------------- files

def test_model_roundtrip(tmp_path, three_state):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "n": 3,
        "rates": [[0, 1, 1.0], [0, 2, 1.0], [1, 0, 1.0], [1, 2, 2.0],
                  [2, 0, 1.0]],
        "labels": ["s0", "s1", "s2"],
    }))
    Q = load_model(path)
    assert np.array_equal(Q.to_dense(), three_state.to_dense())
    assert Q.labels == ["s0", "s1", "s2"]


def test_model_diagonal_entries_recomputed(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "n": 2,
        "rates": [[0, 1, 1.0], [1, 0, 2.0], [0, 0, 99.0]],
    }))
    Q = load_model(path)
    assert Q.to_dense()[0, 0] == -1.0


def test_model_file_errors(tmp_path):
    with pytest.raises(InvalidInputError, match="not found"):
        load_model(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InvalidInputError, match="line"):
        load_model(bad)


@pytest.mark.parametrize("obj, msg", [
    ({"rates": []}, "'n'"),
    ({"n": 2, "rates": "x"}, "'rates'"),
    ({"n": 2, "rates": [[0, 1]]}, "rates\\[0\\]"),
    ({"n": 2, "rates": [[0, 5, 1.0]]}, "out of range"),
    ({"n": 2, "rates": [[0, 1, 1.0], [0, 1, 2.0]]}, "duplicate"),
    ({"n": 2, "rates": [[0, 1, -1.0]]}, "nonnegative"),
    ({"n": 2, "rates": [[0, 1, 1.0]], "labels": ["a"]}, "labels"),
    ({"n": 2.5, "rates": []}, "'n'"),
    ({"n": float("inf"), "rates": []}, "'n'"),
    ({"n": True, "rates": []}, "'n'"),
    ({"n": "2", "rates": []}, "'n'"),
    ({"n": 2, "rates": [[0, 1, 1.0], ["1.0", 0, 1.0]]}, "numbers"),
    ({"n": 2, "rates": [[0, 1, 1.0], [None, 0, 1.0]]}, "numbers"),
    ({"n": 2, "rates": [[0, 1, 1.0], [1.9, 0, 1.0]]}, "not an integer"),
    ({"n": 2, "rates": [[0, 1, 1.0], [1, 0, 1.0], [0, 0, 1.0], [0, 0, 2.0]]},
     "duplicate"),
    ({"n": 2, "rates": [[0, 1, 1.0], [1, 0, 1.0], [1, 1, float("nan")]]},
     "not finite"),
    ([2, [[0, 1, 1.0]]], "top level must be an object"),
])
def test_model_schema_violations(obj, msg):
    with pytest.raises(InvalidInputError, match=msg):
        parse_model(obj)


def test_model_with_fewer_rates_than_states_is_refused_before_allocating():
    # 10**13 states would need terabytes; two rates cannot connect them
    for n in (10 ** 13, 10 ** 400):
        with pytest.raises(InvalidInputError, match="strongly connected"):
            parse_model({"n": n, "rates": [[0, 1, 1.0], [1, 0, 1.0]]})


def _loop_from_rates(n, triplets):
    # the per-entry assembly the vectorized check replaced; a zero rate is
    # no transition, so it is left out before SciPy adds the row sums
    rows, cols, vals, diag = [], [], [], {}
    for i, j, rate in triplets:
        i, j, rate = int(i), int(j), float(rate)
        if i == j:
            diag[i] = rate
        elif rate != 0:
            rows.append(i)
            cols.append(j)
            vals.append(rate)
    off = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    d = -np.asarray(off.sum(axis=1)).ravel()
    for i, v in diag.items():
        d[i] = v
    return off + sp.diags(d, format="csr", shape=(n, n))


@st.composite
def _ring_triplets(draw):
    # a positive ring keeps the chain irreducible; extra pairs, diagonal
    # ones included, carry zero, integer or float rates in any order
    n = draw(st.integers(2, 25))
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)),
                          unique=True, max_size=3 * n))
    pairs = [(i, (i + 1) % n) for i in range(n)]
    pairs += [(i, j) for i, j in extra if j != (i + 1) % n]
    rates = [draw(st.floats(0.01, 1e3)) for _ in range(n)]
    rates += [draw(st.one_of(st.just(0), st.integers(0, 9),
                             st.floats(0.0, 1e3))) for _ in pairs[n:]]
    order = draw(st.permutations(range(len(pairs))))
    as_float = draw(st.booleans())
    kind = float if as_float else int
    return n, [[kind(pairs[k][0]), kind(pairs[k][1]), rates[k]] for k in order]


@settings(max_examples=200, deadline=None)
@given(_ring_triplets())
def test_triplet_assembly_matches_plain_loop(case):
    n, triplets = case
    off_diagonal = [t for t in triplets if t[0] != t[1]]
    for got, ref in [
            (scipy_csr(GeneratorMatrix.from_rates(n, triplets)),
             _loop_from_rates(n, triplets)),
            (scipy_csr(parse_model({"n": n, "rates": triplets})),
             _loop_from_rates(n, off_diagonal))]:
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, part), getattr(ref, part))
            assert getattr(got, part).dtype == getattr(ref, part).dtype


@st.composite
def _repeated_triplets(draw):
    # off-diagonal rates, several on one cell, zeros included, at most 16
    # in all: past 16 entries a row, SciPy's sort leaves repeats unordered
    n = draw(st.integers(2, 6))
    cells = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1),
                      st.one_of(st.just(0.0), st.floats(0.0, 1e3)))
    return n, [[i, (i + k) % n, r]
               for i, k, r in draw(st.lists(cells, max_size=16))]


@settings(max_examples=200, deadline=None)
@given(_repeated_triplets())
def test_repeated_triplets_add_as_scipy_adds_them(case):
    # a collapsed chain routes several rates into one cell; they add in the
    # order given, and the row sums add the nonzero rates as SciPy's
    # sum(axis=1) adds them
    n, triplets = case
    got = generator._assemble(n, np.array(triplets).reshape(-1, 3), None)
    ref = _loop_from_rates(n, triplets)
    got = scipy_csr(got)
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, part), getattr(ref, part))


@st.composite
def _long_repeated_rows(draw):
    # up to 64 off-diagonal rates a row on at most 5 columns, so that many
    # land on one cell, zeros among them, the rows interleaved
    n = draw(st.integers(2, 6))
    rates = st.lists(st.tuples(st.integers(1, n - 1),
                               st.one_of(st.just(0.0), st.floats(0.0, 1e3))),
                     max_size=64)
    triplets = [[i, (i + k) % n, r] for i in range(n) for k, r in draw(rates)]
    return n, draw(st.permutations(triplets))


@settings(max_examples=200, deadline=None)
@given(_long_repeated_rows())
def test_repeated_cells_add_left_to_right_in_rows_of_any_length(case):
    # each cell's rates add one by one in the order given, however long the
    # row: SciPy's sort reorders repeats in rows of more than 16 entries
    n, triplets = case
    sums = {}
    for i, j, rate in triplets:
        sums[i, j] = sums.get((i, j), 0.0) + rate
    got = generator._assemble(n, np.array(triplets).reshape(-1, 3), None)
    # one rate a cell: SciPy only sorts them, and adds the diagonals
    ref = _loop_from_rates(n, [(i, j, v) for (i, j), v in sums.items()])
    got = scipy_csr(got)
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, part), getattr(ref, part))


# a zero in row 0's sum would group its rates differently: with [0, 1, 0]
# added to that sum, the diagonal reads -1025.991129396807, not
# -1025.9911293968069, and the gap 0.8391678030357105, not ...106
_FIVE_STATE = [[0, 2, 1.7219123678999], [0, 3, 615.2692170289071],
               [0, 4, 409.0], [1, 0, 1.154], [2, 1, 1.246], [3, 1, 2.536],
               [4, 3, 0.73]]


@st.composite
def _zero_rates_inserted(draw):
    # off-diagonal zero rates on cells the triplets leave free, anywhere
    n, triplets = draw(_ring_triplets())
    listed = {(int(i), int(j)) for i, j, _ in triplets}
    free = [(i, j) for i in range(n) for j in range(n)
            if i != j and (i, j) not in listed]
    padded = list(triplets)
    if free:
        for i, j in draw(st.lists(st.sampled_from(free), unique=True,
                                  max_size=8)):
            padded.insert(draw(st.integers(0, len(padded))), [i, j, 0.0])
    return n, triplets, padded


@settings(max_examples=200, deadline=None)
@given(_zero_rates_inserted())
@example((5, _FIVE_STATE, [[0, 1, 0.0]] + _FIVE_STATE))
def test_listed_zero_rates_change_no_stored_bit(case):
    n, triplets, padded = case
    for build in (lambda t: GeneratorMatrix.from_rates(n, t),
                  lambda t: parse_model({"n": n, "rates": t})):
        got, ref = build(padded), build(triplets)
        for part in ("_indptr", "_indices", "_data"):
            assert np.array_equal(getattr(got, part), getattr(ref, part))


def test_listed_zero_rate_moves_no_digit_of_the_gap():
    models = [parse_model({"n": 5, "rates": extra + _FIVE_STATE})
              for extra in ([], [[0, 1, 0.0]])]
    assert spectral_gap(models[0]).gap == spectral_gap(models[1]).gap


def test_observable_roundtrip(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"values": [0.0, 0.0, 1.0], "range": [0, 1]}))
    g = load_observable(path)
    assert g.values.tolist() == [0.0, 0.0, 1.0]
    assert (g.lower, g.upper) == (0.0, 1.0)


def test_observable_range_must_cover_values():
    with pytest.raises(InvalidInputError, match="range"):
        parse_observable({"values": [0.0, 2.0], "range": [0, 1]})
    with pytest.raises(InvalidInputError, match="range"):
        parse_observable({"values": [0.0], "range": [1]})
    with pytest.raises(InvalidInputError, match="empty range"):
        ObservableFunction([0.0], 1.0, 0.0)
    with pytest.raises(InvalidInputError, match="top level"):
        parse_observable([[0.0], [0, 1]])
    with pytest.raises(InvalidInputError, match="nonempty"):
        parse_observable({"values": [], "range": [0, 1]})
    with pytest.raises(InvalidInputError, match="1-D"):
        ObservableFunction([[0.0], [1.0]], 0.0, 1.0)
    with pytest.raises(InvalidInputError, match="finite"):
        ObservableFunction([0.0, np.nan], 0.0, 1.0)


@pytest.mark.parametrize("obj", [
    {"values": ["x", 0, 1], "range": [0, 1]},
    {"values": [0, 0, 1], "range": [0, "b"]},
    {"values": [0, 0, 1], "range": [0, None]},
    {"values": [[0], [0, 1], 1], "range": [0, 1]},
    {"values": [0, 0, 1], "range": [0, 10 ** 400]},
])
def test_observable_non_numbers_are_invalid_input(obj):
    with pytest.raises(InvalidInputError, match="numbers"):
        parse_observable(obj)


def test_observable_span():
    g = ObservableFunction([1.0, 2.0], 0.5, 4.0)
    assert g.span == 3.5


# ------------------------------------------------------------- caller vectors

def _unit_g():
    return ObservableFunction([0.0, 0.0, 1.0], 0.0, 1.0)


# every public entry that takes a vector from its caller, on the three-state
# chain: (call with the vector x, whether x is a probability vector)
_CALLER_VECTORS = {
    "tail_probability_mc-g": (lambda Q, x: tail_probability_mc(
        Q, x, THREE_STATE_PI, 1.0, 0.1, 10, 0), False),
    "tail_probability_mc-init": (lambda Q, x: tail_probability_mc(
        Q, _unit_g(), x, 1.0, 0.1, 10, 0), True),
    "sample_path-g": (lambda Q, x: sample_path(
        Q, 0, 1.0, substream(0, 0), g=x), False),
    "verify-init": (lambda Q, x: verify(
        Q, _unit_g(), 1.0, [0.1], 10, 0, init=x, p=2.0), True),
    "density_pnorm-nu": (lambda Q, x: density_pnorm(
        x, THREE_STATE_PI, 2.0), True),
    "density_pnorm-pi": (lambda Q, x: density_pnorm(
        THREE_STATE_PI, x, 2.0), True),
    "dirichlet_form-pi": (lambda Q, x: dirichlet_form(
        Q, x, [0.0, 1.0, 2.0]), True),
    "dirichlet_form-f": (lambda Q, x: dirichlet_form(
        Q, THREE_STATE_PI, x), False),
    "rayleigh_quotient-pi": (lambda Q, x: rayleigh_quotient(
        Q, x, [0.0, 1.0, 2.0]), True),
    "rayleigh_quotient-f": (lambda Q, x: rayleigh_quotient(
        Q, THREE_STATE_PI, x), False),
    "drift_certificate_check-V": (lambda Q, x: drift_certificate_check(
        Q, x, 0.1, 0), False),
    "spectral_gap-pi": (lambda Q, x: spectral_gap(Q, x), True),
    "symmetrized_form-pi": (lambda Q, x: symmetrized_form(Q, x), True),
    "additive_symmetrization-pi": (
        lambda Q, x: additive_symmetrization(Q, x), True),
    "dtmc_spectral_gap-pi": (lambda Q, x: dtmc_spectral_gap(
        transition_matrix_exp(Q, 0.1), x), True),
    "skeleton_gap_check-pi": (lambda Q, x: skeleton_gap_check(Q, x), True),
    "from_generator-pi": (
        lambda Q, x: CountableModel.from_generator(Q, x), True),
    "TrajectorySample.average-values": (lambda Q, x: sample_path(
        Q, 0, 5.0, substream(0, 0)).average(x), False),
    # a function on a larger chain may be collapsed to these three states,
    # so only a short or NaN g is wrong here
    "collapse_function-g": (lambda Q, x: collapse_function(x, Q.n), None),
}


def _bad_vectors(weights):
    """Bad vectors on three states; `weights` None is a state function of
    any length of at least three."""
    good = np.array(THREE_STATE_PI) if weights else np.ones(3)
    yield "nan", np.array([np.nan, *good[1:]])
    yield "too-short", good[:2]
    if weights is not None:
        yield "too-long", np.full(4, 0.25) if weights else np.ones(4)
    if weights:
        yield "sum-1+1e-6", good * (1.0 + 1e-6)


@pytest.mark.parametrize("entry, x", [
    pytest.param(entry, x, id=f"{entry}-{case}")
    for entry, (_, weights) in _CALLER_VECTORS.items()
    for case, x in _bad_vectors(weights)])
def test_every_entry_refuses_a_bad_caller_vector(three_state, entry, x):
    # one rule per kind of vector, in generator: an entry that skips it
    # returns a number here, or fails with another error
    with pytest.raises(InvalidInputError):
        _CALLER_VECTORS[entry][0](three_state, x)


# every public entry that takes a count or an index from its caller, on the
# three-state chain: (call with the number x, an integral x it accepts);
# bd_closed_form_gap takes an infinite n_levels for the infinite chain
_CALLER_COUNTS = {
    "verify-reps": (lambda Q, x: verify(Q, _unit_g(), 1.0, [0.1], x, 0), 10),
    "clopper_pearson_upper-successes": (
        lambda Q, x: clopper_pearson_upper(x, 20), 3),
    "clopper_pearson_upper-trials": (
        lambda Q, x: clopper_pearson_upper(3, x), 20),
    "bd_closed_form_gap-n_levels": (
        lambda Q, x: bd_closed_form_gap(2.0, 1.0, x), 10),
    "dtmc_hoeffding_bound-n_steps": (
        lambda Q, x: dtmc_hoeffding_bound(0.5, x, 0.1, 0.0, 1.0), 10),
    "sample_path-x0": (
        lambda Q, x: sample_path(Q, x, 1.0, substream(0, 0)), 1),
    "drift_certificate_check-excluded_state": (
        lambda Q, x: drift_certificate_check(Q, np.ones(3), 0.1, x), 1),
    "gap_convergence_sweep-sizes": (lambda Q, x: gap_convergence_sweep(
        CountableModel.birth_death(2.0, 1.0), [5, x]), 10),
    "collapse-retained": (lambda Q, x: collapse(
        CountableModel.birth_death(2.0, 1.0), x), 10),
    "collapse-retained-finite": (lambda Q, x: collapse(
        CountableModel.from_generator(Q, THREE_STATE_PI), x), 2),
    "collapse-retained-set": (lambda Q, x: collapse(
        CountableModel.from_generator(Q, THREE_STATE_PI), [0, x]), 1),
    "collapse_function-retained": (
        lambda Q, x: collapse_function(np.arange(5.0), x), 3),
    "collapse_function-retained-set": (
        lambda Q, x: collapse_function(np.arange(5.0), [0, x]), 3),
}


@pytest.mark.parametrize("entry, x", [
    pytest.param(entry, x, id=f"{entry}-{x!r}")
    for entry, (_, k) in _CALLER_COUNTS.items()
    for x in (k + 0.5, math.nan, math.inf, -math.inf)
    if not (entry == "bd_closed_form_gap-n_levels" and x == math.inf)])
def test_every_entry_refuses_a_count_that_is_not_an_integer(three_state,
                                                            entry, x):
    # one rule, in generator: an integral float passes; 10.5 is refused,
    # not truncated to 10, and NaN and inf are InvalidInputError
    call, k = _CALLER_COUNTS[entry]
    call(three_state, float(k))
    with pytest.raises(InvalidInputError, match="is not an integer"):
        call(three_state, x)
