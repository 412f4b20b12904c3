"""Metamorphic relations of the gap and the stationary law, which need no
closed form: doubling every rate doubles the gap and keeps `pi`; the time
reversal ``Q^_ij = pi_j Q_ji / pi_i`` keeps both, as its additive
reversibilization is the chain's own; and a relabelling permutes `pi` and
keeps the gap.  They run on the benchmark's seeded non-reversible chains,
at sizes where the gap takes the dense route and the Lanczos route."""

import numpy as np
import pytest

from ctmcgap import GeneratorMatrix, spectral_gap, stationary_distribution

GAP_RTOL = 1e-12
PI_RTOL = 1e-10


def general_chain(n, seed):
    """The benchmark's ``general_chain(n, seed)``: a ring ``i -> i + 1``
    plus five random out-edges per state, every rate Exp(1)."""
    rng = np.random.default_rng([seed, n])
    rates = []
    for i in range(n):
        ring = (i + 1) % n
        others = np.setdiff1d(np.arange(n), [i, ring])
        targets = rng.choice(others, size=5, replace=False)
        for j in (ring, *sorted(int(t) for t in targets)):
            rates.append((i, j, float(rng.exponential())))
    return rates


def _solved(n, rows, cols, rates):
    Q = GeneratorMatrix.from_rates(n, list(zip(rows.tolist(), cols.tolist(),
                                               rates.tolist())))
    pi = stationary_distribution(Q)
    return pi.probs, spectral_gap(Q, pi)


def _relative(a, b):
    return float(np.max(np.abs(a - b) / np.abs(b)))


@pytest.mark.parametrize("n, route", [(50, "dense"), (300, "lanczos"),
                                      (1500, "lanczos")])
def test_gap_and_law_keep_their_relations(n, route):
    Q = GeneratorMatrix.from_rates(n, general_chain(n, 3))
    rows, cols, rates = Q.off_diagonal()
    pi, report = _solved(n, rows, cols, rates)
    assert report.method == route
    gap = report.gap

    doubled_pi, doubled = _solved(n, rows, cols, 2.0 * rates)
    assert _relative(doubled.gap, 2.0 * gap) <= GAP_RTOL
    assert _relative(doubled_pi, pi) <= PI_RTOL

    dual_pi, dual = _solved(n, cols, rows, pi[rows] * rates / pi[cols])
    assert _relative(dual.gap, gap) <= GAP_RTOL
    assert _relative(dual_pi, pi) <= PI_RTOL

    label = np.random.default_rng(n).permutation(n)
    relabelled_pi, relabelled = _solved(n, label[rows], label[cols], rates)
    assert _relative(relabelled.gap, gap) <= GAP_RTOL
    assert _relative(relabelled_pi[label], pi) <= PI_RTOL
