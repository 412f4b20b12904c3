"""Reference answers and output checks for the benchmark's operations.

Nothing here imports ``ctmcgap``: every reference is computed from the
chain's rates with NumPy and SciPy alone, so a defect in the package cannot
also corrupt its own oracle.  Each ``check_*`` function takes the stdout of
one CLI call and returns ``None`` when it is right, else a one-line reason.

Run this file as a script to re-record ``reference_tails.json``, the Monte
Carlo reference tail probabilities that the ``verify`` oracles compare
against (see :func:`record_tails`).
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg as sla

# Relative tolerance for gaps that have a closed form or a tridiagonal
# reference: the gap must be right to ten digits at every size.
BD_GAP_RTOL = 1e-10
# General chains: the package accepts a Lanczos pair whose residual is up to
# 1e-10 times the matrix scale, so the eigenvalue is trusted to ~1e-9 of it.
GENERAL_GAP_RTOL = 1e-8
# Skeleton second eigenvalues, compared with a dense expm reference.
SKELETON_LAMBDA_ATOL = 1e-9
# A verify p_hat may sit this many binomial standard deviations from the
# recorded reference; a false alarm per row has probability below 1e-6.
TAIL_Z = 5.0

TAILS_FILE = Path(__file__).resolve().parent / "reference_tails.json"
TAIL_REF_REPS = 2_000_000
TAIL_REF_SEED = 20240424
_SIM_BATCH = 250_000    # paths simulated together; bounds the memory used

# The package's bundled three-state example, restated as data.
THREE_STATE_RATES = [(0, 1, 1.0), (0, 2, 1.0), (1, 0, 1.0), (1, 2, 2.0),
                     (2, 0, 1.0)]
THREE_STATE_GAP = (15.0 - math.sqrt(15.0)) / 5.0


# ---------------------------------------------------------------- references

def dense_generator(n, rates):
    """Dense rate matrix from ``(i, j, rate)`` triplets, rows summing to 0."""
    Q = np.zeros((n, n))
    for i, j, r in rates:
        Q[int(i), int(j)] += float(r)
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return Q


def birth_death_rates(down, up, n_levels):
    """Triplets of the constant-rate birth-death chain on ``0..n_levels``."""
    rates = [(i, i + 1, up) for i in range(n_levels)]
    rates += [(i, i - 1, down) for i in range(1, n_levels + 1)]
    return rates


def stationary(Q):
    """``pi Q = 0``, ``sum(pi) = 1`` by a dense LU solve."""
    n = Q.shape[0]
    A = Q.T.copy()
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    return sla.solve(A, b)


def _weighted_symmetric(M, pi):
    """Symmetric part of ``D M D^-1`` with ``D = diag(sqrt(pi))``."""
    sq = np.sqrt(pi)
    W = M * (sq[:, None] / sq[None, :])
    return 0.5 * (W + W.T)


def general_gap(Q, pi):
    """Gap of the additive reversibilization of a dense generator."""
    w = sla.eigvalsh(-_weighted_symmetric(Q, pi))
    return float(w[1])


def bd_closed_form_gap(down, up, n_levels):
    """Gap of the constant-rate birth-death chain on ``0..n_levels``."""
    return down + up - 2.0 * math.sqrt(down * up) * math.cos(
        math.pi / (n_levels + 1))


def collapsed_bd_gap(down, up, size):
    """Gap of the infinite birth-death chain collapsed to ``{0..size-1}``.

    Outside the prefix the chain is lumped into one tail state that is
    entered from ``size-1`` at rate `up` and left, by stationary flow
    balance, at rate ``down - up``.  The result is again tridiagonal and
    reversible, so ``S_ij = -sqrt(Q_ij Q_ji)`` needs no stationary law.
    """
    from scipy.linalg import eigh_tridiagonal
    ups = np.full(size, float(up))
    downs = np.full(size, float(down))
    downs[-1] = down - up          # tail state -> size-1
    exit_rates = np.zeros(size + 1)
    exit_rates[:-1] += ups
    exit_rates[1:] += downs
    off = np.sqrt(ups * downs)
    w = eigh_tridiagonal(exit_rates, -off, eigvals_only=True,
                         select="i", select_range=(0, 1))
    return float(w[1])


def skeleton_lambdas(Q, deltas, pi):
    """Second-largest eigenvalue of each reversibilized ``expm(delta Q)``."""
    return [float(sla.eigvalsh(_weighted_symmetric(sla.expm(d * Q), pi))[-2])
            for d in deltas]


def simulate_tails(Q, values, t, eps, reps, seed):
    """Tail probabilities ``P(avg_t(g) - pi(g) >= eps)`` by simulation.

    An exact jump-chain simulation from the stationary law, written
    independently of the package: all paths of a batch advance in lockstep
    with NumPy until each passes the horizon.
    """
    Q = np.asarray(Q, dtype=float)
    n = Q.shape[0]
    pi = stationary(Q)
    mean = float(pi @ values)
    exit_rates = -np.diag(Q)
    jump = np.where(np.eye(n, dtype=bool), 0.0, Q) / exit_rates[:, None]
    cum = np.cumsum(jump, axis=1)
    rng = np.random.default_rng(seed)
    counts = np.zeros(len(eps), dtype=np.int64)
    done_reps = 0
    while done_reps < reps:
        b = min(_SIM_BATCH, reps - done_reps)
        x = rng.choice(n, size=b, p=pi)
        now = np.zeros(b)
        acc = np.zeros(b)
        live = np.arange(b)
        while live.size:
            xl = x[live]
            hold = rng.standard_exponential(live.size) / exit_rates[xl]
            end = now[live] + hold
            stop = end >= t
            acc[live] += np.where(stop, t - now[live], hold) * values[xl]
            live = live[~stop]
            now[live] = end[~stop]
            u = rng.random(live.size)
            nxt = (cum[x[live]] <= u[:, None]).sum(axis=1)
            x[live] = np.minimum(nxt, n - 1)
        dev = acc / t - mean
        counts += np.array([np.count_nonzero(dev >= e) for e in eps])
        done_reps += b
    return (counts / reps).tolist()


# Each recorded tail: the chain, the observable and the verify settings the
# workload uses.  Changing one of these needs a re-record.
TAIL_CASES = {
    "three-state": dict(n=3, rates=THREE_STATE_RATES, observe=2, t=20.0,
                        eps=[0.05, 0.1, 0.15, 0.2]),
    "bd-2-1-30": dict(n=31, rates=birth_death_rates(2.0, 1.0, 30), observe=0,
                      t=50.0, eps=[0.05, 0.1]),
}


def record_tails():
    """Simulate every case in TAIL_CASES once and write the reference file."""
    out = {}
    for name, case in TAIL_CASES.items():
        Q = dense_generator(case["n"], case["rates"])
        values = np.zeros(case["n"])
        values[case["observe"]] = 1.0
        p = simulate_tails(Q, values, case["t"], case["eps"], TAIL_REF_REPS,
                           TAIL_REF_SEED)
        out[name] = {"t": case["t"], "eps": case["eps"],
                     "observe": case["observe"], "reps": TAIL_REF_REPS,
                     "seed": TAIL_REF_SEED, "p": p}
    TAILS_FILE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return out


# -------------------------------------------------------------------- checks

def _rel_err(x, ref):
    return abs(x - ref) / abs(ref)


def _load_json(stdout):
    try:
        return json.loads(stdout), None
    except json.JSONDecodeError as exc:
        return None, f"stdout is not JSON ({exc.msg})"


def _gap_error(gap, ref, rtol):
    if not isinstance(gap, (int, float)) or not math.isfinite(gap):
        return f"gap {gap!r} is not a finite number"
    if _rel_err(gap, ref) > rtol:
        return f"gap {gap!r} vs reference {ref!r} (rel err " \
               f"{_rel_err(gap, ref):.2e} > {rtol:.0e})"
    return None


def check_gap(stdout, ref, rtol):
    """``gap`` JSON output against a reference gap."""
    obj, err = _load_json(stdout)
    return err or _gap_error(obj.get("gap"), ref, rtol)


def _csv_rows(stdout, header):
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != header:
        return None, f"CSV header {rows[0] if rows else None!r} != {header!r}"
    return rows[1:], None


def check_sweep(stdout, sizes, ref_gaps):
    """``sweep`` CSV output; the seconds column varies and is ignored."""
    rows, err = _csv_rows(stdout, ["size", "gap", "diff", "seconds"])
    if err:
        return err
    if [int(r[0]) for r in rows] != list(sizes):
        return f"sizes {[r[0] for r in rows]} != {list(sizes)}"
    gaps = [float(r[1]) for r in rows]
    for size, gap, ref in zip(sizes, gaps, ref_gaps):
        if _rel_err(gap, ref) > BD_GAP_RTOL:
            return f"size {size}: gap {gap!r} vs reference {ref!r}"
    if rows[0][2] != "":
        return "first diff is not empty"
    for k in range(1, len(rows)):
        if _rel_err(float(rows[k][2]), abs(gaps[k] - gaps[k - 1])) > 1e-12:
            return f"diff at size {sizes[k]} is not |gap step|"
    return None


def check_skeleton(stdout, deltas, ref_gap, ref_lambdas):
    """``skeleton`` CSV output against dense expm references."""
    rows, err = _csv_rows(stdout, ["delta", "lambda_P", "ratio", "abs_error"])
    if err:
        return err
    if [float(r[0]) for r in rows] != list(deltas):
        return f"deltas {[r[0] for r in rows]} != {list(deltas)}"
    for (d, lam, ratio, abs_err), ref_lam in zip(rows, ref_lambdas):
        d, lam, ratio, abs_err = map(float, (d, lam, ratio, abs_err))
        if abs(lam - ref_lam) > SKELETON_LAMBDA_ATOL:
            return f"delta {d}: lambda_P {lam!r} vs reference {ref_lam!r}"
        if _rel_err(ratio, (1.0 - lam) / d) > 1e-12:
            return f"delta {d}: ratio is not (1 - lambda_P)/delta"
        if abs(abs_err - abs(ratio - ref_gap)) > GENERAL_GAP_RTOL * ref_gap:
            return f"delta {d}: abs_error {abs_err!r} disagrees with the " \
                   f"reference gap {ref_gap!r}"
    return None


def tail_tolerance(p_ref, reps, ref_reps):
    """TAIL_Z binomial standard deviations of ``p_hat - p_ref``, plus one
    count of slack for the discreteness of ``p_hat``."""
    var = p_ref * (1.0 - p_ref) * (1.0 / reps + 1.0 / ref_reps)
    return TAIL_Z * math.sqrt(var) + 1.0 / reps


def check_verify(stdout, ref_gap, tails, t, eps, reps):
    """``verify`` JSON output.

    The gap must match its golden value, every row must PASS, ``p_hat``
    must not increase with epsilon, and each ``p_hat`` must lie within
    :func:`tail_tolerance` of the recorded reference tail.  The tolerance
    is statistical, so a change of random-stream layout passes while a
    simulator that samples the wrong law does not.
    """
    obj, err = _load_json(stdout)
    err = err or _gap_error(obj.get("gap"), ref_gap, BD_GAP_RTOL)
    if err:
        return err
    rows = obj.get("rows", [])
    if [r.get("eps") for r in rows] != list(eps):
        return f"rows cover eps {[r.get('eps') for r in rows]}, not {eps}"
    p_hat = [r["p_hat"] for r in rows]
    for r, p, p_ref in zip(rows, p_hat, tails["p"]):
        if r.get("verdict") != "PASS":
            return f"eps {r['eps']}: verdict {r.get('verdict')!r}"
        if r.get("reps") != reps or r.get("t") != t:
            return f"eps {r['eps']}: reps/t {r.get('reps')}/{r.get('t')} " \
                   f"!= {reps}/{t}"
        tol = tail_tolerance(p_ref, reps, tails["reps"])
        if abs(p - p_ref) > tol:
            return f"eps {r['eps']}: p_hat {p!r} vs reference {p_ref:.5f} " \
                   f"(tolerance {tol:.5f})"
    if any(b > a for a, b in zip(p_hat, p_hat[1:])):
        return f"p_hat {p_hat} increases with eps"
    return None


def load_tails(case):
    return json.loads(TAILS_FILE.read_text())[case]


if __name__ == "__main__":
    print(json.dumps(record_tails(), indent=1, sort_keys=True))
