"""The benchmark's workloads: which ``ctmcgap`` commands each one runs,
the input files it generates from the seed, and the oracle for every
command.

Each workload stresses different layers of the pipeline (build or parse
``Q``, solve ``pi``, symmetrize and eigensolve, bound and simulate), so an
optimization of one layer shows on the workload that uses it and must leave
the others unchanged:

verify-3state
    ``verify`` on the bundled three-state chain with the default horizon and
    4 epsilons: 4 x 5 000 short paths (about 33 jumps each), where
    ``simulate`` does nearly all the work and per-path stream derivation
    takes a large share.  The default is 20 000 paths per epsilon; a quarter
    of that keeps a pass near 5 s.  It runs with ``--workload`` and
    ``--all`` but is not in ``BENCHMARK.json``: its run-to-run spread stayed
    near or above the 0.25 bound on a shared 2-core machine, calibrated or
    not (see BASELINE.md), so the simulation layer is gated through
    ``verify-bd`` alone.
verify-bd
    ``verify`` on a 31-state birth-death chain with long paths (about 150
    jumps), 2 epsilons x 5 000 paths on the two-process pool, which beats
    one process here: path walking dominates, and a rewrite that loses the
    pool's parallelism or suffers from ragged path lengths shows here.
gap-bd
    Gaps of large tridiagonal chains and a collapsed-chain sweep across the
    500-state dense/Lanczos cutoff: ``pi`` solve, eigensolve and
    truncation; no simulation.
gap-bd-3000
    ``gap --bd 2 1 3000`` alone, which returns a wrong gap at this commit
    and so fails its oracle.  A benchmark run must pass every check, so it
    is kept out of ``gap-bd`` and out of ``BENCHMARK.json``; it runs with
    ``--workload`` and ``--all``, where it reports the defect until it is
    fixed, and should then move back into ``gap-bd``.
gap-general
    A seeded non-reversible sparse chain read from a model file: parsing,
    a general symmetrization, a dense ``pi`` solve, a short Lanczos run and
    a uniformization skeleton; it bypasses any birth-death fast path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

NAMES = ("verify-3state", "verify-bd", "gap-bd", "gap-general",
         "gap-bd-3000")

GENERAL_GAP_STATES = 1500
GENERAL_SKELETON_STATES = 300
GENERAL_OUT_EDGES = 5
SKELETON_DELTAS = (0.1, 0.05, 0.01)     # the CLI's default
SWEEP_SIZES = (50, 100, 200, 500, 1000)
BD_GAPS = ((2.0, 1.0, 1000), (1.1, 1.0, 1000))
BD_GAP_WRONG = (2.0, 1.0, 3000)     # wrong at this commit; see gap-bd-3000
THREE_STATE_REPS = 5000
BD_VERIFY_REPS = 5000


@dataclass(frozen=True)
class Op:
    """One CLI call, expected to exit 0, and the check of its stdout."""

    label: str
    argv: tuple
    check: Callable[[str], "str | None"]


def general_chain(n, seed):
    """Ring ``i -> i+1`` plus `GENERAL_OUT_EDGES` random out-edges per state.

    Every rate is Exp(1).  The ring makes the chain irreducible; the random
    edges make it non-reversible and expander-like.
    """
    rng = np.random.default_rng([seed, n])
    rates = []
    for i in range(n):
        ring = (i + 1) % n
        others = np.setdiff1d(np.arange(n), [i, ring])
        targets = rng.choice(others, size=GENERAL_OUT_EDGES, replace=False)
        for j in (ring, *sorted(int(t) for t in targets)):
            rates.append((i, j, float(rng.exponential())))
    return rates


def _write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def _cached(cache, compute):
    """Read a JSON reference from `cache`, computing and storing it once."""
    if cache.is_file():
        return json.loads(cache.read_text())
    value = compute()
    cache.write_text(json.dumps(value))
    return value


def _verify_3state(seed, work):
    tails = oracles.load_tails("three-state")
    argv = ("verify", "--example", "three-state",
            "--reps", str(THREE_STATE_REPS), "--seed", str(seed))
    return [Op("verify three-state", argv,
               lambda out: oracles.check_verify(
                   out, oracles.THREE_STATE_GAP, tails, t=20.0,
                   eps=tails["eps"], reps=THREE_STATE_REPS))]


def _verify_bd(seed, work):
    tails = oracles.load_tails("bd-2-1-30")
    values = [0.0] * 31
    values[tails["observe"]] = 1.0
    obs = _write_json(work / "indicator0.json",
                      {"values": values, "range": [0.0, 1.0]})
    argv = ("verify", "--bd", "2", "1", "30", "--function", obs,
            "--t", "50", "--eps", "0.05,0.1", "--reps", str(BD_VERIFY_REPS),
            "--workers", "2", "--seed", str(seed))
    gap = oracles.bd_closed_form_gap(2.0, 1.0, 30)
    return [Op("verify bd 2 1 30", argv,
               lambda out: oracles.check_verify(
                   out, gap, tails, t=50.0, eps=tails["eps"],
                   reps=BD_VERIFY_REPS))]


def _bd_gap_op(down, up, n):
    ref = oracles.bd_closed_form_gap(down, up, n)
    return Op(f"gap bd {down:g} {up:g} {n}",
              ("gap", "--bd", f"{down:g}", f"{up:g}", str(n)),
              lambda out: oracles.check_gap(out, ref, oracles.BD_GAP_RTOL))


def _gap_bd(seed, work):
    ops = [_bd_gap_op(*chain) for chain in BD_GAPS]
    refs = [oracles.collapsed_bd_gap(2.0, 1.0, s) for s in SWEEP_SIZES]
    ops.append(Op("sweep bd 2 1 inf",
                  ("sweep", "--bd", "2", "1", "inf", "--sizes",
                   ",".join(map(str, SWEEP_SIZES))),
                  lambda out: oracles.check_sweep(out, SWEEP_SIZES, refs)))
    return ops


def _gap_general(seed, work):
    ops = []
    for n, cmd in ((GENERAL_GAP_STATES, "gap"),
                   (GENERAL_SKELETON_STATES, "skeleton")):
        rates = general_chain(n, seed)
        model = _write_json(work / f"general-{seed}-{n}.json",
                            {"n": n, "rates": [list(r) for r in rates]})

        def reference(n=n, rates=rates, cmd=cmd):
            Q = oracles.dense_generator(n, rates)
            pi = oracles.stationary(Q)
            ref = {"gap": oracles.general_gap(Q, pi)}
            if cmd == "skeleton":
                ref["lambdas"] = oracles.skeleton_lambdas(Q, SKELETON_DELTAS,
                                                          pi)
            return ref

        ref = _cached(work / f"general-{seed}-{n}.ref.json", reference)
        if cmd == "gap":
            check = (lambda out, ref=ref: oracles.check_gap(
                out, ref["gap"], oracles.GENERAL_GAP_RTOL))
        else:
            check = (lambda out, ref=ref: oracles.check_skeleton(
                out, SKELETON_DELTAS, ref["gap"], ref["lambdas"]))
        ops.append(Op(f"{cmd} general n={n}", (cmd, "--model", model), check))
    return ops


def _gap_bd_3000(seed, work):
    return [_bd_gap_op(*BD_GAP_WRONG)]


_BUILDERS = {"verify-3state": _verify_3state, "verify-bd": _verify_bd,
             "gap-bd": _gap_bd, "gap-general": _gap_general,
             "gap-bd-3000": _gap_bd_3000}


def build(name, seed, work):
    """Generate the inputs of workload `name` under `work`; return its ops.

    References are computed here, before anything is timed, and cached in
    `work` per seed.  Any integer seed works; the program sees it reduced
    to 32 bits.
    """
    work = Path(work)
    work.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[name](seed % 2**32, work)
