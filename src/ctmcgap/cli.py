"""Command-line interface.

Subcommands
-----------
gap       Spectral gap of a chain (JSON or CSV report).
verify    Empirical check of the tail bounds by exact simulation.
sweep     Collapsed-chain gap over growing retained sets.
skeleton  Discretization check: skeleton gaps against the continuous gap.

Exit codes: 0 success (and, for verify, every row PASS); 1 a verification
row FAILed; 2 invalid input; 3 numerical failure; 4 output I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from ._report import render_csv
from .bounds import verify as run_verify
from .errors import InvalidInputError, NumericalFailureError
from .generator import (ObservableFunction, build_birth_death,
                        build_three_state, load_model, load_observable,
                        stationary_distribution)
from .skeleton import skeleton_gap_check
from .spectral import SpectralReport, bd_closed_form_gap, spectral_gap
from .truncation import CountableModel, gap_convergence_sweep

DEFAULT_SEED = 12345
# Largest --bd N and sweep --sizes entry accepted.  Each state costs a few
# hundred bytes across the build and the solve (319 MB peak at 10**6), so
# larger sizes are refused before anything of that size is allocated.
MAX_STATES = 10 ** 7

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INVALID = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


class _OutputError(Exception):
    pass


def _write_text(text, path):
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _OutputError(f"cannot write {path}: {exc}")


def _parse_list(text, kind, what):
    try:
        out = [kind(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise InvalidInputError(f"cannot parse {what} list {text!r}")
    if not out:
        raise InvalidInputError(f"{what} list is empty")
    return out


def _add_model_flags(sub):
    grp = sub.add_argument_group("model source (choose exactly one)")
    grp.add_argument("--model", metavar="PATH",
                     help="model JSON file: {n, rates: [[i,j,rate],...]}")
    grp.add_argument("--example", choices=["three-state"],
                     help="a bundled example chain")
    grp.add_argument("--bd", nargs=3, metavar=("DOWN", "UP", "N"),
                     help="constant-rate birth-death chain on 0..N "
                          "(N may be 'inf' where supported)")


def _resolve_model(args, allow_infinite_bd=False):
    """Returns (GeneratorMatrix or None, bd_spec or None).

    bd_spec is (down, up, n_levels) with n_levels possibly math.inf.
    """
    sources = [s for s in (args.model, args.example, args.bd) if s is not None]
    if len(sources) != 1:
        raise InvalidInputError(
            "choose exactly one of --model, --example, --bd")
    if args.model is not None:
        return load_model(args.model), None
    if args.example is not None:
        return build_three_state(), None
    down_s, up_s, n_s = args.bd
    try:
        down, up = float(down_s), float(up_s)
    except ValueError:
        raise InvalidInputError(f"bad birth-death rates {args.bd[:2]!r}")
    if n_s.lower() in ("inf", "infinity"):
        n_levels = math.inf
    else:
        try:
            n_levels = int(n_s)
        except ValueError:
            raise InvalidInputError(f"bad birth-death size {n_s!r}")
        if not 1 <= n_levels <= MAX_STATES:
            raise InvalidInputError(
                f"birth-death size must be in [1, {MAX_STATES}]")
    if math.isinf(n_levels):
        if not allow_infinite_bd:
            raise InvalidInputError(
                "an infinite chain is not supported by this subcommand; "
                "give a finite N")
        return None, (down, up, n_levels)
    Q = build_birth_death(np.full(n_levels, down), np.full(n_levels, up))
    return Q, (down, up, n_levels)


def _cmd_gap(args):
    Q, bd_spec = _resolve_model(args, allow_infinite_bd=True)
    if Q is None:
        down, up, _ = bd_spec
        # positive recurrence needs more down- than up-rate; the gap has a
        # closed form in that regime
        gap = bd_closed_form_gap(down, up, math.inf)
        return SpectralReport(gap=gap, method="closed_form", residual=0.0,
                              iterations=0)
    return spectral_gap(Q, method=args.method)


def _gap_plot(report):
    if report.eigenvalues is None:
        raise InvalidInputError(
            "plot data for 'gap' needs the dense spectrum; "
            "rerun with --method dense")
    return enumerate(report.eigenvalues.tolist())


def _default_observable(n):
    # indicator of the last state; range [0, 1]
    values = np.zeros(n)
    values[n - 1] = 1.0
    return ObservableFunction(values, 0.0, 1.0)


def _cmd_verify(args):
    Q, _ = _resolve_model(args)
    if args.function is not None:
        g = load_observable(args.function)
    else:
        g = _default_observable(Q.n)
    eps = _parse_list(args.eps, float, "eps")
    return run_verify(Q, g, t=args.t, eps_grid=eps, reps=args.reps,
                      seed=args.seed, assert_lezaud_hypotheses=args.lezaud)


def _cmd_sweep(args):
    sizes = _parse_list(args.sizes, int, "sizes")
    if max(sizes) > MAX_STATES:
        raise InvalidInputError(f"sizes must be at most {MAX_STATES}")
    Q, bd_spec = _resolve_model(args, allow_infinite_bd=True)
    limit = None
    if Q is None:
        down, up, _ = bd_spec
        model = CountableModel.birth_death(death_rate=down, birth_rate=up)
        limit = bd_closed_form_gap(down, up, math.inf)
    else:
        pi = stationary_distribution(Q)
        model = CountableModel.from_generator(Q, pi)
    return gap_convergence_sweep(model, sizes, limit_hint=limit)


def _cmd_skeleton(args):
    Q, _ = _resolve_model(args)
    deltas = _parse_list(args.deltas, float, "deltas")
    return skeleton_gap_check(Q, deltas=deltas)


def _run(args):
    """Compute the subcommand's report, write it and its plot data."""
    report = args.func(args)
    # plot data can be refused, so it is built before anything is written
    if args.emit_plotdata:
        pairs = [[float(x), float(y)] for x, y in args.plot(report)]
    text = report.to_json() if args.format == "json" else report.to_csv()
    _write_text(text, args.output)
    if args.emit_plotdata:
        _write_text(render_csv(["x", "y"], pairs), args.emit_plotdata)
    # only verify's report carries a verdict
    if getattr(report, "all_pass", True):
        return EXIT_OK
    return EXIT_VERIFY_FAIL


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ctmcgap",
        description="Spectral gaps and Hoeffding-type tail bounds for "
                    "continuous-time Markov chains, with exact-simulation "
                    "verification.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_gap = subs.add_parser("gap", help="compute a spectral gap")
    _add_model_flags(p_gap)
    p_gap.add_argument("--method", choices=["auto", "dense", "lanczos"],
                       default="auto")
    p_gap.add_argument("--format", choices=["json", "csv"], default="json")
    p_gap.add_argument("--output", metavar="PATH")
    p_gap.add_argument("--emit-plotdata", metavar="PATH",
                       help="write (index, eigenvalue) pairs as CSV")
    p_gap.set_defaults(func=_cmd_gap, plot=_gap_plot)

    p_ver = subs.add_parser("verify",
                            help="simulate and test the tail bounds")
    _add_model_flags(p_ver)
    p_ver.add_argument("--function", metavar="PATH",
                       help="observable JSON {values, range}; default is "
                            "the indicator of the last state")
    p_ver.add_argument("--t", type=float, default=20.0,
                       help="averaging horizon (default 20)")
    p_ver.add_argument("--eps", default="0.05,0.1,0.15,0.2",
                       help="comma-separated deviation levels")
    p_ver.add_argument("--reps", type=int, default=20000,
                       help="replications per level (default 20000)")
    p_ver.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="random-stream seed in [0, 2**64) "
                            f"(default {DEFAULT_SEED})")
    p_ver.add_argument("--workers", type=int,
                       help="ignored: one process walks every replication")
    p_ver.add_argument("--lezaud", action="store_true",
                       help="also report the exponent-12 bound (assert "
                            "that g is centered with sup norm <= 1)")
    p_ver.add_argument("--format", choices=["json", "csv"], default="json")
    p_ver.add_argument("--output", metavar="PATH")
    p_ver.add_argument("--emit-plotdata", metavar="PATH",
                       help="write (eps, p_hat) pairs as CSV")
    p_ver.set_defaults(
        func=_cmd_verify,
        plot=lambda report: [(r.eps, r.p_hat) for r in report.rows])

    p_sw = subs.add_parser("sweep",
                           help="collapsed-chain gap vs retained size")
    _add_model_flags(p_sw)
    p_sw.add_argument("--sizes", default="50,100,200,500",
                      help="comma-separated retained-prefix sizes")
    p_sw.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sw.add_argument("--output", metavar="PATH")
    p_sw.add_argument("--emit-plotdata", metavar="PATH",
                      help="write (size, gap) pairs as CSV")
    p_sw.set_defaults(
        func=_cmd_sweep,
        plot=lambda sweep: zip(sweep.sizes, sweep.gaps))

    p_sk = subs.add_parser("skeleton",
                           help="skeleton-chain discretization check")
    _add_model_flags(p_sk)
    p_sk.add_argument("--deltas", default="0.1,0.05,0.01",
                      help="comma-separated sampling intervals, decreasing")
    p_sk.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sk.add_argument("--output", metavar="PATH")
    p_sk.add_argument("--emit-plotdata", metavar="PATH",
                      help="write (delta, ratio) pairs as CSV")
    p_sk.set_defaults(
        func=_cmd_skeleton,
        plot=lambda table: [(r.delta, r.ratio) for r in table.rows])
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_INVALID
    try:
        return _run(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
