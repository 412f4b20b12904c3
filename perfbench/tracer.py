"""Per-layer tracing of ``ctmcgap`` from outside the package.

The package has no instrumentation of its own, so the traced run wraps the
public function at each layer boundary in every ``ctmcgap`` module namespace
that binds it (``spectral_gap`` is bound in ``cli``, ``bounds``,
``truncation`` and ``skeleton``; ``substream`` is looked up in
``simulate``'s globals) and then calls ``cli.main(argv)`` in-process.  Each
call leaves a span ``[name, start, end, parent, fact]`` in memory; the spans
are written out once, when the command ends.

Worker processes of ``verify --workers N`` inherit the wrappers but their
spans die with them: on a pooled run the simulation time shows up as
``simulate.tail_mc`` self time (``simulate.walk_s``) and the substream count
covers only paths simulated in the parent.

Run as a script, this file is the traced child of one operation::

    python3 perfbench/tracer.py SPANS.json <ctmcgap arguments...>
"""

from __future__ import annotations

import functools
import importlib
import json
import re
import statistics
import sys
from collections import defaultdict
from time import perf_counter

# span name -> the public functions it times, as (module, attribute)
TRACED = {
    "generator.build": [("ctmcgap.generator", "build_birth_death"),
                        ("ctmcgap.generator", "build_three_state")],
    "generator.parse": [("ctmcgap.generator", "load_model"),
                        ("ctmcgap.generator", "load_observable")],
    "generator.stationary": [("ctmcgap.generator",
                              "stationary_distribution")],
    "generator.symmetrize": [("ctmcgap.generator",
                              "additive_symmetrization")],
    "spectral.gap": [("ctmcgap.spectral", "spectral_gap")],
    "spectral.symmetrize": [("ctmcgap.spectral", "symmetrized_form")],
    "spectral.eig": [("ctmcgap._symeig", "deflated_extremal")],
    "truncation.collapse": [("ctmcgap.truncation", "collapse")],
    "truncation.sweep": [("ctmcgap.truncation", "gap_convergence_sweep")],
    "skeleton.check": [("ctmcgap.skeleton", "skeleton_gap_check")],
    "skeleton.expm": [("ctmcgap.skeleton", "transition_matrix_exp")],
    "skeleton.dtmc_gap": [("ctmcgap.skeleton", "dtmc_spectral_gap")],
    "simulate.tail_mc": [("ctmcgap.simulate", "tail_probability_mc")],
    "simulate.substream": [("ctmcgap.simulate", "substream")],
    "simulate.ci": [("ctmcgap.simulate", "clopper_pearson_upper")],
    "bounds.verify": [("ctmcgap.bounds", "verify")],
    "cli.main": [("ctmcgap.cli", "main")],
}

# facts read from a return value: deflated_extremal returns (result, method)
FACTS = {"spectral.eig": lambda out: out[0].iterations}

# metric -> module whose cumulative `-X importtime` time it reports; a
# module's cumulative time includes every module it imported first
IMPORTS = {
    "import.ctmcgap_cli_s": "ctmcgap.cli",
    "import.generator_s": "ctmcgap.generator",
    "import.spectral_s": "ctmcgap.spectral",
    "import.simulate_s": "ctmcgap.simulate",
    "import.bounds_s": "ctmcgap.bounds",
    "import.scipy_stats_s": "scipy.stats",
}


class Recorder:
    """Collects the spans of one traced command."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, fact=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), None,
                          stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if fact is not None:
                spans[idx][4] = fact(out)
            return out

        return traced


def install(recorder):
    """Rebind every traced function in every loaded ``ctmcgap`` module.

    Returns the number of bindings replaced.
    """
    replaced = 0
    for name, targets in TRACED.items():
        for module, attr in targets:
            original = getattr(importlib.import_module(module), attr)
            wrapper = recorder.wrap(name, original, FACTS.get(name))
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("ctmcgap"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        replaced += 1
    return replaced


def self_times(spans):
    """Each span's duration minus the part its direct children cover."""
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for c in sorted(children[idx], key=lambda k: spans[k][1]):
            lo, hi = max(spans[c][1], cursor), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def layer_metrics(ops):
    """Per-layer totals over one pass.

    `ops` holds ``(spans, child_wall_s)`` for each command of the pass.  For
    every span name ``x`` this gives ``x_s`` (inclusive seconds), ``x_calls``
    and ``x_self_s``, plus the named derived metrics and ratios below.
    """
    m = defaultdict(float)
    for spans, wall in ops:
        for span, own in zip(spans, self_times(spans)):
            name, start, end, _, fact = span
            m[f"{name}_s"] += end - start
            m[f"{name}_calls"] += 1
            m[f"{name}_self_s"] += own
            if fact is not None:
                m[f"{name}_iterations"] += fact
        main = sum(s[2] - s[1] for s in spans if s[0] == "cli.main")
        m["cli.process_overhead_s"] += wall - main
    m["simulate.walk_s"] = m["simulate.tail_mc_self_s"]
    m["cli.self_s"] = m["cli.main_self_s"]
    # ratios, each over the count named as its base
    paths = m["simulate.substream_calls"]
    m["simulate.substream_us_per_call"] = \
        1e6 * m["simulate.substream_s"] / paths if paths else 0.0
    m["simulate.walk_us_per_path"] = \
        1e6 * m["simulate.walk_s"] / paths if paths else 0.0
    return m


RATIO_BASES = {"simulate.substream_us_per_call": "simulate.substream_calls",
               "simulate.walk_us_per_path": "simulate.substream_calls"}


_IMPORT_LINE = re.compile(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)")


def import_metrics(stderr):
    """`IMPORTS` metrics, in seconds, from ``python -X importtime`` output."""
    cumulative = {}
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            cumulative.setdefault(match.group(2), int(match.group(1)))
    return {metric: 1e-6 * cumulative.get(module, 0)
            for metric, module in IMPORTS.items()}


def median_metrics(samples):
    """Median of each metric over a list of metric dictionaries."""
    return {k: statistics.median(s.get(k, 0.0) for s in samples)
            for k in set().union(*samples)}


def _traced_main(spans_path, argv):
    import ctmcgap.cli
    recorder = Recorder()
    install(recorder)
    try:
        code = ctmcgap.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(recorder.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(_traced_main(sys.argv[1], sys.argv[2:]))
