"""Benchmark of the ``ctmcgap`` command-line tool.

One run is a single-client closed loop: it runs a workload's commands one
after another, each in a fresh ``python -m ctmcgap.cli`` process, and
repeats them in turn until ``--seconds`` are used (each at least once).
The program sees only generated inputs: a ``--seed`` and model and
observable files written under ``perfbench/_work``.  Every output is
checked by an oracle in ``oracles.py`` that does not import the package.
See ``workloads.py`` for what each workload runs and why.

    python3 perfbench/run.py --workload gap-bd --seed 1 --seconds 40 --trace 0

The machine the benchmark was written on is shared, and its speed drifts
by up to 1.7x from one minute to the next (see BASELINE.md).  So a fixed
calibration program that does not import ``ctmcgap`` (CALIBRATION_CODE)
runs before and after every timed child, and each child's wall time is
divided by the mean of those two runs.  Timed metrics are these ratios
times REFERENCE_S: seconds on a machine where the calibration program
takes REFERENCE_S.  The raw wall times and the calibration times are
printed on the ``samples:`` line.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:

wall_s       one pass over the workload's commands: the sum over commands
             of each one's median calibrated time
setup_s      a fresh interpreter's ``import ctmcgap.cli``: the median of
             SETUP_REPEATS calibrated imports made before the commands
peak_rss_mb  the largest over commands of the median peak RSS of the
             command's process tree (pool workers included, ``os.wait4``)
ok_share     share of commands that exit 0 with an output that passes its
             oracle (``1 - failed/attempted``); ``correct`` is true only
             when every command does

With ``--trace 1`` each command runs untraced and then traced (see
``tracer.py``) in turn; the run reports the per-layer metrics of
``BENCHMARK.json`` as medians over complete traced passes, the import
breakdown from ``python -X importtime``, and ``trace.overhead_s``, the
calibrated traced minus untraced pass time.  All spans of the run, each
tagged with its op id, are written to
``perfbench/_work/spans-<workload>-<seed>.json``.

``--all`` runs every workload in both modes, prints each metric with its
unit, and writes the lot, with the machine record, to
``perfbench/_work/BENCH_<label>.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

SETUP_REPEATS = 3
IMPORT_CMD = [sys.executable, "-c", "import ctmcgap.cli"]
IMPORTTIME_REPEATS = 3
# an operation still running this long after the run started is killed and
# counted as failed, so that a run always ends within 180 s
RUN_LIMIT_S = 170.0


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


@dataclass
class Child:
    wall_s: float
    code: int
    rss_mb: float
    stdout: str
    stderr: str


def run_child(cmd, deadline):
    """Run `cmd` from the repository root and wait for it and its workers.

    Peak RSS comes from ``os.wait4``, which covers the child and every
    descendant it reaped.  A child still running at `deadline` (a
    ``perf_counter`` value) is killed with its whole process group.
    """
    with tempfile.TemporaryFile(dir=WORK) as out, \
            tempfile.TemporaryFile(dir=WORK) as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT,
                                env=_child_env(), start_new_session=True)

        def kill():
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(max(deadline - start, 1.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(wall, proc.returncode, usage.ru_maxrss / 1024.0,
                     out.read().decode(errors="replace"),
                     err.read().decode(errors="replace"))


# A fixed program that does not import ctmcgap: it starts an interpreter,
# imports NumPy and SciPy and runs some pure-Python and LAPACK work, about
# 0.65 s on the machine of BASELINE.md.  It runs before and after every
# timed child, and each child's wall time is divided by the mean of the two
# runs, so that a slow or fast phase of a shared machine cancels out.
CALIBRATION_CODE = """
import numpy as np
import scipy.linalg
s = 0
for i in range(300000):
    s += i * i % 7
a = np.random.default_rng(0).random((200, 200))
for _ in range(10):
    scipy.linalg.eigvalsh(a + a.T)
"""
# Timed figures are reported in seconds on a machine that runs the
# calibration program in this many seconds.
REFERENCE_S = 0.65
SETUP = -1      # op index of a setup sample: a bare `import ctmcgap.cli`


@dataclass
class Sample:
    """One timed child: an op (or SETUP) and its calibrated wall time."""

    op: int
    traced: bool
    wall_s: float
    ratio: float        # wall_s / mean of the calibration runs beside it
    rss_mb: float
    failure: str | None = None
    spans: list = field(default_factory=list)


class Calibrated:
    """Runs children between calibration runs and records each one."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.calibration = [self._calibrate()]
        self.samples = []

    def _calibrate(self):
        child = run_child([sys.executable, "-c", CALIBRATION_CODE],
                          self.deadline)
        if child.code != 0:
            raise RuntimeError(f"calibration failed: {child.stderr}")
        return child.wall_s

    def run(self, op, traced, cmd):
        """Run `cmd`, then calibrate; return its Sample and its Child."""
        child = run_child(cmd, self.deadline)
        self.calibration.append(self._calibrate())
        speed = (self.calibration[-2] + self.calibration[-1]) / 2
        sample = Sample(op, traced, child.wall_s, child.wall_s / speed,
                        child.rss_mb)
        self.samples.append(sample)
        return sample, child


def check(op, child):
    """None when `child` exited 0 with an output that passes the oracle."""
    if child.code != 0:
        return f"exit {child.code}: {child.stderr.strip()[-300:]}"
    try:
        return op.check(child.stdout)
    except (AttributeError, IndexError, KeyError, TypeError,
            ValueError) as exc:
        return f"unreadable output ({exc!r})"


def run_op(cal, ops, k, traced):
    """Run op `k` once, plain or traced, and check its output."""
    if traced:
        spans_path = WORK / f"spans-{os.getpid()}-{k}.json"
        cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans_path),
               *ops[k].argv]
    else:
        cmd = [sys.executable, "-m", "ctmcgap.cli", *ops[k].argv]
    sample, child = cal.run(k, traced, cmd)
    sample.failure = check(ops[k], child)
    if traced:
        sample.spans = json.loads(spans_path.read_text()) \
            if spans_path.is_file() else []
        spans_path.unlink(missing_ok=True)


def measure(ops, seconds, trace, deadline):
    """The `Calibrated` record of a run of about `seconds`.

    Without `trace`, SETUP_REPEATS setup samples come first.  Then the ops
    run in turn, each plain and, with `trace`, also traced right after,
    until the next one would end after `seconds`; every op runs at least
    once in each mode.
    """
    t0 = perf_counter()
    run_child(IMPORT_CMD, deadline)      # warm the page and bytecode caches
    cal = Calibrated(deadline)
    for _ in range(0 if trace else SETUP_REPEATS):
        _, child = cal.run(SETUP, False, IMPORT_CMD)
        if child.code != 0:
            raise RuntimeError(f"import ctmcgap.cli failed: {child.stderr}")
    modes = (False, True) if trace else (False,)
    turns = [(k, traced) for k in range(len(ops)) for traced in modes]
    last = {}     # turn -> seconds its last run took, calibration included
    for k, traced in itertools.cycle(turns):
        if len(last) == len(turns) and \
                perf_counter() - t0 + last[k, traced] > seconds:
            break
        start = perf_counter()
        run_op(cal, ops, k, traced)
        last[k, traced] = perf_counter() - start
    return cal


def summarize(samples, n_ops, traced=False):
    """Reference seconds of one pass: the sum over ops of each op's median
    calibrated time, times REFERENCE_S."""
    return REFERENCE_S * sum(
        statistics.median(s.ratio for s in samples
                          if s.op == k and s.traced == traced)
        for k in range(n_ops))


def traced_passes(samples, n_ops):
    """The traced samples grouped into complete passes, as (spans, wall)
    lists in op order, for `tracer.layer_metrics`."""
    per_op = [[s for s in samples if s.op == k and s.traced]
              for k in range(n_ops)]
    return [[(per_op[k][i].spans, per_op[k][i].wall_s) for k in range(n_ops)]
            for i in range(min(len(p) for p in per_op))]


def import_breakdown(deadline):
    """Median `tracer.IMPORTS` metrics over IMPORTTIME_REPEATS runs."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import ctmcgap.cli"]
    return tracer.median_metrics(
        [tracer.import_metrics(run_child(cmd, deadline).stderr)
         for _ in range(IMPORTTIME_REPEATS)])


def machine_record(seed):
    """The facts a reader needs to compare runs across machines."""
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": _blas_threads(), "seed": seed, "commit": commit}


def _blas_threads():
    """Thread count of the OpenBLAS that NumPy loaded, if it says."""
    import numpy.linalg  # noqa: F401  (loads BLAS)
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.argtypes, getter.restype = [], ctypes.c_int
                return getter()
    return None


def run_workload(name, seed, seconds, trace):
    """One benchmark run; returns the result object of the contract."""
    deadline = perf_counter() + RUN_LIMIT_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(exist_ok=True)
    ops = workloads.build(name, seed, WORK)
    if trace:       # the import breakdown counts within the run's seconds
        start = perf_counter()
        imports = import_breakdown(deadline)
        seconds -= perf_counter() - start
    cal = measure(ops, seconds, trace, deadline)
    samples = cal.samples
    runs = [s for s in samples if s.op != SETUP]
    failures = [f"{ops[s.op].label}: {s.failure}" for s in runs if s.failure]
    wall = summarize(samples, len(ops))
    if trace:
        passes = traced_passes(samples, len(ops))
        # every span of the run, tagged with its op id "<pass>.<op>"
        (WORK / f"spans-{name}-{seed}.json").write_text(json.dumps(
            [[f"{i}.{k}", *span] for i, p in enumerate(passes)
             for k, (spans, _) in enumerate(p) for span in spans]))
        values = tracer.median_metrics(
            [tracer.layer_metrics(p) for p in passes])
        values.update(imports)
        values["trace.overhead_s"] = \
            summarize(samples, len(ops), traced=True) - wall
        wanted = spec["per_layer"]
    else:
        setup = [s.ratio for s in samples if s.op == SETUP]
        values = {"wall_s": wall,
                  "setup_s": REFERENCE_S * statistics.median(setup),
                  "peak_rss_mb": max(
                      statistics.median(s.rss_mb for s in runs if s.op == k)
                      for k in range(len(ops))),
                  "ok_share": 1.0 - len(failures) / len(runs)}
        wanted = spec["end_to_end"]
    return {"correct": not failures, "attempted": len(runs),
            "failed": len(failures),
            "metrics": {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                                    "unit": m["unit"]} for m in wanted},
            "samples": {"raw_wall_s": [[s.op, int(s.traced),
                                        round(s.wall_s, 3)] for s in samples],
                        "calibration_s": [round(c, 3)
                                          for c in cal.calibration]},
            "failures": sorted(set(failures))}


def _report_all(seed, seconds):
    """--all: every workload, both modes, printed and written to a file."""
    record = {"machine": machine_record(seed), "seconds": seconds,
              "workloads": {}}
    for name in workloads.NAMES:
        record["workloads"][name] = {}
        for trace in (0, 1):
            result = run_workload(name, seed, seconds, trace)
            record["workloads"][name][f"trace{trace}"] = result
            print(f"== {name} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for failure in result["failures"]:
                print(f"   FAILED {failure}")
            for metric, v in result["metrics"].items():
                base = tracer.RATIO_BASES.get(metric)
                base = f"  (base: {result['metrics'][base]['value']:g} " \
                       f"{base})" if base else ""
                print(f"   {metric:34s} {v['value']:14.6g} {v['unit']}{base}")
    label = time.strftime("%Y%m%dT%H%M%S")
    path = WORK / f"BENCH_{label}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload in both modes and write "
                             "perfbench/_work/BENCH_<label>.json")
    args = parser.parse_args(argv)
    if not (SRC / "ctmcgap" / "cli.py").is_file():
        print(f"no ctmcgap sources under {SRC}", file=sys.stderr)
        return 2
    if args.all:
        _report_all(args.seed, args.seconds)
        return 0
    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print("machine: " + json.dumps(machine_record(args.seed), sort_keys=True))
    for failure in result.pop("failures"):
        print(f"FAILED {failure}")
    print(f"samples: {json.dumps(result.pop('samples'))}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
