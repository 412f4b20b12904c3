import json
import math
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import ctmcgap.cli as climod
from ctmcgap import (SpectralReport, bd_closed_form_gap, build_birth_death,
                     build_three_state, skeleton_gap_check, spectral_gap,
                     verify)
from ctmcgap.cli import main
from conftest import THREE_STATE_GAP


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ------------------------------------------------------------------------ gap

def test_gap_example_stdout(capsys):
    code, out, _ = run(capsys, ["gap", "--example", "three-state"])
    assert code == 0
    obj = json.loads(out)
    assert abs(obj["gap"] - THREE_STATE_GAP) < 1e-10
    assert obj["method"] == "dense"
    assert set(obj) == {"gap", "method", "residual", "iterations"}


def test_gap_birth_death_finite(capsys):
    code, out, _ = run(capsys, ["gap", "--bd", "2", "1", "50"])
    assert code == 0
    assert abs(json.loads(out)["gap"]
               - bd_closed_form_gap(2.0, 1.0, 50)) < 1e-8


@pytest.mark.parametrize("down, up", [("2", "1"), ("1.1", "1.0")])
@pytest.mark.parametrize("N", [1500, 2001, 3000, 10 ** 5, 10 ** 6])
def test_gap_birth_death_large_matches_closed_form(capsys, N, down, up):
    # "--bd 2 1 1500" used to exit 3 (pi underflow), and above 2 000 states
    # the gap was wrong
    code, out, _ = run(capsys, ["gap", "--bd", down, up, str(N)])
    assert code == 0
    obj = json.loads(out)
    ref = bd_closed_form_gap(float(down), float(up), N)
    assert abs(obj["gap"] - ref) <= 1e-10 * ref
    assert obj["method"] == "tridiagonal" and obj["iterations"] == 0


def test_sweep_finite_birth_death_above_2000_states(capsys):
    # collapsing 0..3000 or 0..inf onto a 100- or 200-state prefix gives
    # the same chain to double precision; with rates (2, 1) pi underflows
    # past about 1 075 states
    for down in ("1.1", "2"):
        gaps = []
        for n in ("3000", "inf"):
            code, out, _ = run(capsys, ["sweep", "--bd", down, "1", n,
                                        "--sizes", "100,200",
                                        "--format", "json"])
            assert code == 0
            gaps.append(json.loads(out)["gaps"])
        assert np.allclose(gaps[0], gaps[1], rtol=1e-10, atol=0.0)


def _collapsed_bd_gap(down, up, n):
    # the chain on 0..n-1 plus a tail state that returns to n-1 at rate
    # down - up, solved as a symmetric tridiagonal matrix on its own
    diag = np.full(n + 1, down + up)
    diag[0], diag[n] = up, down - up
    off = np.full(n, math.sqrt(down * up))
    off[-1] = math.sqrt(up * (down - up))
    w, _ = eigh_tridiagonal(diag, -off, select="i", select_range=(1, 1))
    return w[0]


@pytest.mark.parametrize("down, sizes", [("2", [1000, 1100]),
                                         ("1.1", [1000, 5000, 20000])])
def test_sweep_where_weights_underflow(capsys, down, sizes):
    # the tail weight of (2, 1) at 1 100 states, and pi of (1.1, 1) at
    # 20 000, are below the double range; they are kept in log scale
    code, out, err = run(capsys, ["sweep", "--bd", down, "1", "inf",
                                  "--sizes", ",".join(map(str, sizes)),
                                  "--format", "json"])
    assert code == 0, err
    for n, gap in zip(sizes, json.loads(out)["gaps"]):
        ref = _collapsed_bd_gap(float(down), 1.0, n)
        assert abs(gap - ref) <= 1e-10 * ref


@pytest.mark.parametrize("argv", [
    [*cmd, size] for size in (str(climod.MAX_STATES + 1), "10000000000000")
    for cmd in (["gap", "--bd", "2", "1"], ["verify", "--bd", "2", "1"],
                ["sweep", "--bd", "2", "1", "inf", "--sizes"])])
def test_sizes_past_the_cap_exit_2_at_once(capsys, argv):
    t0 = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - t0 < 2.0
    assert code == 2 and out == ""
    assert str(climod.MAX_STATES) in err


def test_verify_birth_death_above_2000_states(capsys):
    # at 1 500 states with rates (2, 1) pi underflows
    for down, n in ((1.1, 2500), (2.0, 1500)):
        code, out, _ = run(capsys, ["verify", "--bd", str(down), "1", str(n),
                                    "--reps", "20", "--t", "1",
                                    "--eps", "0.5"])
        assert code == 0
        obj = json.loads(out)
        ref = bd_closed_form_gap(down, 1.0, n)
        assert abs(obj["gap"] - ref) <= 1e-10 * ref
        assert obj["gap_method"] == "tridiagonal"


def test_gap_birth_death_infinite_closed_form(capsys):
    code, out, _ = run(capsys, ["gap", "--bd", "2", "1", "inf"])
    assert code == 0
    obj = json.loads(out)
    assert obj["method"] == "closed_form"
    assert abs(obj["gap"] - (math.sqrt(2.0) - 1.0) ** 2) < 1e-15


def test_gap_csv_format(capsys):
    code, out, _ = run(capsys, ["gap", "--example", "three-state",
                                "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "gap,method,residual,iterations"
    assert abs(float(lines[1].split(",")[0]) - THREE_STATE_GAP) < 1e-10


def test_gap_model_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(
        {"n": 2, "rates": [[0, 1, 2.0], [1, 0, 1.0]]}))
    code, out, _ = run(capsys, ["gap", "--model", str(path)])
    assert code == 0
    assert abs(json.loads(out)["gap"] - 3.0) < 1e-10


def test_gap_missing_model_exits_2(capsys):
    code, _, err = run(capsys, ["gap", "--model", "/nonexistent/m.json"])
    assert code == 2
    assert "not found" in err


def test_gap_malformed_model_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "rates": [[0, 1, 1.0], [0, 1, 2.0]]}')
    code, _, err = run(capsys, ["gap", "--model", str(bad)])
    assert code == 2
    assert "duplicate" in err


@pytest.mark.parametrize("rates", [
    [[0, 1, 1.0]],                              # state 1 is absorbing
    [[0, 1, 1.0], [1, 0, 1.0], [2, 0, 1.0]],    # state 2 is transient
    [[0, 1, 1.0], [1, 0, 0.0]],                 # a zero rate is no edge
])
def test_gap_reducible_model_exits_2(tmp_path, capsys, rates):
    path = tmp_path / "reducible.json"
    path.write_text(json.dumps({"n": max(max(r[:2]) for r in rates) + 1,
                                "rates": rates}))
    code, _, err = run(capsys, ["gap", "--model", str(path)])
    assert code == 2
    assert "strongly connected" in err and str(path) in err


@pytest.mark.parametrize("text", [
    '{"n": 2, "rates": [[0, 1, 1.0], [Infinity, 0, 1.0]]}',
    '{"n": Infinity, "rates": [[0, 1, 1.0], [1, 0, 1.0]]}',
    '{"n": 10000000000000, "rates": [[0, 1, 1.0], [1, 0, 1.0]]}',
    '{"n": 2, "rates": [[0.5, 1, 1.0], [1, 0, 1.0]]}',
    '{"n": 2, "rates": [[0, 1, 1.0], [1.9, 0, 1.0]]}',
    '{"n": 2.5, "rates": [[0, 1, 1.0], [1, 0, 1.0]]}',
    '{"n": 2, "rates": [[0, 1, 1.0], [1, 0, 1.0], [1, 1, 0.0], [1, 1, 0.0]]}',
], ids=["inf-index", "inf-n", "huge-n", "index-0.5", "index-1.9",
        "n-2.5", "repeated-diagonal"])
def test_gap_malformed_model_fuzz_exits_2(tmp_path, capsys, text):
    path = tmp_path / "fuzz.json"
    path.write_text(text)
    code, out, err = run(capsys, ["gap", "--model", str(path)])
    assert code == 2
    assert out == "" and str(path) in err


@pytest.mark.parametrize("text", [
    '{"values": ["x", 0, 1], "range": [0, 1]}',
    '{"values": [0, 0, 1], "range": [0, "b"]}',
    '{"values": [0, 0, 1], "range": [0, null]}',
    '{"values": [0, 1], "range": [0, 1]}',
], ids=["string-value", "string-bound", "null-bound", "wrong-length"])
def test_verify_malformed_function_exits_2(tmp_path, capsys, text):
    path = tmp_path / "g.json"
    path.write_text(text)
    code, out, _ = run(capsys, ["verify", "--example", "three-state",
                                "--reps", "10", "--function", str(path)])
    assert code == 2 and out == ""


def test_unreadable_model_file_exits_2(tmp_path, capsys):
    (tmp_path / "latin1.json").write_bytes(
        b'{"n": 1, "rates": [], "labels": ["\xe9"]}')
    for path in (tmp_path, tmp_path / "latin1.json"):
        code, _, err = run(capsys, ["gap", "--model", str(path)])
        assert code == 2 and "cannot read model file" in err


@pytest.mark.parametrize("flag, text", [
    ("--model", '{"n": 2, "rates": [[0, 1, 1.0], [Infinity, 0, 1.0]]}'),
    ("--function", '{"values": ["x", 0, 1], "range": [0, 1]}'),
], ids=["model", "function"])
def test_malformed_file_exits_2_without_traceback_in_a_process(tmp_path,
                                                                flag, text):
    # main() catches three exception types; only a real process shows that
    # nothing else escapes
    path = tmp_path / "bad.json"
    path.write_text(text)
    model = [] if flag == "--model" else ["--example", "three-state"]
    src = os.path.dirname(os.path.dirname(climod.__file__))
    argv = [sys.executable, "-m", "ctmcgap.cli", "verify", "--reps", "1",
            flag, str(path)] + model
    out = subprocess.run(argv, capture_output=True, text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == 2
    assert out.stdout == ""
    assert "Traceback" not in out.stderr and "error:" in out.stderr


def test_gap_requires_exactly_one_source(capsys):
    code, _, err = run(capsys, ["gap", "--example", "three-state",
                                "--bd", "2", "1", "5"])
    assert code == 2
    assert "exactly one" in err
    code, _, err = run(capsys, ["gap"])
    assert code == 2


def test_gap_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, ["gap", "--example", "three-state",
                                "--output", str(out_path)])
    assert code == 0 and out == ""
    assert abs(json.loads(out_path.read_text())["gap"]
               - THREE_STATE_GAP) < 1e-10


def test_unwritable_output_exits_4(capsys):
    code, _, err = run(capsys, ["gap", "--example", "three-state",
                                "--output", "/nonexistent-dir/x.json"])
    assert code == 4
    assert "output" in err


def test_gap_plotdata_spectrum(tmp_path, capsys):
    plot = tmp_path / "plot.csv"
    code, _, _ = run(capsys, ["gap", "--example", "three-state",
                              "--method", "dense",
                              "--emit-plotdata", str(plot)])
    assert code == 0
    lines = plot.read_text().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 4  # three eigenvalues


@pytest.mark.parametrize("to_file", [False, True])
def test_refused_plotdata_writes_nothing(tmp_path, capsys, to_file):
    # the Lanczos path has no dense spectrum to plot
    plot, report = tmp_path / "plot.csv", tmp_path / "report.json"
    argv = ["gap", "--bd", "2", "1", "10", "--method", "lanczos",
            "--emit-plotdata", str(plot)]
    if to_file:
        argv += ["--output", str(report)]
    code, out, err = run(capsys, argv)
    assert code == 2 and "dense spectrum" in err
    assert out == ""
    assert not plot.exists() and not report.exists()


# --------------------------------------------------------------------- verify

def test_verify_small_passes(tmp_path, capsys):
    out_path = tmp_path / "v.json"
    code, _, _ = run(capsys, ["verify", "--example", "three-state",
                              "--reps", "300", "--eps", "0.1,0.2",
                              "--t", "10", "--output", str(out_path)])
    assert code == 0
    obj = json.loads(out_path.read_text())
    assert obj["all_pass"] is True
    assert obj["seed"] == 12345  # documented default
    assert len(obj["rows"]) == 2


def test_verify_byte_identical_reruns(tmp_path, capsys):
    args = ["verify", "--example", "three-state", "--reps", "200",
            "--eps", "0.1", "--t", "5"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_verify_csv_and_plotdata(tmp_path, capsys):
    plot = tmp_path / "p.csv"
    code, out, _ = run(capsys, ["verify", "--example", "three-state",
                                "--reps", "100", "--eps", "0.1,0.2",
                                "--t", "5", "--format", "csv",
                                "--emit-plotdata", str(plot)])
    assert code == 0
    assert out.splitlines()[0].startswith("eps,t,reps,p_hat,ci_upper")
    plines = plot.read_text().splitlines()
    assert plines[0] == "x,y" and len(plines) == 3


def test_verify_custom_function(tmp_path, capsys):
    fpath = tmp_path / "g.json"
    fpath.write_text(json.dumps({"values": [1.0, 0.0, 0.0],
                                 "range": [0, 1]}))
    code, out, _ = run(capsys, ["verify", "--example", "three-state",
                                "--function", str(fpath), "--reps", "100",
                                "--eps", "0.2", "--t", "5"])
    assert code == 0
    assert abs(json.loads(out)["pi_g"] - 1.0 / 3.0) < 1e-12


def test_verify_zero_reps_exits_2(capsys):
    code, _, err = run(capsys, ["verify", "--example", "three-state",
                                "--reps", "0"])
    assert code == 2
    assert "reps" in err


def test_verify_bad_eps_list_exits_2(capsys):
    code, _, err = run(capsys, ["verify", "--example", "three-state",
                                "--eps", "abc"])
    assert code == 2


@pytest.mark.parametrize("flags", [["--t", "inf"], ["--eps", "0.1,inf"],
                                   ["--eps", "nan"]])
def test_verify_non_finite_input_exits_2_at_once(flags):
    # a child with a timeout: an accepted infinite horizon would simulate
    # until the explosion guard trips
    src = os.path.dirname(os.path.dirname(climod.__file__))
    argv = [sys.executable, "-m", "ctmcgap.cli", "verify", "--example",
            "three-state", "--reps", "1"] + flags
    out = subprocess.run(argv, capture_output=True, text=True, timeout=15,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == 2
    assert out.stdout == ""


def test_verify_fail_rows_exit_1(monkeypatch, capsys):
    import ctmcgap.cli as climod

    class FakeRow:
        verdict = "FAIL"

    class FakeReport:
        rows = [FakeRow()]
        all_pass = False

        def to_json(self):
            return "{}"

    monkeypatch.setattr(climod, "run_verify",
                        lambda *a, **kw: FakeReport())
    code, _, _ = run(capsys, ["verify", "--example", "three-state",
                              "--reps", "10"])
    assert code == 1


def test_verify_output_does_not_depend_on_workers(capsys):
    # --workers still parses, so that old command lines run, and is ignored
    args = ["verify", "--example", "three-state", "--reps", "300",
            "--eps", "0.1,0.2", "--t", "5"]
    outs = [run(capsys, args)[1]]
    for workers in ("1", "2", "5"):
        outs.append(run(capsys, args + ["--workers", workers])[1])
    assert outs[0] and all(out == outs[0] for out in outs)


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_verify_seed_outside_key_range_exits_2(capsys, seed):
    code, out, err = run(capsys, ["verify", "--example", "three-state",
                                  "--reps", "10", "--seed", seed])
    assert code == 2
    assert out == ""
    assert "seed" in err and "Traceback" not in err


def test_default_verify_matches_reference_tails(capsys):
    # the 2 000 000-path tails the benchmark oracle records; 20 000 paths
    # put each p_hat within a few standard errors of them
    tails_file = (pathlib.Path(__file__).resolve().parents[1] / "perfbench"
                  / "reference_tails.json")
    ref = json.loads(tails_file.read_text())["three-state"]
    code, out, _ = run(capsys, ["verify", "--example", "three-state"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["eps"] for r in rows] == ref["eps"]
    p_hat = [r["p_hat"] for r in rows]
    assert all(a >= b for a, b in zip(p_hat, p_hat[1:]))
    for r, p in zip(rows, ref["p"]):
        sigma = math.sqrt(p * (1 - p) / r["reps"] + p * (1 - p) / ref["reps"])
        assert abs(r["p_hat"] - p) <= 5 * sigma


# ---------------------------------------------------------------------- sweep

def test_sweep_infinite_bd(capsys):
    code, out, _ = run(capsys, ["sweep", "--bd", "2", "1", "inf",
                                "--sizes", "10,20,40"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "size,gap,diff,seconds"
    limit = (math.sqrt(2.0) - 1.0) ** 2
    gaps = [float(l.split(",")[1]) for l in lines[1:]]
    dists = [abs(g - limit) for g in gaps]
    assert dists[0] > dists[1] > dists[2]


@pytest.mark.parametrize("argv", [
    ["sweep", "--bd", "inf", "1", "inf", "--sizes", "5"],
    ["sweep", "--bd", "nan", "1", "inf", "--sizes", "5"],
    ["gap", "--bd", "inf", "1", "5"],
])
def test_non_finite_bd_rate_exits_2(capsys, argv):
    code, _, err = run(capsys, argv)
    assert code == 2
    assert "rate at level 1 is not positive and finite" in err


def test_sweep_finite_model(capsys):
    code, out, _ = run(capsys, ["sweep", "--bd", "2", "1", "30",
                                "--sizes", "10,20"])
    assert code == 0
    assert len(out.splitlines()) == 3


def test_sweep_json_format(capsys):
    code, out, _ = run(capsys, ["sweep", "--bd", "2", "1", "inf",
                                "--sizes", "5,10", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["sizes"] == [5, 10]
    assert obj["diffs"][0] is None
    assert abs(obj["limit_hint"] - (math.sqrt(2.0) - 1.0) ** 2) < 1e-15


def test_sweep_empty_sizes_exits_2(capsys):
    code, _, _ = run(capsys, ["sweep", "--bd", "2", "1", "inf",
                              "--sizes", ""])
    assert code == 2


def test_sweep_transient_chain_exits_2(capsys):
    code, _, err = run(capsys, ["sweep", "--bd", "1", "2", "inf",
                                "--sizes", "5,10"])
    assert code == 2
    assert "recurrence" in err


# ------------------------------------------------------------------- skeleton

def test_skeleton_csv(capsys):
    code, out, _ = run(capsys, ["skeleton", "--example", "three-state",
                                "--deltas", "0.1,0.05,0.01"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "delta,lambda_P,ratio,abs_error"
    errs = [float(l.split(",")[3]) for l in lines[1:]]
    assert errs[0] > errs[1] > errs[2]


def test_skeleton_json_and_plotdata(tmp_path, capsys):
    plot = tmp_path / "sk.csv"
    code, out, _ = run(capsys, ["skeleton", "--example", "three-state",
                                "--deltas", "0.2,0.1", "--format", "json",
                                "--emit-plotdata", str(plot)])
    assert code == 0
    obj = json.loads(out)
    assert abs(obj["gap_reference"] - THREE_STATE_GAP) < 1e-10
    assert len(obj["rows"]) == 2
    assert plot.read_text().splitlines()[0] == "x,y"


def test_skeleton_increasing_deltas_exit_2(capsys):
    code, _, err = run(capsys, ["skeleton", "--example", "three-state",
                                "--deltas", "0.01,0.1"])
    assert code == 2
    assert "decreasing" in err


def test_skeleton_infinite_bd_rejected(capsys):
    code, _, err = run(capsys, ["skeleton", "--bd", "2", "1", "inf"])
    assert code == 2
    assert "finite" in err


def test_skeleton_of_underflowing_pi_meets_the_reversible_oracle():
    # pi of the (2, 1) chain reads 0 past about 1 075 states; the kernel is
    # weighted in log scale, and the skeleton of a reversible chain has
    # lambda_P = exp(-delta * gap) exactly
    Q = build_birth_death(np.full(1099, 2.0), np.full(1099, 1.0))
    table = skeleton_gap_check(Q, deltas=[0.1])
    lam = table.rows[0].lambda_P
    assert abs(lam - math.exp(-0.1 * table.gap_reference)) <= 1e-12


# ------------------------------------------------------------ output contract

def _cli_stdout(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return out


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_gap_stdout_is_the_report(capsys, fmt):
    cases = [
        (["--example", "three-state"], spectral_gap(build_three_state())),
        (["--bd", "2", "1", "50"],
         spectral_gap(build_birth_death([2.0] * 50, [1.0] * 50))),
        (["--bd", "2", "1", "inf"],
         SpectralReport(gap=bd_closed_form_gap(2.0, 1.0, math.inf),
                        method="closed_form", residual=0.0, iterations=0)),
    ]
    for source, report in cases:
        out = _cli_stdout(capsys, ["gap", *source, "--format", fmt])
        expected = report.to_json() + "\n" if fmt == "json" \
            else report.to_csv()
        assert out == expected


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_stdout_is_the_report(capsys, fmt):
    out = _cli_stdout(capsys, ["verify", "--example", "three-state",
                               "--reps", "200", "--eps", "0.1,0.2",
                               "--t", "5", "--format", fmt])
    Q = build_three_state()
    report = verify(Q, climod._default_observable(Q.n), t=5.0,
                    eps_grid=[0.1, 0.2], reps=200, seed=climod.DEFAULT_SEED)
    assert out == (report.to_json() + "\n" if fmt == "json"
                   else report.to_csv())


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_sweep_stdout_is_the_report(monkeypatch, capsys, fmt):
    # the seconds differ between runs, so compare with the report the CLI
    # itself computed
    sweeps = []
    original = climod.gap_convergence_sweep

    def recording_sweep(*args, **kwargs):
        sweeps.append(original(*args, **kwargs))
        return sweeps[-1]

    monkeypatch.setattr(climod, "gap_convergence_sweep", recording_sweep)
    out = _cli_stdout(capsys, ["sweep", "--bd", "2", "1", "inf",
                               "--sizes", "5,10", "--format", fmt])
    (sweep,) = sweeps
    assert out == (sweep.to_json() + "\n" if fmt == "json"
                   else sweep.to_csv())
    assert set(sweep.to_dict()) == {"sizes", "gaps", "diffs", "seconds",
                                    "limit_hint"}


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_skeleton_stdout_is_the_report(capsys, fmt):
    out = _cli_stdout(capsys, ["skeleton", "--example", "three-state",
                               "--deltas", "0.2,0.1", "--format", fmt])
    table = skeleton_gap_check(build_three_state(), deltas=[0.2, 0.1])
    assert out == (table.to_json() + "\n" if fmt == "json"
                   else table.to_csv())
    obj = table.to_dict()
    assert set(obj) == {"gap_reference", "rows"}
    assert all(set(r) == {"delta", "lambda_P", "ratio", "abs_error"}
               for r in obj["rows"])


def _modules_after_cli_import(*names, argv=None):
    # run the same source tree the tests import; with `argv`, report again
    # after main(argv) has run
    src = os.path.dirname(os.path.dirname(climod.__file__))
    seen = f"[m in sys.modules for m in {names!r}]"
    code = f"import sys, ctmcgap.cli; seen = {seen}; "
    if argv is not None:
        code += f"ctmcgap.cli.main({argv!r}); seen += {seen}; "
    code += "print(seen)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    return out.splitlines()[-1]


def test_cli_import_leaves_out_scipy_stats():
    assert _modules_after_cli_import("scipy.stats") == "[False]"


def test_cli_import_leaves_out_scipy_special():
    # only verify's confidence limit needs it, and imports it when called
    assert _modules_after_cli_import("scipy.special") == "[False]"


def test_birth_death_gap_leaves_out_csgraph_and_sparse_linalg():
    # a general chain's irreducibility check and the Lanczos solver import
    # them when called; a birth-death gap needs neither
    assert _modules_after_cli_import(
        "scipy.sparse.csgraph", "scipy.sparse.linalg",
        argv=["gap", "--bd", "2", "1", "10"]) == "[False, False, False, False]"


def test_closed_stdout_exits_4_without_traceback():
    # the reader of stdout is gone before anything is written: the report
    # cannot be delivered, which is an output error and not a FAIL verdict
    src = os.path.dirname(os.path.dirname(climod.__file__))
    argv = [sys.executable, "-m", "ctmcgap.cli", "verify", "--example",
            "three-state", "--reps", "20"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE,
                             text=True, timeout=60,
                             env=dict(os.environ, PYTHONPATH=src))
    finally:
        os.close(write_end)
    assert out.returncode == climod.EXIT_IO
    assert "output error:" in out.stderr
    assert "Traceback" not in out.stderr
    assert "Exception ignored" not in out.stderr
