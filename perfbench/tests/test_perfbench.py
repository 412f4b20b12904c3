"""Tests of the benchmark's own oracles, fixtures and trace arithmetic."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _gap_json(gap):
    return json.dumps({"gap": gap, "iterations": 0, "method": "lanczos",
                       "residual": 0.0})


def test_gap_oracle_rejects_perturbed_gap():
    ref = oracles.bd_closed_form_gap(2.0, 1.0, 1000)
    assert oracles.check_gap(_gap_json(ref), ref, oracles.BD_GAP_RTOL) is None
    bad = _gap_json(ref * (1 + 1e-8))
    assert "rel err" in oracles.check_gap(bad, ref, oracles.BD_GAP_RTOL)
    assert oracles.check_gap("not json", ref, 1e-10) is not None


def test_collapsed_reference_matches_infinite_limit():
    limit = (np.sqrt(2.0) - 1.0) ** 2
    gaps = [oracles.collapsed_bd_gap(2.0, 1.0, s) for s in (50, 200, 1000)]
    assert gaps[0] > gaps[1] > gaps[2] > limit
    assert gaps[2] - limit < 1e-4


def _verify_json(p_hat, verdict="PASS"):
    tails = oracles.load_tails("three-state")
    rows = [{"eps": e, "p_hat": p, "reps": 20000, "t": 20.0,
             "verdict": verdict} for e, p in zip(tails["eps"], p_hat)]
    return json.dumps({"gap": oracles.THREE_STATE_GAP, "rows": rows}), tails


def _check_verify(text, tails):
    return oracles.check_verify(text, oracles.THREE_STATE_GAP, tails,
                                t=20.0, eps=tails["eps"], reps=20000)


def test_verify_oracle_accepts_reference_and_rejects_shifted_p_hat():
    tails = oracles.load_tails("three-state")
    assert _check_verify(*_verify_json(tails["p"])) is None
    shifted = [tails["p"][0] + 0.03] + tails["p"][1:]
    assert "p_hat" in _check_verify(*_verify_json(shifted))
    assert "verdict" in _check_verify(*_verify_json(tails["p"], "FAIL"))
    rising = [tails["p"][0], tails["p"][0]] + tails["p"][2:]
    assert _check_verify(*_verify_json(rising)) is not None


def test_tail_tolerance_separates_noise_from_a_wrong_law():
    p = 0.1620
    tol = oracles.tail_tolerance(p, 20000, 2_000_000)
    sigma = np.sqrt(p * (1 - p) / 20000)
    assert 4 * sigma < tol < 7 * sigma


def test_sweep_oracle_ignores_seconds_column():
    sizes = (50, 100)
    refs = [oracles.collapsed_bd_gap(2.0, 1.0, s) for s in sizes]

    def csv_text(gaps, seconds):
        return ("size,gap,diff,seconds\n"
                f"50,{gaps[0]!r},,{seconds[0]:.6f}\n"
                f"100,{gaps[1]!r},{abs(gaps[1] - gaps[0])!r},"
                f"{seconds[1]:.6f}\n")

    assert oracles.check_sweep(csv_text(refs, (0.1, 0.2)), sizes, refs) is None
    assert oracles.check_sweep(csv_text(refs, (9.0, 3.0)), sizes, refs) is None
    bad = [refs[0], refs[1] * (1 + 1e-6)]
    assert oracles.check_sweep(csv_text(bad, (0.1, 0.2)), sizes, refs)


def test_self_times_on_nested_spans():
    spans = [["root", 0.0, 10.0, -1, None],
             ["a", 1.0, 4.0, 0, None],
             ["a.inner", 2.0, 3.0, 1, None],
             ["b", 5.0, 6.0, 0, None],
             ["b2", 5.5, 7.0, 0, None]]   # overlaps b; clipped to the union
    assert tracer.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 1.0, 1.5])


def test_layer_metrics_counts_and_derived_names():
    spans = [["cli.main", 0.0, 5.0, -1, None],
             ["simulate.tail_mc", 1.0, 4.0, 0, None],
             ["simulate.substream", 1.0, 1.5, 1, None],
             ["simulate.substream", 2.0, 2.5, 1, None],
             ["spectral.eig", 4.0, 4.5, 0, 17]]
    m = tracer.layer_metrics([(spans, 6.0)])
    assert m["simulate.substream_calls"] == 2
    assert m["simulate.walk_s"] == pytest.approx(2.0)
    assert m["simulate.substream_us_per_call"] == pytest.approx(5e5)
    assert m["cli.self_s"] == pytest.approx(1.5)
    assert m["cli.process_overhead_s"] == pytest.approx(1.0)
    assert m["spectral.eig_iterations"] == 17


def test_summaries_use_each_ops_median_calibrated_time():
    def sample(op, ratio, traced=False, spans=()):
        return run.Sample(op, traced, 10 * ratio, ratio, 50.0,
                          spans=list(spans))

    samples = [sample(run.SETUP, 9.0), sample(0, 1.0), sample(1, 2.0),
               sample(0, 3.0), sample(1, 4.0), sample(0, 2.0),
               sample(0, 5.0, traced=True, spans=["a"]),
               sample(1, 6.0, traced=True, spans=["b"]),
               sample(0, 7.0, traced=True, spans=["c"])]
    assert run.summarize(samples, 2) == pytest.approx(run.REFERENCE_S * 5.0)
    assert run.summarize(samples, 2, traced=True) == \
        pytest.approx(run.REFERENCE_S * 12.0)
    # the second traced pass is incomplete and left out
    assert run.traced_passes(samples, 2) == [[(["a"], 50.0), (["b"], 60.0)]]


def test_import_metrics_reads_cumulative_time():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       974 |     639009 |         scipy.stats\n"
            "import time:      3980 |     938220 | ctmcgap.cli\n")
    m = tracer.import_metrics(text)
    assert m["import.scipy_stats_s"] == pytest.approx(0.639009)
    assert m["import.ctmcgap_cli_s"] == pytest.approx(0.938220)
    assert m["import.bounds_s"] == 0.0


def test_general_chain_is_seeded_and_strongly_connected():
    a = workloads.general_chain(300, 7)
    assert a == workloads.general_chain(300, 7)
    assert a != workloads.general_chain(300, 8)
    i, j, r = map(np.array, zip(*a))
    assert len(set(zip(i, j))) == len(a) and np.all(i != j) and np.all(r > 0)
    graph = coo_matrix((r, (i, j)), shape=(300, 300))
    assert connected_components(graph, connection="strong")[0] == 1
    Q = oracles.dense_generator(300, a)
    pi = oracles.stationary(Q)
    flow = pi[:, None] * Q
    assert np.max(np.abs(flow - flow.T)) > 1e-3    # not reversible


def test_traced_child_records_nested_spans(tmp_path):
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(BENCH.parent / "src")] + ([env["PYTHONPATH"]]
                                       if env.get("PYTHONPATH") else []))
    out = subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), str(spans_path),
         "gap", "--example", "three-state"],
        capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert oracles.check_gap(out.stdout, oracles.THREE_STATE_GAP,
                             oracles.BD_GAP_RTOL) is None
    spans = json.loads(spans_path.read_text())
    names = [s[0] for s in spans]
    assert names[0] == "cli.main" and spans[0][3] == -1
    for name in ("generator.build", "spectral.gap", "generator.stationary",
                 "spectral.eig"):
        assert name in names
    gap = names.index("spectral.gap")
    assert spans[names.index("generator.stationary")][3] == gap
