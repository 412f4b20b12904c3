"""One serializer for every report: ``to_dict()`` is the dataclass fields,
less `_hidden`, plus `_extra`, each value a built-in JSON value."""

import dataclasses
import json
import math

import numpy as np
import pytest

from ctmcgap import (CountableModel, ObservableFunction, SpectralReport,
                     build_three_state, gap_convergence_sweep,
                     skeleton_gap_check, spectral_gap, tail_probability_mc,
                     verify)
from ctmcgap._report import _plain

PLAIN = (float, int, bool, str, type(None))
NAMES = ["spectral", "spectral, NumPy scalars", "tail", "verification",
         "verification, NumPy row", "skeleton", "sweep"]


@pytest.fixture(scope="module")
def reports():
    Q = build_three_state()
    g = ObservableFunction([0.0, 0.0, 1.0], 0.0, 1.0)
    checked = verify(Q, g, t=2.0, eps_grid=[0.1, 0.2], reps=50, seed=1)
    row = dataclasses.replace(
        checked.rows[0], eps=np.float64(0.1), reps=np.int64(50),
        uninformative=np.bool_(True), bound_nu=np.float64(0.5))
    return {
        "spectral": spectral_gap(Q),
        "spectral, NumPy scalars": SpectralReport(
            gap=np.float64(2.5), method="dense",
            residual=np.float64(math.nan), iterations=np.int64(7),
            eigenvector=np.ones(3), eigenvalues=np.arange(3.0),
            degenerate=np.bool_(False)),
        "tail": tail_probability_mc(Q, g, [1.0, 0.0, 0.0], 2.0, 0.1, 50, 1),
        "verification": checked,
        "verification, NumPy row": dataclasses.replace(
            checked, rows=[row], seed=np.int64(1)),
        "skeleton": skeleton_gap_check(Q),
        "sweep": gap_convergence_sweep(CountableModel.birth_death(2.0, 1.0),
                                       [3, 5], limit_hint=np.float64(0.17)),
    }


def _keys(report):
    names = [f.name for f in dataclasses.fields(report)]
    return [n for n in names if n not in report._hidden] \
        + list(report._extra)


def _all_plain(value):
    if isinstance(value, dict):
        return all(isinstance(k, str) and _all_plain(v)
                   for k, v in value.items())
    if isinstance(value, list):
        return all(_all_plain(v) for v in value)
    return type(value) in PLAIN


@pytest.mark.parametrize("name", NAMES)
def test_to_dict_is_the_fields_less_hidden_plus_extra(reports, name):
    report = reports[name]
    d = report.to_dict()
    assert list(d) == _keys(report)
    assert _all_plain(d)
    assert json.loads(report.to_json()) == d


def test_all_pass_is_extra_and_rows_leave_out_an_unset_bound_nu(reports):
    d = reports["verification"].to_dict()
    assert d["all_pass"] is reports["verification"].all_pass
    # a row without a start law leaves bound_nu out
    assert all("bound_nu" not in r for r in d["rows"])


def test_numpy_scalars_and_nan_come_out_as_built_ins(reports):
    d = reports["spectral, NumPy scalars"].to_dict()
    assert d == {"gap": 2.5, "method": "dense", "residual": None,
                 "iterations": 7}
    assert type(d["gap"]) is float and type(d["iterations"]) is int
    (row,) = reports["verification, NumPy row"].to_dict()["rows"]
    assert type(row["eps"]) is float and type(row["reps"]) is int
    assert row["uninformative"] is True and type(row["bound_nu"]) is float
    sweep = reports["sweep"].to_dict()
    assert sweep["diffs"][0] is None and type(sweep["limit_hint"]) is float
    assert [type(s) for s in sweep["sizes"]] == [int, int]


def test_plain_rule():
    @dataclasses.dataclass
    class Pair:
        a: object
        b: object

    assert _plain(Pair(np.int64(2), (np.float64(0.5), np.bool_(False)))) \
        == {"a": 2, "b": [0.5, False]}
    assert [type(_plain(v)) for v in (True, np.True_, 3, np.int32(3), 1.5,
                                      np.float32(1.5), "x", None)] \
        == [bool, bool, int, int, float, float, str, type(None)]
    assert _plain(np.float64("nan")) is None
    assert _plain(math.inf) == math.inf


def test_csv_shows_nan_as_an_empty_cell(reports):
    report = reports["spectral, NumPy scalars"]
    assert report.to_csv() == ("gap,method,residual,iterations\n"
                               "2.5,dense,,7\n")
