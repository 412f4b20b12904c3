"""Literal stdout of cheap CLI cases, so that the byte-identical output
contract is checked on every run.

Captured with NumPy 2.4.6, and no SciPy loaded; other versions, or other
LAPACK builds, may differ in the last digits of eigensolver output.  The
general-chain cases (``--example``, ``--model``) take their gaps and
skeleton eigenvalues from ``numpy.linalg.eigh``, so they move with the
LAPACK that NumPy links.  The ``--method lanczos`` case comes from the
thick-restart Lanczos in ``ctmcgap._symeig``, NumPy alone: its iteration
count and last digits move only with that solver or with NumPy's
rounding.  The birth-death cases (``--bd`` under the default method) do
not go through LAPACK: their gaps come from the NumPy bisection and cyclic
reduction in ``ctmcgap._symeig``.  The simulated rows of ``verify`` follow
the jump-keyed random-stream layout described in ``ctmcgap.simulate``
and change with it.  Their holding times also take the last bit of
NumPy's ``log1p``, whose SIMD loops (AVX-512 at capture) may round
differently in another build, though a count moves only if a time average
lands within an ulp of its threshold.  The ``--bd`` case observes a state
of stationary mass 5e-10, so its ``p_hat`` is 0 under any layout.
"""

import json
import re

import numpy as np
import pytest

from ctmcgap.cli import main

GOLDEN = [
    (["gap", "--example", "three-state"],
     '{"gap": 2.2254033307585166, "iterations": 0, "method": "dense", '
     '"residual": 6.280369834735101e-16}\n'),
    (["gap", "--example", "three-state", "--format", "csv"],
     "gap,method,residual,iterations\n"
     "2.2254033307585166,dense,6.280369834735101e-16,0\n"),
    (["gap", "--bd", "2", "1", "100", "--method", "lanczos"],
     '{"gap": 0.17294103553987042, "iterations": 165, "method": "lanczos", '
     '"residual": 3.427350492994884e-15}\n'),
    (["gap", "--bd", "2", "1", "1000"],
     '{"gap": 0.1715868050971359, "iterations": 0, '
     '"method": "tridiagonal", "residual": 1.894155825691402e-15}\n'),
    (["gap", "--model", "MODEL"],
     '{"gap": 0.35141745201378344, "iterations": 0, "method": "dense", '
     '"residual": 3.624957285599153e-15}\n'),
    (["skeleton", "--example", "three-state"],
     "delta,lambda_P,ratio,abs_error\n"
     "0.1,0.7982017533070647,2.0179824669293533,0.20742086382916325\n"
     "0.05,0.8940430530114802,2.1191389397703952,0.10626439098812135\n"
     "0.01,0.9779625723281818,2.2037427671818155,0.021660563576701097\n"),
    (["verify", "--example", "three-state", "--reps", "200"],
     '{"all_pass": true, "g_pi2_norm": 0.7453559924999298, '
     '"g_sup_norm": 1.0, "gap": 2.2254033307585166, "gap_method": "dense", '
     '"gap_residual": 6.280369834735101e-16, '
     '"lezaud_hypotheses": null, "pi_g": 0.5555555555555555, '
     '"rows": ['
     '{"bound_lezaud": null, "bound_main": 0.894696999083407, '
     '"ci_upper": 0.40288479129457655, "eps": 0.05, "p_hat": 0.295, '
     '"reps": 200, "t": 20.0, "uninformative": false, "verdict": "PASS"}, '
     '{"bound_lezaud": null, "bound_main": 0.6407725852889278, '
     '"ci_upper": 0.2651442750963153, "eps": 0.1, "p_hat": 0.17, '
     '"reps": 200, "t": 20.0, "uninformative": false, "verdict": "PASS"}, '
     '{"bound_lezaud": null, "bound_main": 0.3673531989251025, '
     '"ci_upper": 0.14339839446631397, "eps": 0.15, "p_hat": 0.07, '
     '"reps": 200, "t": 20.0, "uninformative": false, "verdict": "PASS"}, '
     '{"bound_lezaud": null, "bound_main": 0.16858374248483438, '
     '"ci_upper": 0.07994847442984673, "eps": 0.2, "p_hat": 0.025, '
     '"reps": 200, "t": 20.0, "uninformative": false, "verdict": "PASS"}], '
     '"seed": 12345}\n'),
    (["verify", "--bd", "2", "1", "30", "--t", "50", "--eps", "0.05,0.1",
      "--reps", "400", "--workers", "2", "--seed", "11"],
     '{"all_pass": true, "g_pi2_norm": 2.1579186442602067e-05, '
     '"g_sup_norm": 1.0, "gap": 0.18608462014047453, '
     '"gap_method": "tridiagonal", "gap_residual": 1.2239726731197403e-15, '
     '"lezaud_hypotheses": null, "pi_g": 4.656612875245809e-10, '
     '"rows": ['
     '{"bound_lezaud": null, "bound_main": 0.9770078643167452, '
     '"ci_upper": 0.017121126999967824, "eps": 0.05, "p_hat": 0.0, '
     '"reps": 400, "t": 50.0, "uninformative": false, "verdict": "PASS"}, '
     '{"bound_lezaud": null, "bound_main": 0.9111549484507147, '
     '"ci_upper": 0.017121126999967824, "eps": 0.1, "p_hat": 0.0, '
     '"reps": 400, "t": 50.0, "uninformative": false, "verdict": "PASS"}], '
     '"seed": 11}\n'),
    (["sweep", "--bd", "2", "1", "inf", "--sizes", "50,500",
      "--format", "json"],
     '{"diffs": [null, 0.00484067223375248], '
     '"gaps": [0.17646862355523518, 0.1716279513214827], '
     '"limit_hint": 0.17157287525381, "seconds": [MASKED], '
     '"sizes": [50, 500]}\n'),
    # collapsing to 20 or 30 states routes more than 16 rates into the
    # tail row, several on one cell; they add left to right in the order
    # the collapse lists them, which SciPy's COO-to-CSR sort does not keep
    (["sweep", "--model", "MODEL", "--sizes", "20,30", "--format", "json"],
     '{"diffs": [null, 0.10371651959070627], '
     '"gaps": [0.811158046115026, 0.7074415265243197], '
     '"limit_hint": null, "seconds": [MASKED], "sizes": [20, 30]}\n'),
]


def _general_chain(n, seed):
    # a ring, so the chain is irreducible, plus three random out-edges per
    # state, every rate Exp(1)
    rng = np.random.default_rng(seed)
    rates = []
    for i in range(n):
        others = [j for j in range(n) if j not in (i, (i + 1) % n)]
        targets = sorted(rng.choice(others, size=3, replace=False).tolist())
        for j in [(i + 1) % n, *targets]:
            rates.append([i, j, float(rng.exponential())])
    return {"n": n, "rates": rates}


@pytest.mark.parametrize("argv, expected", GOLDEN,
                         ids=[" ".join(a[:5]) for a, _ in GOLDEN])
def test_cli_stdout_is_golden(tmp_path, capsys, argv, expected):
    model = tmp_path / "chain.json"
    model.write_text(json.dumps(_general_chain(40, 40)))
    argv = [str(model) if a == "MODEL" else a for a in argv]
    assert main(argv) == 0
    # sweep timings vary between runs
    out = re.sub(r'"seconds": \[[^\]]*\]', '"seconds": [MASKED]',
                 capsys.readouterr().out)
    assert out == expected
