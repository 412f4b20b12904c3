"""Literal stdout of cheap CLI cases, so that the byte-identical output
contract is checked on every run.

Captured with NumPy 2.4.6 and SciPy 1.17.1; other versions, or other
LAPACK builds, may differ in the last digits of eigensolver output.  The
simulated rows of ``verify`` follow the random-stream layout described in
``ctmcgap.simulate``, and change only with it.
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
     '{"gap": 0.17294103553987047, "iterations": 231, "method": "lanczos", '
     '"residual": 2.3463831478397193e-15}\n'),
    (["gap", "--bd", "2", "1", "1000"],
     '{"gap": 0.17158680509713603, "iterations": 0, '
     '"method": "tridiagonal", "residual": 5.853135664346862e-16}\n'),
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
     '"lezaud_hypotheses_asserted": false, "pi_g": 0.5555555555555555, '
     '"rows": ['
     '{"bound_lezaud": null, "bound_main": 0.894696999083407, '
     '"ci_upper": 0.46561222555462356, "eps": 0.05, "p_hat": 0.355, '
     '"reps": 200, "t": 20.0, "uninformative": false, "verdict": "PASS"}, '
     '{"bound_lezaud": null, "bound_main": 0.6407725852889278, '
     '"ci_upper": 0.2651442750963153, "eps": 0.1, "p_hat": 0.17, '
     '"reps": 200, "t": 20.0, "uninformative": false, "verdict": "PASS"}, '
     '{"bound_lezaud": null, "bound_main": 0.3673531989251025, '
     '"ci_upper": 0.13679319286169106, "eps": 0.15, "p_hat": 0.065, '
     '"reps": 200, "t": 20.0, "uninformative": false, "verdict": "PASS"}, '
     '{"bound_lezaud": null, "bound_main": 0.16858374248483438, '
     '"ci_upper": 0.07994847442984673, "eps": 0.2, "p_hat": 0.025, '
     '"reps": 200, "t": 20.0, "uninformative": false, "verdict": "PASS"}], '
     '"seed": 12345}\n'),
    (["verify", "--bd", "2", "1", "30", "--t", "50", "--eps", "0.05,0.1",
      "--reps", "400", "--workers", "2", "--seed", "11"],
     '{"all_pass": true, "g_pi2_norm": 2.1579186442602067e-05, '
     '"g_sup_norm": 1.0, "gap": 0.18608462014047367, '
     '"gap_method": "tridiagonal", "gap_residual": 6.089894018176666e-16, '
     '"lezaud_hypotheses_asserted": false, "pi_g": 4.656612875245809e-10, '
     '"rows": ['
     '{"bound_lezaud": null, "bound_main": 0.9770078643167454, '
     '"ci_upper": 0.017121126999967824, "eps": 0.05, "p_hat": 0.0, '
     '"reps": 400, "t": 50.0, "uninformative": false, "verdict": "PASS"}, '
     '{"bound_lezaud": null, "bound_main": 0.9111549484507151, '
     '"ci_upper": 0.017121126999967824, "eps": 0.1, "p_hat": 0.0, '
     '"reps": 400, "t": 50.0, "uninformative": false, "verdict": "PASS"}], '
     '"seed": 11}\n'),
    (["sweep", "--bd", "2", "1", "inf", "--sizes", "50,500",
      "--format", "json"],
     '{"diffs": [null, 0.004840672233752091], '
     '"gaps": [0.17646862355523454, 0.17162795132148245], '
     '"limit_hint": 0.17157287525381, "seconds": [MASKED], '
     '"sizes": [50, 500]}\n'),
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
