"""Golden `report` output on the scaling families of the benchmark.

`golden_families.json` holds `cli.run("report", problem, OPTIONS)` with
every `elapsed` field removed, for operators of growing degree and port
count and for four curated instances.  The inputs are written out here as
problem JSON, independently of the benchmark package, so that a change to
the pipeline that alters Z, Sigma, inertia, A-D, residuals, split floats or
exit statuses on any of them shows up as a mismatch.  Comparison uses the
helper of `test_golden.py`.

Regenerate (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden_families.py
"""

import json
import os

from boundary_forge.cli import RunOptions, parse_problem_data, run
from test_golden import _mismatches, _strip_elapsed

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_families.json")
# few trials over all default degrees keep the file quick to check
OPTIONS = RunOptions(trials=4, seed=1)


def _mono(power, coeff=1):
    """Coefficient list of coeff * s^power."""
    return ["0"] * power + [str(coeff)]


def _zeros(m):
    return [[["0"] for _ in range(m)] for _ in range(m)]


def _identity(m, entry=("1",)):
    out = _zeros(m)
    for i in range(m):
        out[i][i] = list(entry)
    return out


def skew_degree(d):
    """[[0, s^d], [+-s^d, 0]], the sign chosen so that J is skew-adjoint."""
    sign = 1 if d % 2 else -1
    return {"kind": "skew_adjoint",
            "J": [[["0"], _mono(d)], [_mono(d, sign), ["0"]]]}


def lagrange_degree(k):
    """Storage relation P = 1, S = s^(2k)."""
    return {"kind": "lagrange", "P": [[["1"]]], "S": [[_mono(2 * k)]]}


def constrained_degree(k):
    """J = [[0, s^(2k-1)], [s^(2k-1), 0]] constrained by G = [[s^k, 0]]."""
    odd = _mono(2 * k - 1)
    return {"kind": "constrained", "J": [[["0"], odd], [odd, ["0"]]],
            "G": [[_mono(k), ["0"]]]}


def s_identity(m):
    """(F, E) = U (sI, I) with the unimodular U = I + 2 s e_1 e_m^T."""
    u = _identity(m)
    u[0][m - 1] = _mono(1, 2)
    f = _identity(m, _mono(1))
    f[0][m - 1] = _mono(2, 2)
    return {"kind": "dirac", "F": f, "E": u}


def chain(m):
    """Tridiagonal first-order chain J with s on both off-diagonals."""
    j = _zeros(m)
    for i in range(m - 1):
        j[i][i + 1] = j[i + 1][i] = _mono(1)
    return {"kind": "skew_adjoint", "J": j}


INSTANCES = {
    "coupling_3rd": {"kind": "dirac", "F": _identity(2),
                     "E": [[["0"], ["0", "-1", "0", "-1"]],
                           [["0", "-1", "0", "-1"], ["0"]]]},
    "cubic": {"kind": "dirac", "F": [[["1"]]], "E": [[_mono(3, -1)]]},
    "mixed_storage": {"kind": "lagrange", "P": _identity(2),
                      "S": [[_mono(2), _mono(1)], [_mono(1, -1), ["1"]]]},
    "cubic_constrained": {"kind": "constrained", "J": [[_mono(3)]],
                          "G": [[_mono(2)]]},
}


def problems() -> dict:
    out = {f"skew_d{d}": skew_degree(d) for d in range(1, 9)}
    out.update({f"lagrange_k{k}": lagrange_degree(k) for k in range(1, 5)})
    out.update({f"constrained_k{k}": constrained_degree(k) for k in range(1, 4)})
    out.update({f"sI_m{m}": s_identity(m) for m in range(2, 5)})
    out.update({f"chain_m{m}": chain(m) for m in range(2, 6)})
    out.update(INSTANCES)
    return out


def collect() -> dict:
    """Stripped `report` output keyed by problem name."""
    out = {}
    for name, data in problems().items():
        report = run("report", parse_problem_data(data, name), OPTIONS)
        out[name] = _strip_elapsed(json.loads(json.dumps(report)))
    return out


def test_family_reports_match_golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    assert list(golden) == list(problems())
    mismatches = list(_mismatches(golden, collect()))
    assert not mismatches, "\n".join(mismatches[:20])


def test_family_reports_pass():
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    assert all(report["exit_status"] == 0 for report in golden.values())


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(collect(), handle, indent=1)
        handle.write("\n")
