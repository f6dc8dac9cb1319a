"""Seeded problem generators and closed-form oracles for the benchmark.

A problem is a dict with a `name`, the JSON `data` written to disk for the
CLI, the extra CLI arguments (`argv`) and an `expect` oracle.  The
generators use plain `Fraction` lists so that the inputs do not depend on
the library under test.
"""

from __future__ import annotations

import glob
import json
import os
import random
from fractions import Fraction

WORKLOADS = ("port-scaling", "degree-scaling", "verify-trials")

# Verification trials for the synthesis-bound workloads; verify-trials uses
# the library defaults (100 trials, degrees 0, 2, 6) instead.
FEW_TRIALS = 3

# Family sizes.  Chain m=8 is left out: its `image_representation` re-check
# alone takes about 16 s.
PORT_CHAIN = range(2, 8)
PORT_SI = range(2, 9)
PORT_RANK_DROP = range(2, 9)
PORT_LAGRANGE = range(2, 6)
PORT_CONSTRAINED = range(2, 6)
DEGREE_SKEW = range(1, 11)
DEGREE_LAGRANGE = range(1, 6)
DEGREE_CONSTRAINED = range(1, 5)

# Problem files shipped in problems/ with their closed-form answers.  A file
# not listed here is still run, against the generic oracle only.
PROBLEM_FILE_ORACLES = {
    "constrained_coupling": {"kind": "constrained", "n_j": 2},
    "first_order_coupling": {"kind": "skew_adjoint", "n": 2,
                             "inertia": [1, 1, 0]},
    "invalid_rank_drop": {"kind": "dirac", "rejected": True},
    "scalar_derivative": {"kind": "dirac", "n": 1, "inertia": [0, 1, 0]},
    "second_order_storage": {"kind": "lagrange", "p": 1},
}


# -- polynomials as coefficient lists (index = power of s) ---------------------


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _mono(power, coeff=1):
    return [Fraction(0)] * power + [Fraction(coeff)]


def _padd(a, b):
    n = max(len(a), len(b))
    return _trim([(a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0)
                  for k in range(n)])


def _pmul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _zeros(m):
    return [[[] for _ in range(m)] for _ in range(m)]


def _identity(m, scale=None):
    out = _zeros(m)
    for i in range(m):
        out[i][i] = scale if scale is not None else _mono(0)
    return out


def _matmul(a, b):
    m, k, n = len(a), len(b), len(b[0])
    out = [[[] for _ in range(n)] for _ in range(m)]
    for i in range(m):
        for j in range(n):
            acc = []
            for t in range(k):
                acc = _padd(acc, _pmul(a[i][t], b[t][j]))
            out[i][j] = acc
    return out


def _to_json(mat):
    return [[[str(c) for c in p] if p else ["0"] for p in row] for row in mat]


def _unimodular(rng, m):
    """I + c s e_0 e_(m-1)^T: one elementary row operation, so the
    determinant is 1 and the signature theorem keeps n and the inertia.

    The seed draws only the integer c.  Where the entry sits changes the
    cost of the minor enumeration by up to 40 %, and a fractional c adds
    gcd work, either of which would make the run time depend on the seed
    more than on the code; this corner is the cheapest.
    """
    u = _identity(m)
    u[0][m - 1] = _mono(1, rng.choice((-2, -1, 1, 2)))
    return u


# -- families ----------------------------------------------------------------


def _problem(name, data, expect):
    return {"name": name, "data": data, "expect": expect}


def chain(m):
    """Tridiagonal first-order chain J with s on both off-diagonals."""
    j = _zeros(m)
    for i in range(m - 1):
        j[i][i + 1] = j[i + 1][i] = _mono(1)
    n = 2 * (m // 2)
    return _problem(f"chain_m{m}", {"kind": "skew_adjoint", "J": _to_json(j)},
                    {"kind": "skew_adjoint", "n": n,
                     "inertia": [n // 2, n // 2, 0]})


def s_identity(m, rng):
    """(F, E) = U (sI, I); every maximal minor of [F(-s) E(-s)] is examined."""
    u = _unimodular(rng, m)
    f = _matmul(u, _identity(m, _mono(1)))
    return _problem(f"sI_m{m}", {"kind": "dirac", "F": _to_json(f),
                                 "E": _to_json(u)},
                    {"kind": "dirac", "n": m, "inertia": [0, m, 0]})


def rank_drop(m, rng):
    """(F, E) = U (sI, sA) with A constant skew tridiagonal: the skew
    condition holds and every maximal minor vanishes at s = 0."""
    u = _unimodular(rng, m)
    a = _zeros(m)
    for i in range(m - 1):
        a[i][i + 1] = _mono(1, 1)
        a[i + 1][i] = _mono(1, -1)
    f = _matmul(u, _identity(m, _mono(1)))
    e = _matmul(u, a)
    return _problem(f"rank_drop_m{m}", {"kind": "dirac", "F": _to_json(f),
                                        "E": _to_json(e)},
                    {"kind": "dirac", "rejected": True})


def lagrange_ports(m):
    """(P, S) = (s^2 I, I): every maximal minor of [P^T S^T] is examined."""
    return _problem(f"lagrange_m{m}",
                    {"kind": "lagrange", "P": _to_json(_identity(m, _mono(2))),
                     "S": _to_json(_identity(m))},
                    {"kind": "lagrange", "p": m})


def constrained_chain(m):
    """The chain J constrained by G = [[s, 0, ..., 0]]."""
    g = [[_mono(1)] + [[] for _ in range(m - 1)]]
    data = dict(chain(m)["data"], kind="constrained", G=_to_json(g))
    return _problem(f"constrained_m{m}", data,
                    {"kind": "constrained", "n_j": 2 * (m // 2)})


def skew_degree(d):
    """[[0, s^d], [+-s^d, 0]], the sign chosen so that J is skew-adjoint."""
    sign = 1 if d % 2 else -1
    j = [[[], _mono(d)], [_mono(d, sign), []]]
    return _problem(f"skew_d{d}", {"kind": "skew_adjoint", "J": _to_json(j)},
                    {"kind": "skew_adjoint", "n": 2 * d,
                     "inertia": [d, d, 0]})


def lagrange_degree(k):
    """Storage relation P = 1, S = s^(2k)."""
    return _problem(f"lagrange_k{k}",
                    {"kind": "lagrange", "P": _to_json([[_mono(0)]]),
                     "S": _to_json([[_mono(2 * k)]])},
                    {"kind": "lagrange", "p": k})


def constrained_degree(k):
    """J = [[0, s^(2k-1)], [s^(2k-1), 0]] constrained by G = [[s^k, 0]]."""
    j = [[[], _mono(2 * k - 1)], [_mono(2 * k - 1), []]]
    g = [[_mono(k), []]]
    return _problem(f"constrained_k{k}",
                    {"kind": "constrained", "J": _to_json(j),
                     "G": _to_json(g)},
                    {"kind": "constrained", "n_j": 4 * k - 2})


def _instance_problems():
    """coupling_3rd, cubic, mixed_storage and cubic_constrained, as written
    in tests/instances.py, with their hand-derived answers."""
    s = _mono(1)
    s3 = _mono(3)
    cross = _padd(_mono(3, -1), _mono(1, -1))
    return [
        _problem("coupling_3rd",
                 {"kind": "dirac", "F": _to_json(_identity(2)),
                  "E": _to_json([[[], cross], [cross, []]])},
                 {"kind": "dirac", "n": 6, "inertia": [3, 3, 0]}),
        _problem("cubic",
                 {"kind": "dirac", "F": _to_json([[_mono(0)]]),
                  "E": _to_json([[_mono(3, -1)]])},
                 {"kind": "dirac", "n": 3, "inertia": [1, 2, 0]}),
        _problem("mixed_storage",
                 {"kind": "lagrange", "P": _to_json(_identity(2)),
                  "S": _to_json([[_mono(2), s], [_mono(1, -1), _mono(0)]])},
                 {"kind": "lagrange", "p": 1}),
        _problem("cubic_constrained",
                 {"kind": "constrained", "J": _to_json([[s3]]),
                  "G": _to_json([[_mono(2)]])},
                 {"kind": "constrained", "n_j": 3}),
    ]


def _problem_files(root):
    out = []
    for path in sorted(glob.glob(os.path.join(root, "problems", "*.json"))):
        name = os.path.splitext(os.path.basename(path))[0]
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        expect = PROBLEM_FILE_ORACLES.get(name, {"kind": data.get("kind")})
        out.append(_problem(f"file_{name}", data, expect))
    return out


def generate(workload, seed, root=".", sizes=None):
    """Problems of one workload for one seed, in run order.

    `sizes` maps a family to a smaller range (for smoke tests).  The seed
    draws the unimodular factors of port-scaling and sets `--seed` for the
    verification trials of every workload.
    """
    sizes = sizes or {}
    rng = random.Random(seed)
    few = ["--trials", str(FEW_TRIALS)]
    if workload == "port-scaling":
        problems = [chain(m) for m in sizes.get("chain", PORT_CHAIN)]
        problems += [s_identity(m, rng) for m in sizes.get("sI", PORT_SI)]
        problems += [rank_drop(m, rng)
                     for m in sizes.get("rank_drop", PORT_RANK_DROP)]
        problems += [lagrange_ports(m)
                     for m in sizes.get("lagrange_ports", PORT_LAGRANGE)]
        problems += [constrained_chain(m)
                     for m in sizes.get("constrained_chain", PORT_CONSTRAINED)]
    elif workload == "degree-scaling":
        problems = [skew_degree(d) for d in sizes.get("skew", DEGREE_SKEW)]
        problems += [lagrange_degree(k)
                     for k in sizes.get("lagrange", DEGREE_LAGRANGE)]
        problems += [constrained_degree(k)
                     for k in sizes.get("constrained", DEGREE_CONSTRAINED)]
    elif workload == "verify-trials":
        problems = _problem_files(root) + _instance_problems()
        few = []
    else:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"expected one of {WORKLOADS}")
    for p in problems:
        p["argv"] = few + ["--seed", str(seed)]
    return problems


# -- oracle ------------------------------------------------------------------


def check_report(expect, status, report):
    """Return a list of oracle violations (empty when the report is right).

    `status` is the CLI exit code and `report` the decoded structured output.
    """
    errors = []
    if report is None:
        return [f"no structured report (exit {status})"]
    if report.get("kind") != expect["kind"]:
        errors.append(f"kind {report.get('kind')!r} != {expect['kind']!r}")
    conditions = {c["name"]: c["passed"] for c in report.get("conditions", [])}
    if expect.get("rejected"):
        if status != 1 or report.get("exit_status") != 1:
            errors.append(f"expected exit 1, got {status}")
        if conditions.get("rank_condition") is not False:
            errors.append("rank_condition did not fail")
        return errors
    if status != 0 or report.get("exit_status") != 0:
        errors.append(f"expected exit 0, got {status}")
    if not all(conditions.values()):
        errors.append(f"failed conditions {conditions}")
    boundary = report.get("boundary") or {}
    for key in ("n", "p", "n_j", "inertia"):
        if key in expect and boundary.get(key) != expect[key]:
            errors.append(f"{key} {boundary.get(key)!r} != {expect[key]!r}")
    realization = report.get("realization") or {}
    if not realization.get("identities_pass"):
        errors.append("realization identities do not pass")
    checks = (report.get("verification") or {}).get("checks", [])
    if not checks:
        errors.append("no verification checks")
    for check in checks:
        if check["max_residual"] != "0" or not check["passed"]:
            errors.append(f"{check['check']}: max_residual "
                          f"{check['max_residual']}, passed {check['passed']}")
    return errors
