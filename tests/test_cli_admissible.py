"""`verify` through the CLI on generated admissible operators.

The three `hypothesis` strategies of the property tests make skew-adjoint
operators `J`, constrained pairs `(J, G)` and para-symmetric storage
operators `S` (paired with `P = I`).  Each one is written to a problem
file and run through `cli.main`, as a user would run it: every such input
is valid, so `verify` must exit 0 and report every exact residual as the
literal string "0".
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings

from boundary_forge import PolyMatrix
from boundary_forge.cli import main

from test_partition_search import constrained_operators, para_symmetric_storage
from test_realize_oracle import skew_adjoint_operators

EXAMPLES = settings(max_examples=20, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _json_matrix(p: PolyMatrix) -> list:
    """A polynomial matrix as problem-file JSON: per entry, its coefficient
    strings low degree first."""
    return [[[str(c) for c in e.coeffs] or ["0"] for e in row]
            for row in p.entries]


def _verify(problem: dict) -> dict:
    """The structured `verify` report of one problem, after asserting that
    the CLI exits 0."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.json")
        with open(path, "w") as handle:
            json.dump(problem, handle)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = main(["verify", path, "--format", "structured",
                           "--trials", "5"])
    report = json.loads(out.getvalue())
    assert status == 0, report
    return report


def _assert_literal_zeros(report: dict) -> None:
    checks = report["verification"]["checks"]
    assert checks
    for check in checks:
        assert check["max_residual"] == "0", check
        assert check["passed"], check


@EXAMPLES
@given(skew_adjoint_operators())
def test_verify_skew_adjoint_operators(J):
    _assert_literal_zeros(_verify({"kind": "skew_adjoint",
                                   "J": _json_matrix(J)}))


@EXAMPLES
@given(constrained_operators())
def test_verify_constrained_operators(pair):
    J, G = pair
    _assert_literal_zeros(_verify({"kind": "constrained", "J": _json_matrix(J),
                                   "G": _json_matrix(G)}))


@EXAMPLES
@given(para_symmetric_storage())
def test_verify_storage_operators(S):
    _assert_literal_zeros(_verify({
        "kind": "lagrange", "P": _json_matrix(PolyMatrix.identity(S.rows)),
        "S": _json_matrix(S)}))
