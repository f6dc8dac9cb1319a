"""The power split read off the exact congruence.

`canonical_power_split` reduces any symmetric pairing by one exact
congruence t^T Sigma t = R, reads the split of R off its blocks and
multiplies it by the float of t^-1.  Its residual is compared here with a
dense max |T^T Q T - Sigma| formed in the test, on generated balanced
integer pairings.  The congruence pivots by position, not by size, so for
a general Sigma the split can be less well conditioned than an orthogonal
one; the bound below holds with wide margin on these inputs.

The pipeline's own pairings are already reduced, so their splits have one
rounding per entry.  On the skew family [[0, s^d], [-s^d, 0]] the trials
then see no split deviation at all, where a split with roundoff in every
entry made `report` fail from d = 14 on.
"""

from math import fsum

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boundary_forge import RatMatrix, canonical_power_split, inertia_congruence
from boundary_forge.cli import RunOptions, parse_problem_data, run


@st.composite
def balanced_pairings(draw):
    """Symmetric invertible integer matrices with balanced signature."""
    n = 2 * draw(st.integers(0, 4))
    upper = {(i, j): draw(st.integers(-9, 9))
             for i in range(n) for j in range(i, n)}
    sigma = RatMatrix.from_rows([[upper[min(i, j), max(i, j)]
                                  for j in range(n)] for i in range(n)])
    inertia, _ = inertia_congruence(sigma)
    assume(inertia.zero == 0 and inertia.is_balanced)
    return sigma


def dense_residual(split, sigma: RatMatrix) -> float:
    """max |T^T Q_p T - Sigma| over every entry, each a correctly rounded
    sum over all index pairs."""
    t, p = split.T, split.p
    n = len(t)
    q = [[1.0 if abs(r - s) == p else 0.0 for s in range(n)] for r in range(n)]
    return max((abs(fsum(t[r][i] * q[r][s] * t[s][j]
                         for r in range(n) for s in range(n))
                    - float(sigma.entries[i][j]))
                for i in range(n) for j in range(n)), default=0.0)


@settings(max_examples=200, deadline=None)
@given(balanced_pairings())
def test_canonical_split_residual_is_the_dense_residual(sigma):
    split = canonical_power_split(sigma)
    assert split.p == sigma.rows // 2
    assert split.residual == dense_residual(split, sigma)
    assert split.residual <= 1e-9


def skew_monomial(d: int) -> dict:
    """J = [[0, s^d], [-s^d, 0]], skew-adjoint for even d."""
    power = ["0"] * d
    return {"kind": "skew_adjoint",
            "J": [[["0"], power + ["1"]], [power + ["-1"], ["0"]]]}


@pytest.mark.parametrize("d", [14, 30])
def test_high_degree_skew_report_has_no_split_deviation(d):
    report = run("report", parse_problem_data(skew_monomial(d)), RunOptions())
    assert report["exit_status"] == 0
    assert report["split"]["residual"] == 0.0
    deviations = [c["max_split_deviation"]
                  for c in report["verification"]["checks"]
                  if "max_split_deviation" in c]
    assert deviations == [0.0]
