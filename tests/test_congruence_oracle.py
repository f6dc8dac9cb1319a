"""The congruences against their full-update originals, and the updates
they no longer make.

`skew_canonical_congruence` updates, after each pivot pair, only the
remaining vectors that pair with it, and adds the Gram increment only over
those; `algebra._congruence_reduce` (behind `inertia_congruence`) skips the
rows of an elementary step whose source entry is zero.  Exact sums do not
depend on skipped zero terms, so both must equal the code they replaced,
kept in `tests/oracles.py` as `skew_congruence_full_update` and
`congruence_reduce_full_update`.

The counting tests pin the work saved with no wall clock, on the skew
pairing of the storage pair (s^2 I_m, I_m) and on a direct sum of
hyperbolic blocks.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from boundary_forge import Poly, PolyMatrix, RatMatrix, lagrange_boundary
from boundary_forge.algebra import _congruence_reduce, skew_canonical_congruence
from boundary_forge.lagrange import LagrangePair

from oracles import congruence_reduce_full_update, skew_congruence_full_update
from test_integer_trials import count_fraction_arithmetic
from test_kernel_oracle import matrices

MANY = settings(max_examples=100)


@st.composite
def square_matrices(draw):
    n = draw(st.integers(0, 7))
    return draw(matrices(RatMatrix, n, n))


@MANY
@given(square_matrices())
def test_skew_congruence_equals_full_update(a):
    s = a - a.transpose()
    assert skew_canonical_congruence(s) == skew_congruence_full_update(s)


@MANY
@given(square_matrices())
def test_congruence_reduce_equals_full_update(a):
    s = a + a.transpose()
    assert _congruence_reduce(s) == congruence_reduce_full_update(s)


def storage_pairing(m: int) -> RatMatrix:
    """The coefficient matrix of Lambda for the storage pair (s^2 I, I)."""
    pair = LagrangePair(PolyMatrix.identity(m) * Poly([0, 0, 1]),
                        PolyMatrix.identity(m))
    return lagrange_boundary(pair).Lambda.mat


def test_skew_congruence_work_grows_quadratically(monkeypatch):
    counts = []
    for m in (8, 16, 32):
        s = storage_pairing(m)
        ops = count_fraction_arithmetic(monkeypatch)
        p, _ = skew_canonical_congruence(s)
        monkeypatch.undo()
        assert p == m
        counts.append(ops["__mul__"] + ops["__rmul__"] + ops["__truediv__"]
                      + ops["__rtruediv__"])
    # doubling m at most quadruples the multiplications and divisions; under
    # the full update they grew about eightfold (3,096, 26,032, 213,344)
    assert counts[1] <= 4 * counts[0]
    assert counts[2] <= 4 * counts[1]



def test_hyperbolic_step_divides_only_for_nonzero_pairings(monkeypatch):
    s = RatMatrix.block_diag([RatMatrix.from_rows([[0, 1], [1, 0]])] * 10)
    ops = count_fraction_arithmetic(monkeypatch)
    inertia, _, reduced = _congruence_reduce(s)
    monkeypatch.undo()
    assert inertia.as_tuple() == (10, 10, 0)
    assert reduced == s
    # no later column pairs with a pivot block; two divisions for each of
    # them would be 180
    assert ops["__truediv__"] + ops["__rtruediv__"] == 0
