"""Independent oracles for the exact matrix algebra.

Small random `RatMatrix` (up to 4x4) and `PolyMatrix` (up to 3x3, degree
at most 2) values are cross-checked against `sympy`, which is used here
only.  Covered: the shared matrix body (arithmetic, transpose, stacking,
submatrices, equality and hashing), `rank`, `inverse`, `PolyMatrix.det`,
`poly_gcd`, `full_rank_everywhere`, and `inertia_congruence`, whose
signature is compared with Descartes' sign count on the characteristic
polynomial (exact here: a symmetric matrix has only real eigenvalues).
The reduced matrix of the congruence is checked to be exactly
``t.T @ s @ t``, which `factor_symmetric` relies on for Sigma.
`skew_canonical_congruence`, which keeps the Gram matrix of its remaining
vectors, gives the same ``(p, t)`` as the Gram-Schmidt that pairs them
through S afresh (`oracles.skew_congruence_by_bilinears`).
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from boundary_forge import (  # noqa: E402
    Poly,
    PolyMatrix,
    RatMatrix,
    boundary_structure,
    full_rank_everywhere,
    inertia_congruence,
    skew_adjoint_structure,
    skew_canonical_congruence,
    validate_dirac_pair,
)
from boundary_forge.algebra import _congruence_reduce  # noqa: E402

from instances import DIRAC_INSTANCES, SKEW_INSTANCES  # noqa: E402
from oracles import poly_gcd, skew_congruence_by_bilinears  # noqa: E402

x = sympy.Symbol("x")
s = Poly.variable()
FEW = settings(max_examples=20)

rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
dims = st.integers(0, 4)
polys = st.lists(rationals, max_size=3).map(Poly)


@st.composite
def rat_matrices(draw, rows=None, cols=None):
    rows = draw(dims) if rows is None else rows
    cols = draw(dims) if cols is None else cols
    return RatMatrix(rows, cols, draw(st.lists(
        st.lists(rationals, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows)))


@st.composite
def poly_matrices(draw, rows=None, cols=None):
    rows = draw(st.integers(0, 3)) if rows is None else rows
    cols = draw(st.integers(0, 3)) if cols is None else cols
    return PolyMatrix(rows, cols, draw(st.lists(
        st.lists(polys, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows)))


def sym_rat(v):
    return sympy.Rational(v.numerator, v.denominator)


def sym_poly(p):
    return sympy.Add(*[sym_rat(c) * x ** k for k, c in enumerate(p.coeffs)])


def sym(m):
    """The sympy matrix of a `RatMatrix` or `PolyMatrix`."""
    conv = sym_rat if isinstance(m, RatMatrix) else sym_poly
    return sympy.Matrix(m.rows, m.cols, [conv(v) for row in m.entries for v in row])


def same(ours, theirs):
    """Exact entrywise agreement (polynomial entries are expanded)."""
    diff = sym(ours) - theirs
    return ours.shape == theirs.shape and all(sympy.expand(v) == 0 for v in diff)


def from_sym_poly(expr):
    coeffs = sympy.Poly(expr, x, domain="QQ").all_coeffs()[::-1]
    return Poly([Fraction(int(c.p), int(c.q)) for c in coeffs])


# -- the shared matrix body ------------------------------------------------


@st.composite
def operand_triples(draw, matrices):
    """(a, b, c): a and b of one shape, c multipliable from the right."""
    a = draw(matrices())
    b = draw(matrices(rows=a.rows, cols=a.cols))
    c = draw(matrices(rows=a.cols))
    return a, b, c


def check_body(a, b, c, k):
    sa, sb, sc = sym(a), sym(b), sym(c)
    sk = sym_poly(k) if isinstance(k, Poly) else sym_rat(k)
    assert same(a + b, sa + sb)
    assert same(a - b, sa - sb)
    assert same(-a, -sa)
    assert same(a * c, sa * sc)
    assert same(a * k, sa * sk) and same(k * a, sa * sk)
    assert same(a.transpose(), sa.T) and a.T == a.transpose()
    assert same(type(a).hstack([a, b]), sympy.Matrix.hstack(sa, sb))
    assert same(type(a).vstack([a, b]), sympy.Matrix.vstack(sa, sb))
    rows = [i for i in range(a.rows) if i % 2 == 0]
    cols = list(range(a.cols))[::-1]
    assert same(a.submatrix(rows, cols), sa.extract(rows, cols))
    assert same(a.take_rows(rows), sa.extract(rows, list(range(a.cols))))
    assert a.is_zero() == all(sympy.expand(v) == 0 for v in sa)
    twin = type(a).from_rows([list(row) for row in a.entries])
    if a.rows:
        assert twin == a and hash(twin) == hash(a)
    assert hash(a) == hash((type(a).__name__, a.shape, a.entries))
    assert (a == b) == (a.shape == b.shape and same(a, sb))


@FEW
@given(operand_triples(rat_matrices), rationals)
def test_rat_matrix_body_matches_sympy(abc, k):
    check_body(*abc, k)


@FEW
@given(operand_triples(poly_matrices), st.one_of(polys, rationals))
def test_poly_matrix_body_matches_sympy(abc, k):
    check_body(*abc, k)


def test_constructors_and_text():
    assert RatMatrix.zero(2, 3) == RatMatrix(2, 3, [[0] * 3] * 2)
    assert PolyMatrix.zero(2, 1).entries == ((Poly(),), (Poly(),))
    assert same(RatMatrix.identity(3), sympy.eye(3))
    assert same(PolyMatrix.identity(2), sympy.eye(2))
    assert RatMatrix.zero(0, 2).shape == (0, 2) and RatMatrix.zero(0, 2).T.shape == (2, 0)
    p = PolyMatrix.from_rows([[s, 1], [Fraction(1, 2), -s * s]])
    assert str(p) == "[[s, 1]; [1/2, -s^2]]"
    assert repr(p) == "PolyMatrix(2x2 [[s, 1]; [1/2, -s^2]])"
    assert repr(RatMatrix.identity(1)) == "RatMatrix(1x1 [[1]])"
    assert RatMatrix.__slots__ == PolyMatrix.__slots__ == ("rows", "cols", "entries")
    with pytest.raises(AttributeError, match="RatMatrix is immutable"):
        RatMatrix.identity(1).rows = 2
    with pytest.raises(AttributeError, match="PolyMatrix is immutable"):
        p.rows = 2
    with pytest.raises(ValueError, match="entry grid does not match shape 1x2"):
        PolyMatrix(1, 2, [[s]])


def test_mixed_operands_are_not_implemented():
    r = RatMatrix.identity(2)
    p = PolyMatrix.identity(2)
    for op in ("__add__", "__sub__", "__mul__", "__eq__"):
        assert getattr(r, op)(p) is NotImplemented
        assert getattr(p, op)(r) is NotImplemented
    assert r.__mul__(s) is NotImplemented and r.__rmul__(s) is NotImplemented
    assert r != p
    for bad in (lambda: r + p, lambda: p * r, lambda: s * r, lambda: r * s):
        with pytest.raises(TypeError):
            bad()
    assert s * p == p * s == PolyMatrix.from_rows([[s, 0], [0, s]])


# -- exact linear algebra --------------------------------------------------


@FEW
@given(rat_matrices())
def test_rank_and_inverse_match_sympy(a):
    sa = sym(a)
    assert a.rank() == sa.rank()
    if a.rows != a.cols:
        with pytest.raises(ValueError, match="only square"):
            a.inverse()
    elif sa.det() == 0:
        with pytest.raises(ValueError, match="singular"):
            a.inverse()
    else:
        assert same(a.inverse(), sa.inv())


@FEW
@given(st.integers(0, 3).flatmap(lambda n: poly_matrices(rows=n, cols=n)))
def test_det_matches_sympy(p):
    assert sympy.expand(sym_poly(p.det()) - sym(p).det()) == 0


@FEW
@given(st.lists(polys, min_size=1, max_size=3), polys, polys)
def test_poly_gcd_matches_sympy(factors, common, extra):
    # a shared factor, then one more input that usually does not share it
    inputs = [f * common for f in factors] + [extra]
    if all(p.is_zero for p in inputs):
        return
    expected = None
    for p in inputs:
        if not p.is_zero:
            q = sympy.Poly(sym_poly(p), x, domain="QQ")
            expected = q if expected is None else expected.gcd(q)
    assert poly_gcd(inputs) == from_sym_poly(expected.monic().as_expr())


@st.composite
def wide_operators(draw):
    """m x 2m operators, m <= 3; optionally a row scaled by (s - r), which
    makes every maximal minor vanish at r."""
    m = draw(st.integers(1, 3))
    p = draw(poly_matrices(rows=m, cols=2 * m))
    if draw(st.booleans()):
        row = draw(st.integers(0, m - 1))
        r = draw(rationals)
        p = PolyMatrix(m, 2 * m, [[e * (s - r) if i == row else e for e in entries]
                                  for i, entries in enumerate(p.entries)])
    return p


@FEW
@given(wide_operators())
def test_full_rank_everywhere_matches_sympy(p):
    sp = sym(p)
    minors = [sp.extract(list(range(p.rows)), list(cols)).det()
              for cols in combinations(range(p.cols), p.rows)]
    g = sympy.Poly(0, x, domain="QQ")
    for d in minors:
        g = g.gcd(sympy.Poly(d, x, domain="QQ"))
    expected = not g.is_zero and g.degree() == 0
    assert full_rank_everywhere(p) == expected
    if expected:
        for point in (0, 1, -2):
            assert sp.subs(x, point).rank() == p.rows


# -- congruence ------------------------------------------------------------


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(0, 4))
    a = draw(rat_matrices(rows=n, cols=n))
    # some rank-deficient and zero-diagonal (hyperbolic) cases
    if draw(st.booleans()):
        a = RatMatrix(n, n, [[0 if i == j else v for j, v in enumerate(row)]
                             for i, row in enumerate(a.entries)])
    if n and draw(st.booleans()):
        a = a.take_rows(range(n - 1))
        a = RatMatrix.vstack([a, RatMatrix.zero(1, n)])
    return a + a.T


def sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(1 for u, v in zip(signs, signs[1:]) if u != v)


@settings(max_examples=30)
@given(symmetric_matrices())
def test_inertia_matches_descartes_count(a):
    inertia, t = inertia_congruence(a)
    coeffs = sym(a).charpoly(x).all_coeffs()  # highest power first
    n = a.rows
    mirrored = [c * (-1) ** (n - k) for k, c in enumerate(coeffs)]
    zero = next(k for k, c in enumerate(reversed(coeffs)) if c != 0)
    assert inertia.as_tuple() == (sign_changes(coeffs), sign_changes(mirrored), zero)
    assert n == 0 or sym(t).det() != 0


def assert_reduced_is_congruence(a):
    inertia, t, reduced = _congruence_reduce(a)
    assert (inertia, t) == inertia_congruence(a)
    assert reduced == t.T * a * t
    assert same(reduced, sym(t).T * sym(a) * sym(t))
    # block diagonal: 1x1 pivots, then 2x2 hyperbolic blocks, then zeros
    k = 0
    n = inertia.positive + inertia.negative
    while k < n:
        step = 1 if reduced.entries[k][k] != 0 else 2
        for i in range(k, k + step):
            for j in range(a.cols):
                if not k <= j < k + step:
                    assert reduced.entries[i][j] == 0
        k += step
    assert reduced.submatrix(range(n, a.rows), range(n, a.rows)).is_zero()


@settings(max_examples=30)
@given(symmetric_matrices())
def test_reduced_matrix_is_the_congruence(a):
    assert_reduced_is_congruence(a)


def test_reduced_matrix_on_boundary_coefficient_matrices():
    # [[0, s^d], [+-s^d, 0]], the sign making it skew-adjoint
    structures = [skew_adjoint_structure(PolyMatrix.from_rows(
        [[0, s ** d], [(-1) ** (d + 1) * s ** d, 0]])) for d in range(1, 9)]
    structures += [skew_adjoint_structure(inst["J"]) for inst in SKEW_INSTANCES]
    for inst in DIRAC_INSTANCES:
        try:
            structures.append(boundary_structure(validate_dirac_pair(inst["F"], inst["E"])))
        except ValueError:
            continue
    for structure in structures:
        assert_reduced_is_congruence(structure.pi.to_coeff().mat)


@st.composite
def skew_matrices(draw):
    """Skew matrices up to 6 x 6, some of them rank deficient."""
    n = draw(st.integers(0, 6))
    a = draw(rat_matrices(rows=n, cols=n))
    if n and draw(st.booleans()):
        a = RatMatrix.vstack([a.take_rows(range(n - 1)), RatMatrix.zero(1, n)])
    return a - a.T


@settings(max_examples=60)
@given(skew_matrices())
def test_skew_congruence_keeps_the_gram_schmidt_pivots(a):
    assert skew_canonical_congruence(a) == skew_congruence_by_bilinears(a)
