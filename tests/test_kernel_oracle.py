"""The sparse exact kernels against their dense originals, and what they
no longer do.

`_Matrix.__mul__` (shared by `RatMatrix` and `PolyMatrix`) visits only the
nonzero entries of both factors, `PolyMatrix.apply` runs on the integer
operator `algebra._IntOperator` (the one code that applies a differential
operator), which gathers each output entry in one integer coefficient list
over one denominator, and `oracles.poly_dot` (once `algebra._dot`)
convolves the nonzero coefficient pairs into one list.  Exact sums do not
depend on the order of their terms or on a common denominator, so each must
equal the dense code it replaced, kept in `tests/oracles.py` as
`dense_matmul`, `dense_apply` and `dense_dot`.  The constrained sample draws
only its free data (e; lam); the flow is the relation's to form.

The counting tests pin the work saved, with no wall clock: they count
`Poly` arithmetic by patching the class, as
`test_check_power_balance_applies_each_operator_once` counts `apply`.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundary_forge import Poly, PolyMatrix, RatMatrix, constrained_boundary
from boundary_forge.algebra import polynomial_kernel_basis
from boundary_forge.constrained import _constrained_sample, _int_basis

from instances import CONSTRAINED_INSTANCES
from oracles import dense_apply, dense_dot, dense_matmul, poly_dot, poly_latent

MANY = settings(max_examples=100)

nonzero_rationals = st.builds(Fraction, st.integers(-5, 5).filter(bool),
                              st.integers(1, 4))
# zero in about half of the draws, so that rows, columns and coefficients
# of every kind of sparsity come up
rationals = st.one_of(st.just(Fraction(0)), nonzero_rationals)
polys = st.lists(rationals, max_size=4).map(Poly)
nonzero_polys = st.lists(rationals, max_size=3).map(
    lambda cs: Poly(cs + [Fraction(1)]))
dims = st.integers(0, 5)


@st.composite
def matrices(draw, cls, rows, cols):
    """A `cls` matrix of the given shape: sparse, dense (no zero entry),
    diagonal, or sparse with one all-zero row and one all-zero column."""
    entry, nonzero = (rationals, nonzero_rationals) if cls is RatMatrix else (
        polys, nonzero_polys)
    style = draw(st.sampled_from(("sparse", "dense", "diagonal", "zero lines")))
    grid = [[draw(nonzero if style == "dense" else entry) for _ in range(cols)]
            for _ in range(rows)]
    if style == "diagonal":
        grid = [[v if i == j else cls._coerce(0) for j, v in enumerate(row)]
                for i, row in enumerate(grid)]
    if style == "zero lines" and rows and cols:
        i = draw(st.integers(0, rows - 1))
        j = draw(st.integers(0, cols - 1))
        grid[i] = [cls._coerce(0)] * cols
        for row in grid:
            row[j] = cls._coerce(0)
    return cls(rows, cols, grid)


@st.composite
def products(draw):
    cls = draw(st.sampled_from((RatMatrix, PolyMatrix)))
    rows, inner, cols = draw(dims), draw(dims), draw(dims)
    return (draw(matrices(cls, rows, inner)), draw(matrices(cls, inner, cols)))


@MANY
@given(products())
def test_product_equals_dense_product(pair):
    a, b = pair
    product = a * b
    assert type(product) is type(a)
    assert product == dense_matmul(a, b)


@pytest.mark.parametrize("cls", [RatMatrix, PolyMatrix])
@pytest.mark.parametrize("rows,inner,cols", [(0, 3, 2), (3, 0, 2), (2, 3, 0),
                                             (0, 0, 0), (4, 4, 4)])
def test_product_of_zero_matrices_and_empty_shapes(cls, rows, inner, cols):
    a, b = cls.zero(rows, inner), cls.zero(inner, cols)
    assert a * b == dense_matmul(a, b) == cls.zero(rows, cols)
    c = cls.identity(inner)
    assert a * c == dense_matmul(a, c)


@pytest.mark.parametrize("cls", [RatMatrix, PolyMatrix])
def test_product_shape_mismatch_raises_like_dense(cls):
    a, c = cls.identity(2), cls.zero(3, 2)
    with pytest.raises(ValueError, match="cannot multiply"):
        a * c
    with pytest.raises(ValueError, match="cannot multiply"):
        dense_matmul(a, c)


@MANY
@given(st.data())
def test_scalar_products_equal_dense(data):
    cls = data.draw(st.sampled_from((RatMatrix, PolyMatrix)))
    a = data.draw(matrices(cls, data.draw(dims), data.draw(dims)))
    scalars = st.one_of(st.integers(-3, 3), rationals)
    if cls is PolyMatrix:
        scalars = st.one_of(scalars, polys)
    k = data.draw(scalars)
    assert a * k == k * a == dense_matmul(a, k)


def test_rational_matrix_refuses_a_polynomial_scalar_like_dense():
    a = RatMatrix.identity(2)
    assert dense_matmul(a, Poly.variable()) is NotImplemented
    with pytest.raises(TypeError):
        a * Poly.variable()


@st.composite
def operator_applications(draw):
    rows, cols = draw(dims), draw(dims)
    op = draw(matrices(PolyMatrix, rows, cols))
    entries = st.one_of(polys, rationals, st.integers(-3, 3))
    if draw(st.booleans()):
        vec = [Poly.zero()] * cols
    else:
        vec = draw(st.lists(entries, min_size=cols, max_size=cols))
    return op, vec


@MANY
@given(operator_applications())
def test_apply_equals_dense_apply(case):
    op, vec = case
    assert op.apply(vec) == dense_apply(op, vec)


def test_apply_of_zero_operator_and_zero_vector():
    s = Poly.variable()
    op = PolyMatrix.from_rows([[0, s * s], [0, 0], [1, s]])
    for vec in ([Poly.zero(), Poly.zero()], [Poly([1, 2, 3]), Poly.zero()],
                [Poly.zero(), Poly([0, 0, 5])]):
        assert op.apply(vec) == dense_apply(op, vec)
    zero = PolyMatrix.zero(2, 3)
    assert zero.apply([s, s, s]) == dense_apply(zero, [s, s, s]) == (
        Poly.zero(), Poly.zero())
    with pytest.raises(ValueError, match="column count"):
        op.apply([s])


@MANY
@given(st.data())
def test_dot_equals_dense_dot(data):
    entries = st.one_of(polys, rationals, st.integers(-3, 3))
    u = data.draw(st.lists(entries, max_size=5))
    v = data.draw(st.lists(entries, max_size=5))
    assert poly_dot(u, v) == dense_dot(u, v)
    assert isinstance(poly_dot(u, v), Poly)


def test_dot_of_empty_and_mixed_sequences():
    s = Poly.variable()
    assert poly_dot([], []) == dense_dot([], []) == Poly.zero()
    u = [s, Fraction(1, 2), 3, Poly.zero(), 0]
    v = [Fraction(2), s * s, s, s, Poly([1, 1])]
    assert poly_dot(u, v) == dense_dot(u, v) == Poly([0, 5, Fraction(1, 2)])
    assert poly_dot([2, 3], [4, 5]) == dense_dot([2, 3], [4, 5]) == Poly.const(23)


# counting ---------------------------------------------------------------------


def count_poly_arithmetic(monkeypatch, record=None):
    """Count `Poly` additions and multiplications from here on; `record`,
    if given, receives the operands of every multiplication."""
    counts = Counter()
    for name, kind in (("__add__", "add"), ("__radd__", "add"),
                       ("__mul__", "mul"), ("__rmul__", "mul")):
        def counted(self, other, _original=getattr(Poly, name), _kind=kind):
            counts[_kind] += 1
            if _kind == "mul" and record is not None:
                record.append((self, other))
            return _original(self, other)

        monkeypatch.setattr(Poly, name, counted)
    return counts


def test_diagonal_product_multiplies_only_the_diagonal(monkeypatch):
    n = 16
    a = PolyMatrix.from_rows([[Poly([i, 1]) if i == j else 0 for j in range(n)]
                              for i in range(n)])
    b = PolyMatrix.from_rows([[Poly([1, i]) if i == j else 0 for j in range(n)]
                              for i in range(n)])
    counts = count_poly_arithmetic(monkeypatch)
    product = a * b
    assert counts["mul"] == n
    counts.clear()
    assert dense_matmul(a, b) == product
    assert counts["mul"] == n ** 3


def test_apply_builds_no_intermediate_polynomials(monkeypatch):
    n = 16
    op = PolyMatrix.from_rows([[Poly([i, 1]) if i == j else 0 for j in range(n)]
                               for i in range(n)])
    vec = [Poly([1, i, 2]) for i in range(n)]
    counts = count_poly_arithmetic(monkeypatch)
    out = op.apply(vec)
    assert counts == Counter()
    # one term for the entry s and two for each entry i + s
    assert dense_apply(op, vec) == out
    assert counts == Counter(add=2 * n - 1, mul=2 * n - 1)


def test_constrained_sample_skips_zero_kernel_entries(monkeypatch):
    inst = CONSTRAINED_INSTANCES[1]
    structure = constrained_boundary(inst["J"], inst["G"])
    basis = polynomial_kernel_basis(structure.G, 6)
    zeros = {id(e) for vec in basis for e in vec if e.is_zero}
    assert len(zeros) == len(basis) == 8
    record = []
    count_poly_arithmetic(monkeypatch, record)
    latent = poly_latent(_constrained_sample(structure, _int_basis(basis), 6,
                                             seed=3))
    assert any(not e.is_zero for e in latent[:structure.m])
    assert not [pair for pair in record
                if id(pair[0]) in zeros or id(pair[1]) in zeros]
    # the sample is drawn in integers: no polynomial arithmetic at all
    assert record == []
