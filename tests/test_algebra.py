"""Exact scalar, polynomial, and matrix layer."""

import random
from fractions import Fraction

import pytest

from boundary_forge import (
    NEG_INF,
    InconsistentSystemError,
    Inertia,
    Poly,
    PolyMatrix,
    RatMatrix,
    UnderdeterminedSystemError,
    as_rat,
    full_rank_everywhere,
    inertia_congruence,
    polynomial_kernel_basis,
    rank_factorization,
    skew_canonical_congruence,
    solve_linear,
)

from oracles import poly_gcd

s = Poly.variable()


def test_as_rat_accepts_exact_inputs_only():
    assert as_rat(3) == Fraction(3)
    assert as_rat("3/4") == Fraction(3, 4)
    assert as_rat(Fraction(-2, 5)) == Fraction(-2, 5)
    with pytest.raises(TypeError):
        as_rat(0.5)


def test_poly_arithmetic():
    p = (s - 1) * (s + 1)
    assert p == s ** 2 - 1
    assert p.degree == 2
    assert p(Fraction(3)) == 8
    assert (2 * s + 1).deriv() == Poly.const(2)
    assert (3 * s ** 2).antideriv() == s ** 3
    assert (2 * s).integral(0, 1) == 1
    # formal adjoint substitution z -> -z on coefficients
    assert (s ** 2 + s).para() == s ** 2 - s


def test_zero_polynomial_degree_sentinel():
    assert Poly.zero().degree == NEG_INF
    assert Poly.zero().is_zero
    assert not (s + 1).is_zero
    # max() over degrees needs no special casing this way
    assert max(Poly.zero().degree, s.degree) == 1


def test_poly_divmod():
    num = s ** 3 - 2 * s + 5
    den = s - 1
    q, r = divmod(num, den)
    assert q * den + r == num
    assert r.degree < den.degree
    with pytest.raises(ZeroDivisionError):
        divmod(num, Poly.zero())


def test_poly_gcd_frozen():
    g = poly_gcd([s ** 2 - 1, s ** 2 - 2 * s + 1])
    assert g == s - 1  # hand computed, monic


def test_poly_gcd_coprime_is_one():
    assert poly_gcd([s + 1, s + 2]) == Poly.one()
    assert poly_gcd([Poly.zero(), 3 * s]) == s


def test_full_rank_everywhere():
    assert full_rank_everywhere(PolyMatrix.identity(2))
    # a scalar multiple of s drops rank at the origin
    assert not full_rank_everywhere(PolyMatrix.from_rows([[s]]))
    # wide matrix: rank held by the constant column
    assert full_rank_everywhere(PolyMatrix.from_rows([[-s, 1]]))
    # common zero at the origin in both rows
    stacked = PolyMatrix.from_rows([[-s, 0, 0, 0], [0, 0, 0, -s]])
    assert not full_rank_everywhere(stacked)


def test_solve_linear_exact_solution():
    a = RatMatrix.from_rows([[2, 1], [1, 3]])
    b = RatMatrix.from_rows([[5], [10]])
    x = solve_linear(a, b)
    assert a * x == b
    assert x == RatMatrix.from_rows([[Fraction(1)], [Fraction(3)]])


def test_solve_linear_inconsistent():
    a = RatMatrix.from_rows([[1, 1], [1, 1]])
    b = RatMatrix.from_rows([[1], [2]])
    with pytest.raises(InconsistentSystemError) as err:
        solve_linear(a, b)
    assert err.value.witness


def test_solve_linear_underdetermined():
    a = RatMatrix.from_rows([[1, 1]])
    b = RatMatrix.from_rows([[1]])
    with pytest.raises(UnderdeterminedSystemError) as err:
        solve_linear(a, b)
    assert err.value.dof == 1


def test_solve_linear_rank_deficiency_detected_without_rhs_columns():
    a = RatMatrix.from_rows([[1, 2], [2, 4]])
    b = RatMatrix.zero(2, 0)
    with pytest.raises(UnderdeterminedSystemError):
        solve_linear(a, b)


def test_solve_linear_empty_system():
    x = solve_linear(RatMatrix.zero(0, 0), RatMatrix.zero(0, 3))
    assert x.shape == (0, 3)


def test_inertia_congruence_diagonal():
    inertia, t = inertia_congruence(RatMatrix.diag([2, -3, 0]))
    assert inertia.as_tuple() == (1, 1, 1)
    assert inertia.dim == 3
    # balance compares positive against negative; zeros are tracked apart
    assert inertia.is_balanced
    assert not inertia_congruence(RatMatrix.diag([2, 3]))[0].is_balanced


def test_inertia_congruence_hyperbolic_block():
    m = RatMatrix.from_rows([[0, 1], [1, 0]])
    inertia, t = inertia_congruence(m)
    assert inertia.as_tuple() == (1, 1, 0)
    assert inertia.is_balanced
    d = t.transpose() * m * t
    # hyperbolic pair kept exact instead of introducing sqrt(2)
    assert d.entries[0][0] == 0 and d.entries[1][1] == 0
    assert d.entries[0][1] == d.entries[1][0] != 0


def test_inertia_invariant_under_congruence():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 4)
        base = [[Fraction(rng.randint(-4, 4)) for _ in range(n)]
                for _ in range(n)]
        m = RatMatrix(n, n, [[base[i][j] + base[j][i] for j in range(n)]
                             for i in range(n)])
        while True:
            r = RatMatrix(n, n, [[Fraction(rng.randint(-3, 3))
                                  for _ in range(n)] for _ in range(n)])
            if r.rank() == n:
                break
        left, _ = inertia_congruence(m)
        right, _ = inertia_congruence(r.transpose() * m * r)
        assert left == right  # Sylvester


def test_rank_factorization_frozen():
    m = RatMatrix.from_rows([[1, 0], [0, 0]])
    x, y = rank_factorization(m)
    assert x == RatMatrix.from_rows([[1, 0]])
    assert y == RatMatrix.from_rows([[1, 0]])
    assert x.transpose() * y == m


def test_rank_factorization_random_reconstruction():
    rng = random.Random(11)
    for _ in range(25):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = RatMatrix(rows, cols, [[Fraction(rng.randint(-3, 3))
                                    for _ in range(cols)]
                                   for _ in range(rows)])
        x, y = rank_factorization(m)
        assert x.transpose() * y == m
        assert x.rows == y.rows == m.rank()


def test_rank_factorization_zero_matrix():
    x, y = rank_factorization(RatMatrix.zero(2, 3))
    assert x.rows == 0 and y.rows == 0
    assert x.transpose() * y == RatMatrix.zero(2, 3)


def test_skew_canonical_congruence_frozen():
    m = RatMatrix.from_rows([[0, 2], [-2, 0]])
    p, t = skew_canonical_congruence(m)
    assert p == 1
    canon = t.transpose() * m * t
    assert canon == RatMatrix.from_rows([[0, 1], [-1, 0]])


def test_skew_canonical_congruence_random():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(1, 5)
        base = [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                for _ in range(n)]
        m = RatMatrix(n, n, [[base[i][j] - base[j][i] for j in range(n)]
                             for i in range(n)])
        p, t = skew_canonical_congruence(m)
        canon = t.transpose() * m * t
        assert 2 * p == m.rank()
        for i in range(n):
            for j in range(n):
                expected = Fraction(0)
                if i < p and j == i + p:
                    expected = Fraction(1)
                elif j < p and i == j + p:
                    expected = Fraction(-1)
                assert canon.entries[i][j] == expected


def test_polynomial_kernel_basis_first_derivative():
    basis = polynomial_kernel_basis(PolyMatrix.from_rows([[s]]), 3)
    assert len(basis) == 1
    assert basis[0] == (Poly.one(),)


def test_polynomial_kernel_basis_second_derivative():
    g = PolyMatrix.from_rows([[s ** 2]])
    basis = polynomial_kernel_basis(g, 3)
    assert len(basis) == 2
    for vec in basis:
        assert all(p.is_zero for p in g.apply(vec))
        assert vec[0].degree <= 1


def test_polynomial_kernel_basis_annihilates():
    g = PolyMatrix.from_rows([[s, -1], [0, s ** 2]])
    for vec in polynomial_kernel_basis(g, 4):
        assert all(p.is_zero for p in g.apply(vec))


def test_poly_matrix_apply_differentiates():
    m = PolyMatrix.from_rows([[s, 1], [0, s ** 2]])
    z = Poly.variable()
    out = m.apply((z ** 2, z ** 3))
    assert out[0] == 2 * z + z ** 3
    assert out[1] == 6 * z


def test_rat_matrix_basics():
    m = RatMatrix.from_rows([[1, 2], [3, 4]])
    assert m.rank() == 2
    assert m.inverse() * m == RatMatrix.identity(2)
    assert RatMatrix.block_diag([m, RatMatrix.identity(1)]).shape == (3, 3)
    assert m.max_abs() == 4
    assert RatMatrix.zero(0, 0).max_abs() == 0


def test_inertia_record():
    i = Inertia(2, 2, 1)
    assert i.dim == 5
    assert i.is_balanced
    assert i.as_tuple() == (2, 2, 1)
