"""Two-variable polynomial matrices, the induced bilinear differential
forms, and the three factorizations."""

import random
from fractions import Fraction

import pytest

from boundary_forge import (
    NotDivisibleError,
    NotSkewError,
    NotSymmetricError,
    Poly,
    PolyMatrix,
    RatMatrix,
    TwoVarPolyMatrix,
    bdf_apply,
    div_zeta_plus_eta,
    factor_general,
    factor_skew,
    factor_symmetric,
    mul_zeta_plus_eta,
)

s = Poly.variable()
z = Poly.variable()


def two_var(blocks, p, q):
    return TwoVarPolyMatrix(p, q, {key: RatMatrix.from_rows(rows)
                                   for key, rows in blocks.items()})


def random_two_var(rng, p, q, window):
    blocks = {}
    for k in range(window + 1):
        for l in range(window + 1):
            if rng.random() < 0.5:
                continue
            blocks[(k, l)] = RatMatrix(
                p, q, [[Fraction(rng.randint(-3, 3)) for _ in range(q)]
                       for _ in range(p)])
    return TwoVarPolyMatrix(p, q, blocks)


def test_bdf_constant_form():
    phi = two_var({(0, 0): [[1]]}, 1, 1)
    assert bdf_apply(phi, (z,), (z ** 2,)) == z ** 3


def test_bdf_first_derivatives():
    # zeta*eta picks the first derivative on both sides
    phi = two_var({(1, 1): [[1]]}, 1, 1)
    assert bdf_apply(phi, (z,), (z ** 2,)) == 2 * z


def test_bdf_matrix_form():
    phi = two_var({(0, 0): [[0, 1], [1, 0]]}, 2, 2)
    v = (z, z ** 2)
    assert bdf_apply(phi, v, v) == 2 * z ** 3


def test_mul_zeta_plus_eta_frozen():
    # (zeta + eta)(zeta^2 - zeta eta + eta^2) = zeta^3 + eta^3
    phi = two_var({(2, 0): [[1]], (1, 1): [[-1]], (0, 2): [[1]]}, 1, 1)
    out = mul_zeta_plus_eta(phi)
    expected = two_var({(3, 0): [[1]], (0, 3): [[1]]}, 1, 1)
    assert out == expected


def test_div_zeta_plus_eta_inverts_mul():
    rng = random.Random(3)
    for _ in range(30):
        p = rng.randint(1, 3)
        phi = random_two_var(rng, p, p, rng.randint(0, 3))
        assert div_zeta_plus_eta(mul_zeta_plus_eta(phi)) == phi


def test_div_zeta_plus_eta_rejects_nondivisible():
    phi = two_var({(0, 0): [[1]]}, 1, 1)
    with pytest.raises(NotDivisibleError) as err:
        div_zeta_plus_eta(phi)
    # witness is the nonzero diagonal restriction
    assert err.value.witness is not None
    assert not err.value.witness.is_zero()


def test_divisibility_precheck_diagonal_restriction():
    # zeta^2 + eta^2 is not divisible, zeta^2 - eta^2 is
    good = two_var({(2, 0): [[1]], (0, 2): [[-1]]}, 1, 1)
    quotient = div_zeta_plus_eta(good)
    assert quotient == two_var({(1, 0): [[1]], (0, 1): [[-1]]}, 1, 1)
    bad = two_var({(2, 0): [[1]], (0, 2): [[1]]}, 1, 1)
    with pytest.raises(NotDivisibleError):
        div_zeta_plus_eta(bad)


def test_factor_general_reconstructs():
    rng = random.Random(5)
    for _ in range(25):
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        phi = random_two_var(rng, p, q, 2)
        x, y = factor_general(phi)
        assert TwoVarPolyMatrix.outer(x, y) == phi
        assert x.rows == y.rows == phi.to_coeff().mat.rank()


def test_factor_symmetric_frozen_constant():
    phi = two_var({(0, 0): [[0, 1], [1, 0]]}, 2, 2)
    zmat, sigma = factor_symmetric(phi)
    assert zmat == PolyMatrix.identity(2)
    assert sigma == RatMatrix.from_rows([[0, 1], [1, 0]])


def test_factor_symmetric_random_reconstruction():
    rng = random.Random(9)
    for _ in range(20):
        m = rng.randint(1, 3)
        inner = rng.randint(1, 3)
        x = PolyMatrix(inner, m,
                       [[Poly([Fraction(rng.randint(-2, 2))
                               for _ in range(rng.randint(1, 3))])
                         for _ in range(m)]
                        for _ in range(inner)])
        diag = [Fraction(c) for c in
                [rng.choice([-2, -1, 1, 2]) for _ in range(inner)]]
        middle = RatMatrix.diag(diag)
        phi = TwoVarPolyMatrix.outer(x, PolyMatrix.from_const(middle) * x)
        zmat, sigma = factor_symmetric(phi)
        rebuilt = TwoVarPolyMatrix.outer(
            zmat, PolyMatrix.from_const(sigma) * zmat)
        assert rebuilt == phi
        assert sigma.is_symmetric()
        assert sigma.rank() == sigma.rows  # invertible middle


def test_factor_symmetric_rejects_nonsymmetric():
    phi = two_var({(1, 0): [[1]]}, 1, 1)
    with pytest.raises(NotSymmetricError):
        factor_symmetric(phi)


def test_factor_skew_frozen():
    # zeta - eta factors through one symplectic port pair
    phi = two_var({(1, 0): [[1]], (0, 1): [[-1]]}, 1, 1)
    w, p = factor_skew(phi)
    assert p == 1
    j = RatMatrix.from_rows([[0, 1], [-1, 0]])
    rebuilt = TwoVarPolyMatrix.outer(w, PolyMatrix.from_const(j) * w)
    assert rebuilt == phi


def test_factor_skew_zero_form():
    w, p = factor_skew(TwoVarPolyMatrix.zero(2, 2))
    assert p == 0
    assert w.rows == 0


def test_factor_skew_rejects_odd_rank_input():
    phi = two_var({(0, 0): [[0, 1], [-1, 0]], (1, 1): [[0, 1], [-1, 0]]},
                  2, 2)
    # still skew as a two-variable matrix; rank of its coefficient matrix
    # is even, so build a genuinely odd one instead via a symmetric input
    with pytest.raises(NotSkewError):
        factor_skew(two_var({(0, 0): [[1]]}, 1, 1))


def test_factor_skew_random_reconstruction():
    rng = random.Random(17)
    j = RatMatrix.from_rows([[0, 1], [-1, 0]])
    for _ in range(20):
        m = rng.randint(1, 3)
        w = PolyMatrix(2, m,
                       [[Poly([Fraction(rng.randint(-2, 2))
                               for _ in range(rng.randint(1, 3))])
                         for _ in range(m)]
                        for _ in range(2)])
        phi = TwoVarPolyMatrix.outer(w, PolyMatrix.from_const(j) * w)
        w2, p = factor_skew(phi)
        rebuilt = TwoVarPolyMatrix.outer(
            w2, PolyMatrix.from_const(_j_mat(p)) * w2)
        assert rebuilt == phi
        assert 2 * p == phi.to_coeff().mat.rank()


def _j_mat(p):
    if p == 0:
        return RatMatrix.zero(0, 0)
    top = RatMatrix.hstack([RatMatrix.zero(p, p), RatMatrix.identity(p)])
    bot = RatMatrix.hstack([-RatMatrix.identity(p), RatMatrix.zero(p, p)])
    return RatMatrix.vstack([top, bot])


def test_outer_evaluates_argument_split():
    x = PolyMatrix.from_rows([[s]])
    y = PolyMatrix.from_rows([[s ** 2]])
    phi = TwoVarPolyMatrix.outer(x, y)
    # X(zeta)^T Y(eta) = zeta * eta^2
    assert phi == two_var({(1, 2): [[1]]}, 1, 1)


def test_swap_transpose_and_symmetry_flags():
    sym = two_var({(1, 0): [[1]], (0, 1): [[1]]}, 1, 1)
    assert sym.is_symmetric()
    skew = two_var({(1, 0): [[1]], (0, 1): [[-1]]}, 1, 1)
    assert skew.is_skew()
    assert skew.swap_transpose() == -skew


def test_coeff_roundtrip():
    rng = random.Random(21)
    for _ in range(10):
        phi = random_two_var(rng, 2, 2, 2)
        assert TwoVarPolyMatrix(phi.p, phi.q, phi.blocks) == phi
        assert phi.to_coeff().mat == phi.mat
