"""`TwoVarPolyMatrix`, stored as its coefficient matrix, against the
block-by-block arithmetic of `tests/oracles.py` on random forms: p != q,
p = 0 or q = 0, zero forms and window 0 included."""

import random
from fractions import Fraction

import pytest

from boundary_forge import (
    NotDivisibleError,
    Poly,
    PolyMatrix,
    RatMatrix,
    TwoVarPolyMatrix,
    div_zeta_plus_eta,
)

from oracles import (
    BlockTwoVar,
    div_zeta_plus_eta_by_blocks,
    mul_zeta_plus_eta,
    mul_zeta_plus_eta_by_blocks,
)

SHAPES = [(0, 0), (0, 2), (2, 0), (1, 1), (1, 3), (3, 1), (2, 2), (3, 2)]


def random_blocks(rng, p, q, window):
    """Blocks up to `window`, some of them zero and some left out, with
    small entries so that sums cancel now and then."""
    blocks = {}
    for k in range(window + 1):
        for l in range(window + 1):
            roll = rng.random()
            if roll < 0.4:
                continue
            zero = roll < 0.5
            blocks[(k, l)] = RatMatrix(p, q, [
                [Fraction(0 if zero else rng.randint(-2, 2), rng.choice([1, 1, 2]))
                 for _ in range(q)] for _ in range(p)])
    return blocks


def random_pair(rng):
    """The same random form in both representations."""
    p, q = rng.choice(SHAPES)
    blocks = random_blocks(rng, p, q, rng.randint(0, 3))
    return TwoVarPolyMatrix(p, q, blocks), BlockTwoVar(p, q, blocks)


def random_poly_matrix(rng, rows, cols):
    return PolyMatrix(rows, cols, [
        [Poly([rng.randint(-1, 1) for _ in range(rng.randint(0, 3))])
         for _ in range(cols)] for _ in range(rows)])


def assert_same(new, old):
    assert (new.p, new.q) == (old.p, old.q)
    assert new.blocks == old.blocks
    window = max((max(kl) for kl in old.blocks), default=0)
    assert new.window == window
    assert new.mat.shape == ((window + 1) * new.p, (window + 1) * new.q)
    assert new.is_zero() == old.is_zero()


def test_constructor_matches_blocks():
    rng = random.Random(1)
    for _ in range(200):
        new, old = random_pair(rng)
        assert_same(new, old)
        for k in range(new.window + 2):
            for l in range(new.window + 2):
                assert new.block(k, l) == old.block(k, l)


def test_zero_forms_have_window_zero():
    for p, q in SHAPES:
        zero = TwoVarPolyMatrix.zero(p, q)
        assert_same(zero, BlockTwoVar.zero(p, q))
        padded = TwoVarPolyMatrix(p, q, {(3, 1): RatMatrix.zero(p, q)})
        assert padded == zero


def test_outer_matches_oracle():
    rng = random.Random(2)
    for _ in range(200):
        p, q = rng.choice(SHAPES)
        inner = rng.randint(0, 3)
        x = random_poly_matrix(rng, inner, p)
        y = random_poly_matrix(rng, inner, q)
        new = TwoVarPolyMatrix.outer(x, y)
        assert_same(new, BlockTwoVar.outer(x, y))
        # the identity that builds the Dirac and Lagrange forms
        assert new.swap_transpose() == TwoVarPolyMatrix.outer(y, x)


def test_outer_cuts_cancelled_top_blocks():
    s = Poly.variable()
    x = PolyMatrix.from_rows([[s ** 3, 0], [0, 1]])
    y = PolyMatrix.from_rows([[0], [s ** 2]])
    # only zeta^0 eta^2 survives: the window is 2, not the span 3
    new = TwoVarPolyMatrix.outer(x, y)
    assert_same(new, BlockTwoVar.outer(x, y))
    assert new.window == 2


def test_sum_difference_and_swap_transpose_match_oracle():
    rng = random.Random(3)
    for _ in range(200):
        new, old = random_pair(rng)
        blocks = random_blocks(rng, new.p, new.q, rng.randint(0, 3))
        other_new = TwoVarPolyMatrix(new.p, new.q, blocks)
        other_old = BlockTwoVar(new.p, new.q, blocks)
        assert_same(new + other_new, old + other_old)
        assert_same(new - other_new, old - other_old)
        assert_same(-new, -old)
        assert_same(new - new, old - old)
        assert_same(new.swap_transpose(), old.swap_transpose())
        square = new.p == new.q
        assert new.is_symmetric() == (square and old.swap_transpose() == old)
        assert new.is_skew() == (square and old.swap_transpose() == -old)
        sym = new + new.swap_transpose() if square else new
        assert sym.is_symmetric() == square


def test_mul_zeta_plus_eta_matches_oracle():
    rng = random.Random(4)
    for _ in range(200):
        new, old = random_pair(rng)
        assert_same(mul_zeta_plus_eta(new), mul_zeta_plus_eta_by_blocks(old))


def test_div_zeta_plus_eta_matches_oracle():
    rng = random.Random(5)
    rejected = 0
    for trial in range(400):
        new, old = random_pair(rng)
        if trial % 2:
            new, old = mul_zeta_plus_eta(new), mul_zeta_plus_eta_by_blocks(old)
        try:
            expected = div_zeta_plus_eta_by_blocks(old)
        except NotDivisibleError as exc:
            rejected += 1
            with pytest.raises(NotDivisibleError) as err:
                div_zeta_plus_eta(new)
            # the witness is Phi(-eta, eta) in full, not a part of it
            assert err.value.witness == exc.witness == old.at_zeta_minus_eta()
            assert err.value.witness.shape == (new.p, new.q)
            continue
        assert_same(div_zeta_plus_eta(new), expected)
    assert 50 < rejected < 200
