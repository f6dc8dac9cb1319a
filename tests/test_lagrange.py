"""State/effort operator pairs and their symplectic boundary pairing."""

from fractions import Fraction

import pytest

from boundary_forge import (
    Poly,
    PolyMatrix,
    RatMatrix,
    RankConditionFailed,
    SymmetryConditionFailed,
    TwoVarPolyMatrix,
    lagrange_boundary,
    lagrange_condition_reports,
    storage_balance_form,
    validate_lagrange_pair,
)

from instances import LAGRANGE_INSTANCES, pm
from oracles import mul_zeta_plus_eta, split_boundary

s = Poly.variable()
z = Poly.variable()


def j_mat(p):
    if p == 0:
        return RatMatrix.zero(0, 0)
    top = RatMatrix.hstack([RatMatrix.zero(p, p), RatMatrix.identity(p)])
    bot = RatMatrix.hstack([-RatMatrix.identity(p), RatMatrix.zero(p, p)])
    return RatMatrix.vstack([top, bot])


def test_condition_reports_pass():
    reports = lagrange_condition_reports(pm([[1]]), pm([[s ** 2]]))
    assert [r.name for r in reports] == ["symmetry_condition",
                                         "rank_condition"]
    assert all(r.passed for r in reports)


def test_symmetry_violation_witnessed():
    # first derivative is skew, not self adjoint: residual 2s
    reports = lagrange_condition_reports(pm([[1]]), pm([[s]]))
    sym = reports[0]
    assert not sym.passed
    assert sym.witness
    with pytest.raises(SymmetryConditionFailed):
        validate_lagrange_pair(pm([[1]]), pm([[s]]))


def test_rank_violation():
    with pytest.raises(RankConditionFailed):
        validate_lagrange_pair(pm([[0]]), pm([[0]]))
    # symmetric pair with a common zero of P and S at the origin
    with pytest.raises(RankConditionFailed):
        validate_lagrange_pair(pm([[s ** 2]]), pm([[s ** 2]]))


def test_curated_symplectic_ranks():
    for inst in LAGRANGE_INSTANCES:
        boundary = lagrange_boundary(
            validate_lagrange_pair(inst["P"], inst["S"]))
        assert boundary.p == inst["p"], inst["label"]
        # the factor must rebuild the quotient and the quotient the form
        rebuilt = TwoVarPolyMatrix.outer(
            boundary.W,
            PolyMatrix.from_const(j_mat(boundary.p)) * boundary.W)
        assert rebuilt == boundary.Lambda, inst["label"]
        assert mul_zeta_plus_eta(boundary.Lambda) == boundary.Theta
        assert 2 * inst["p"] == boundary.Lambda.to_coeff().mat.rank()


def test_mixed_storage_form_frozen():
    boundary = lagrange_boundary(validate_lagrange_pair(
        pm([[1, 0], [0, 1]]), pm([[s ** 2, s], [-s, 1]])))
    theta = boundary.Theta
    # hand expansion: [[z^2 - e^2, z + e], [-(z + e), 0]]
    assert theta.block(2, 0) == RatMatrix.from_rows([[1, 0], [0, 0]])
    assert theta.block(0, 2) == RatMatrix.from_rows([[-1, 0], [0, 0]])
    assert theta.block(1, 0) == RatMatrix.from_rows([[0, 1], [-1, 0]])
    assert theta.block(0, 1) == RatMatrix.from_rows([[0, 1], [-1, 0]])
    assert theta.block(1, 1) == RatMatrix.zero(2, 2)


def test_form_is_skew():
    for inst in LAGRANGE_INSTANCES:
        boundary = lagrange_boundary(
            validate_lagrange_pair(inst["P"], inst["S"]))
        assert boundary.Theta.is_skew()
        assert boundary.Lambda.is_skew()


def test_states_and_efforts_from_latent():
    boundary = lagrange_boundary(validate_lagrange_pair(pm([[1]]),
                                                        pm([[s ** 2]])))
    latent = (z ** 3,)
    assert boundary.states(latent) == (6 * z,)
    assert boundary.efforts(latent) == (-z ** 3,)


def test_split_boundary_halves():
    boundary = lagrange_boundary(validate_lagrange_pair(pm([[1]]),
                                                        pm([[s ** 2]])))
    x_delta, e_delta = split_boundary(boundary, (z ** 2,))
    assert len(x_delta) == len(e_delta) == boundary.p == 1


def test_balance_on_worked_example():
    boundary = lagrange_boundary(validate_lagrange_pair(pm([[1]]),
                                                        pm([[s ** 2]])))
    residual = storage_balance_form(boundary, (z,), (z ** 2,),
                          Fraction(0), Fraction(1))
    assert residual == 0


def test_balance_on_all_curated_instances():
    polys = [(z ** 2 + 1, 2 * z), (z ** 3 - z, z + 3), (Poly.one(), z ** 4)]
    for inst in LAGRANGE_INSTANCES:
        boundary = lagrange_boundary(
            validate_lagrange_pair(inst["P"], inst["S"]))
        m = inst["P"].rows
        for l1_base, l2_base in polys:
            l1 = tuple(l1_base + i for i in range(m))
            l2 = tuple(l2_base * (i + 1) for i in range(m))
            residual = storage_balance_form(boundary, l1, l2,
                                  Fraction(-1, 3), Fraction(5, 2))
            assert residual == 0, inst["label"]


def test_zero_pairing_storage():
    boundary = lagrange_boundary(validate_lagrange_pair(
        PolyMatrix.identity(2), PolyMatrix.identity(2)))
    assert boundary.p == 0
    assert boundary.W.rows == 0
    assert boundary.Theta.is_zero()
    # nothing crosses the boundary for a static storage relation
    residual = storage_balance_form(boundary, (z, z ** 2), (z ** 3, z),
                          Fraction(0), Fraction(2))
    assert residual == 0


def test_describe():
    boundary = lagrange_boundary(validate_lagrange_pair(pm([[1]]),
                                                        pm([[s ** 2]])))
    assert "p=1" in boundary.describe()
