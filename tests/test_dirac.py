"""Operator pair validation, boundary synthesis, and the power split."""

import os
import random
from fractions import Fraction

import pytest

from boundary_forge import (
    DiracConditionError,
    Poly,
    PolyMatrix,
    RatMatrix,
    SplitToleranceError,
    TwoVarPolyMatrix,
    UnbalancedSignatureError,
    boundary_structure,
    canonical_power_split,
    dirac_condition_reports,
    image_representation,
    inertia_congruence,
    skew_adjoint_residual,
    skew_adjoint_structure,
    two_point_form,
    validate_dirac_pair,
)
from boundary_forge import dirac as dirac_module
from boundary_forge.cli import RunOptions, parse_problem, run

from instances import (
    DIRAC_INSTANCES,
    RANK_DROP_PAIR,
    SKEW_INSTANCES,
    pm,
    random_unimodular,
)
from oracles import concatenation_compatible

PROBLEMS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "problems")
s = Poly.variable()
z = Poly.variable()


def reconstructs(structure):
    sigma_z = PolyMatrix.from_const(structure.Sigma) * structure.Z
    return TwoVarPolyMatrix.outer(structure.Z, sigma_z) == structure.pi


def test_worked_example_exact():
    """The first order coupling operator must come out exactly in the
    canonical normal form."""
    j = pm([[0, s], [s, 0]])
    structure = skew_adjoint_structure(j)
    expected_pi = TwoVarPolyMatrix.constant(
        RatMatrix.from_rows([[0, 1], [1, 0]]))
    assert structure.pi == expected_pi
    assert structure.Z == PolyMatrix.identity(2)
    assert structure.Sigma == RatMatrix.from_rows([[0, 1], [1, 0]])
    assert structure.inertia.as_tuple() == (1, 1, 0)
    assert structure.n == 2


def test_curated_dimensions_and_signatures():
    for inst in DIRAC_INSTANCES:
        structure = boundary_structure(validate_dirac_pair(inst["F"],
                                                           inst["E"]))
        assert structure.n == inst["n"], inst["label"]
        assert structure.inertia.as_tuple() == inst["inertia"], inst["label"]
        assert reconstructs(structure), inst["label"]


def test_skew_adjoint_entry_point_matches_general_pipeline():
    for inst in SKEW_INSTANCES:
        via_skew = skew_adjoint_structure(inst["J"])
        pair = validate_dirac_pair(PolyMatrix.identity(inst["J"].rows),
                                   -inst["J"])
        via_pair = boundary_structure(pair)
        assert via_skew.pi == via_pair.pi
        assert via_skew.Z == via_pair.Z
        assert via_skew.Sigma == via_pair.Sigma
        assert via_skew.n == inst["n"]
        assert via_skew.inertia.as_tuple() == inst["inertia"]


def test_skew_adjoint_residual():
    assert skew_adjoint_residual(pm([[0, s], [s, 0]])).is_zero()
    bad = pm([[1, s], [s, 0]])
    assert not skew_adjoint_residual(bad).is_zero()
    with pytest.raises(DiracConditionError) as err:
        skew_adjoint_structure(bad)
    assert err.value.reports[0].name == "skew_adjoint"
    assert not err.value.reports[0].passed


def test_condition_reports_on_valid_pair():
    reports = dirac_condition_reports(pm([[s]]), pm([[1]]))
    assert [r.name for r in reports] == ["skew_condition", "rank_condition"]
    assert all(r.passed for r in reports)


def test_rank_drop_pair_diagnosed():
    f, e = RANK_DROP_PAIR
    reports = dirac_condition_reports(f, e)
    by_name = {r.name: r for r in reports}
    assert by_name["skew_condition"].passed
    assert not by_name["rank_condition"].passed
    with pytest.raises(DiracConditionError) as err:
        validate_dirac_pair(f, e)
    assert any(not r.passed for r in err.value.reports)


def test_skew_condition_failure_carries_witness():
    # F = E = I is maximally non skew: residual 2I
    reports = dirac_condition_reports(PolyMatrix.identity(1),
                                      PolyMatrix.identity(1))
    skew = reports[0]
    assert not skew.passed
    assert skew.witness


def test_image_representation_annihilates():
    for inst in DIRAC_INSTANCES:
        pair = validate_dirac_pair(inst["F"], inst["E"])
        rep = image_representation(pair)
        residual = inst["F"] * rep.N_f + inst["E"] * rep.N_e
        assert residual.is_zero()


def test_boundary_values_live_on_trajectories():
    structure = skew_adjoint_structure(pm([[0, s], [s, 0]]))
    latent = (z, z ** 2)
    assert structure.efforts(latent) == latent
    assert structure.flows(latent) == (2 * z, Poly.one())
    # Z = I here, so the boundary vector is the latent itself
    assert structure.boundary(latent) == latent


def test_canonical_split_residual_small():
    structure = skew_adjoint_structure(pm([[0, s], [s, 0]]))
    split = canonical_power_split(structure.Sigma)
    assert split.p == 1
    assert split.residual < 1e-9
    f_delta, e_delta = split.apply([1, 2])
    # pointwise power must match the pairing value b^T Sigma b / ... exactly
    # up to float roundoff: b^T Sigma b = 2*(1*2) = 4 = 2 e_delta f_delta
    assert abs(2 * sum(x * y for x, y in zip(f_delta, e_delta)) - 4) < 1e-9


def test_canonical_split_unbalanced_raises():
    with pytest.raises(UnbalancedSignatureError) as err:
        canonical_power_split(RatMatrix.from_rows([[-1]]))
    assert err.value.inertia.as_tuple() == (0, 1, 0)


def test_canonical_split_rejects_singular_input():
    with pytest.raises(ValueError):
        canonical_power_split(RatMatrix.from_rows([[0]]))


def test_canonical_split_respects_tolerance():
    # sqrt(3)^2 rounds; a split of [[0, 1], [1, 0]] is exact
    sigma = RatMatrix.from_rows([[0, 3], [3, 0]])
    with pytest.raises(SplitToleranceError):
        canonical_power_split(sigma, tolerance=1e-300)


def test_canonical_split_empty():
    split = canonical_power_split(RatMatrix.zero(0, 0))
    assert split.p == 0
    assert split.apply([]) == ((), ())


def test_two_point_form_always_splits():
    for inst in DIRAC_INSTANCES:
        structure = boundary_structure(validate_dirac_pair(inst["F"],
                                                           inst["E"]))
        sigma2, split = two_point_form(structure)
        assert sigma2.rows == 2 * structure.n
        assert split.p == structure.n
        assert split.residual < 1e-9
        doubled, _ = inertia_congruence(sigma2)
        assert doubled.is_balanced


def test_report_runs_one_congruence(monkeypatch):
    # two_point_form takes the doubled inertia from the structure's own
    calls = []
    real = dirac_module.inertia_congruence

    def counted(sigma):
        calls.append(sigma.shape)
        return real(sigma)

    monkeypatch.setattr(dirac_module, "inertia_congruence", counted)
    report = run("report", parse_problem(os.path.join(PROBLEMS,
                                                      "scalar_derivative.json")),
                 RunOptions())
    assert report["split"]["two_point_fallback"]["p"] == 1
    assert calls == [(1, 1)]


def test_split_transform_reproduces_pairing():
    rng = random.Random(23)
    structure = skew_adjoint_structure(pm([[0, s], [s, 0]]))
    split = canonical_power_split(structure.Sigma)
    for _ in range(20):
        b = [rng.randint(-5, 5) for _ in range(2)]
        f_delta, e_delta = split.apply(b)
        direct = sum(b[i] * float(structure.Sigma.entries[i][j]) * b[j]
                     for i in range(2) for j in range(2))
        via_split = 2 * sum(x * y for x, y in zip(f_delta, e_delta))
        assert abs(direct - via_split) < 1e-9


def test_concatenation_compatibility():
    structure = skew_adjoint_structure(pm([[0, s], [s, 0]]))
    left = (z, z ** 2)
    # same boundary values at z=1 but different trajectories
    right = (z + (z - 1) ** 2 * z, z ** 2)
    assert concatenation_compatible(structure, left, left, Fraction(1))
    assert concatenation_compatible(structure, left, right, Fraction(1))
    assert not concatenation_compatible(structure, left,
                                        (z + 1, z ** 2), Fraction(1))


def test_unimodular_left_multiplication_preserves_structure():
    rng = random.Random(31)
    for inst in DIRAC_INSTANCES[:4]:
        base = boundary_structure(validate_dirac_pair(inst["F"], inst["E"]))
        m = inst["F"].rows
        for _ in range(5):
            u = random_unimodular(rng, m)
            moved = boundary_structure(
                validate_dirac_pair(u * inst["F"], u * inst["E"]))
            assert moved.n == base.n
            assert moved.inertia == base.inertia


def test_describe_strings():
    structure = skew_adjoint_structure(pm([[0, s], [s, 0]]))
    text = structure.describe()
    assert "n=2" in text
    assert "pair" in structure.pair.describe()
