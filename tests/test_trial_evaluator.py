"""The balance-law kernel and the Dirac trial evaluator against references,
and how often the suites repeat work.

Every balance check goes through `algebra._Balance`, which evaluates the
boundary vectors at the two endpoints before pairing them through the
constant middle matrix, in integers over one common denominator.  The polynomial-bracket functions it
replaced are kept below, verbatim, as the reference: on every curated
structure and every repository problem file the checks must give equal
exact residuals and bit-equal float split deviations.  The structures are
also perturbed so that the residuals are nonzero, where equality says more
than two zeros do.
"""

import dataclasses
import importlib
import os
from fractions import Fraction

import pytest

from boundary_forge import (
    DEFAULT_SPLIT_TOLERANCE,
    PolyMatrix,
    RatMatrix,
    boundary_structure,
    constrained_boundary,
    constrained_suite,
    dirac_suite,
    lagrange_boundary,
    skew_adjoint_structure,
    validate_dirac_pair,
    validate_lagrange_pair,
)
from boundary_forge import constrained, lagrange
from boundary_forge.algebra import Poly, _dot, _int_dot, _IntOperator
from boundary_forge.cli import parse_problem
from boundary_forge.constrained import (
    ConstrainedSample,
    ConstrainedStructure,
    constrained_sample,
)
from boundary_forge.dirac import (
    BoundaryStructure,
    PowerSplit,
    UnbalancedSignatureError,
    canonical_power_split,
)
from boundary_forge.harness import _latent_trials
from boundary_forge.lagrange import LagrangeBoundary

from instances import CONSTRAINED_INSTANCES, DIRAC_INSTANCES, LAGRANGE_INSTANCES
from oracles import check_dirac_form, check_power_balance, integrate_pairing

PROBLEMS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "problems")
TRIALS = 20


# reference: the per-trial residuals as separate functions ---------------------


def _pairing_bracket(structure: BoundaryStructure, l1, l2) -> Poly:
    b1 = structure.boundary(l1)
    b2 = structure.boundary(l2)
    sigma_b2 = [_dot((Poly.const(c) for c in row), b2)
                for row in structure.Sigma.entries]
    return _dot(b1, sigma_b2)


def _dirac_form_residual(structure: BoundaryStructure, l1, l2, alpha, beta) -> Fraction:
    total = integrate_pairing(structure.flows(l1), structure.efforts(l1),
                              structure.flows(l2), structure.efforts(l2),
                              alpha, beta)
    bracket = _pairing_bracket(structure, l1, l2)
    return total - (bracket(beta) - bracket(alpha))


def _power_balance_residual(structure: BoundaryStructure, l, alpha, beta) -> Fraction:
    f, e = structure.flows(l), structure.efforts(l)
    total = _dot(e, f).integral(Fraction(alpha), Fraction(beta))
    bracket = _pairing_bracket(structure, l, l)
    return total - (bracket(beta) - bracket(alpha)) / 2


def _power_split_deviation(structure: BoundaryStructure, split: PowerSplit,
                           l, alpha, beta) -> float:
    """Relative disagreement between the exact interior power and the split
    boundary power difference.

    The split lives in floating point, so its roundoff grows with the size
    of the boundary values; dividing by the magnitude of the compared terms
    makes the tolerance meaningful across trajectory scales.
    """
    f, e = structure.flows(l), structure.efforts(l)
    total = _dot(e, f).integral(Fraction(alpha), Fraction(beta))
    b = structure.boundary(l)

    def boundary_power(point) -> float:
        f_delta, e_delta = split.apply([p(point) for p in b])
        return sum(x * y for x, y in zip(e_delta, f_delta))

    at_beta = boundary_power(beta)
    at_alpha = boundary_power(alpha)
    scale = max(1.0, abs(float(total)), abs(at_beta), abs(at_alpha))
    return abs(float(total) - (at_beta - at_alpha)) / scale


def constrained_balance_form(structure: ConstrainedStructure,
               sample1: ConstrainedSample, sample2: ConstrainedSample,
               interval: tuple) -> Fraction:
    """Exact residual of the constrained power balance over an interval.

    Returns

        int_a^b (e1^T f2 + e2^T f1) dz
          - [b_J1^T Sigma_J b_J2]_a^b
          - [b_G2^T Pi_G c_G1]_a^b  - [b_G1^T Pi_G c_G2]_a^b

    computed in rational arithmetic; zero for every pair of constrained
    solutions.
    """
    a, b = Fraction(interval[0]), Fraction(interval[1])
    integrand = (_dot(sample1.effort, sample2.flow)
                 + _dot(sample2.effort, sample1.flow))
    total = integrand.integral(a, b)

    b_j1 = structure.Z_J.apply(sample1.effort)
    b_j2 = structure.Z_J.apply(sample2.effort)
    sigma_bj2 = [_dot(row, b_j2) for row in structure.Sigma_J.entries]
    j_bracket = _dot(b_j1, sigma_bj2)

    b_g1 = structure.Z_G.apply(sample1.effort)
    b_g2 = structure.Z_G.apply(sample2.effort)
    c_g1 = structure.V_G.apply(sample1.multiplier)
    c_g2 = structure.V_G.apply(sample2.multiplier)
    g_bracket = _dot(b_g2, c_g1) + _dot(b_g1, c_g2)

    boundary = (j_bracket(b) - j_bracket(a)) + (g_bracket(b) - g_bracket(a))
    return total - boundary


def storage_balance_form(boundary: LagrangeBoundary, latent1, latent2, alpha, beta) -> Fraction:
    """Exact residual of the symplectic balance over [alpha, beta].

    Returns

        int_a^b (x1^T e2 - x2^T e1) dz
          + x_delta1(b)^T e_delta2(b) - e_delta1(b)^T x_delta2(b)
          - x_delta1(a)^T e_delta2(a) + e_delta1(a)^T x_delta2(a)

    computed in rational arithmetic; zero for all polynomial latents.
    """
    a, b = Fraction(alpha), Fraction(beta)
    x1, e1 = boundary.states(latent1), boundary.efforts(latent1)
    x2, e2 = boundary.states(latent2), boundary.efforts(latent2)
    integrand = _dot(x1, e2) - _dot(x2, e1)
    total = integrand.integral(a, b)

    x_d1, e_d1 = boundary.split_boundary(latent1)
    x_d2, e_d2 = boundary.split_boundary(latent2)
    bracket = _dot(x_d1, e_d2) - _dot(e_d1, x_d2)
    return total + bracket(b) - bracket(a)


def reference_suite(structure, trials, seed, interval=None,
                    split_tolerance=DEFAULT_SPLIT_TOLERANCE):
    """(form residuals, balance residuals, split deviations, balanced) as
    the suite computed them with the reference functions."""
    try:
        split = canonical_power_split(structure.Sigma, split_tolerance)
    except UnbalancedSignatureError:
        split = None
    form, balance, deviations = [], [], []
    for l1, l2, a, b in _latent_trials(structure.rep.m, trials, (0, 2, 6),
                                       seed, interval):
        form.append(_dirac_form_residual(structure, l1, l2, a, b))
        balance.append(_power_balance_residual(structure, l1, a, b))
        if split is not None:
            deviations.append(_power_split_deviation(structure, split, l1, a, b))
    return tuple(form), tuple(balance), tuple(deviations), split is not None


# structures -------------------------------------------------------------------


def _structures():
    out = []
    for inst in DIRAC_INSTANCES:
        pair = validate_dirac_pair(inst["F"], inst["E"])
        out.append((f"dirac:{inst['label']}", boundary_structure(pair)))
    for name in sorted(os.listdir(PROBLEMS)):
        if not name.endswith(".json"):
            continue
        problem = parse_problem(os.path.join(PROBLEMS, name))
        mats = problem.matrices
        if problem.kind == "dirac":
            try:
                pair = validate_dirac_pair(mats["F"], mats["E"])
            except ValueError:
                continue
            out.append((f"file:{name}", boundary_structure(pair)))
        elif problem.kind == "skew_adjoint":
            out.append((f"file:{name}", skew_adjoint_structure(mats["J"])))
        elif problem.kind == "constrained":
            structure = constrained_boundary(mats["J"], mats["G"]).j_structure
            out.append((f"file:{name}", structure))
    return out


STRUCTURES = _structures()


def _balanced(structure):
    try:
        canonical_power_split(structure.Sigma, DEFAULT_SPLIT_TOLERANCE)
    except UnbalancedSignatureError:
        return False
    return True


def test_structures_cover_both_signatures():
    verdicts = {_balanced(structure) for _, structure in STRUCTURES}
    assert verdicts == {True, False}


@pytest.mark.parametrize("label,structure", STRUCTURES,
                         ids=[label for label, _ in STRUCTURES])
def test_dirac_suite_matches_reference(label, structure):
    form, balance = dirac_suite(structure, TRIALS, seed=5)
    ref_form, ref_balance, ref_deviations, balanced = reference_suite(
        structure, TRIALS, 5)
    assert form.residuals == ref_form
    assert balance.residuals == ref_balance
    # bit-equal floats, not approximately equal ones
    assert balance.split_deviations == ref_deviations
    assert (balance.split_tolerance is not None) == balanced


def test_dirac_suite_matches_reference_on_given_interval():
    label, structure = STRUCTURES[0]
    interval = (Fraction(-1, 2), Fraction(3))
    form, balance = dirac_suite(structure, 6, seed=11, interval=interval)
    ref_form, ref_balance, ref_deviations, _ = reference_suite(
        structure, 6, 11, interval)
    assert (form.residuals, balance.residuals) == (ref_form, ref_balance)
    assert balance.split_deviations == ref_deviations


@pytest.mark.parametrize("label,structure", STRUCTURES[:4],
                         ids=[label for label, _ in STRUCTURES[:4]])
def test_single_trial_checks_match_reference(label, structure):
    l1, l2, a, b = next(_latent_trials(structure.rep.m, 1, (2,), 3, None))
    assert check_dirac_form(structure, l1, l2, a, b).residuals == (
        _dirac_form_residual(structure, l1, l2, a, b),)
    report = check_power_balance(structure, l1, a, b)
    assert report.residuals == (_power_balance_residual(structure, l1, a, b),)
    if _balanced(structure):
        split = canonical_power_split(structure.Sigma, DEFAULT_SPLIT_TOLERANCE)
        assert report.split_deviations == (
            _power_split_deviation(structure, split, l1, a, b),)
    else:
        assert report.split_deviations == ()


# perturbed structures: nonzero residuals ------------------------------------


def _lagrange_boundaries():
    return [(inst["label"], lagrange_boundary(validate_lagrange_pair(inst["P"], inst["S"])))
            for inst in LAGRANGE_INSTANCES]


def _constrained_structures():
    return [(inst["label"], constrained.constrained_boundary(inst["J"], inst["G"]))
            for inst in CONSTRAINED_INSTANCES]


@pytest.mark.parametrize("label,boundary", _lagrange_boundaries(),
                         ids=[label for label, _ in _lagrange_boundaries()])
def test_storage_balance_matches_reference_when_perturbed(label, boundary):
    perturbed = [boundary,
                 dataclasses.replace(boundary, W=boundary.W * 2),
                 dataclasses.replace(boundary, rep=dataclasses.replace(
                     boundary.rep, N_x=boundary.rep.N_x * Poly((1, 1))))]
    nonzero = 0
    for l1, l2, a, b in _latent_trials(boundary.m, 6, (1, 3), 7, None):
        for k, bd in enumerate(perturbed):
            got = lagrange.storage_balance_form(bd, l1, l2, a, b)
            assert got == storage_balance_form(bd, l1, l2, a, b)
            if k == 0:
                assert got == 0
            nonzero += got != 0
    assert nonzero >= 6


@pytest.mark.parametrize("label,structure", _constrained_structures(),
                         ids=[label for label, _ in _constrained_structures()])
def test_constrained_balance_matches_reference_when_perturbed(label, structure):
    j = structure.j_structure
    shifted = RatMatrix.identity(j.n) + j.Sigma
    perturbed = [structure,
                 dataclasses.replace(structure, Z_G=structure.Z_G * 2),
                 dataclasses.replace(structure, V_G=structure.V_G * -1),
                 dataclasses.replace(structure, j_structure=dataclasses.replace(
                     j, Sigma=shifted, Z=j.Z * 2))]
    nonzero = 0
    for t, degree in enumerate((1, 2, 3, 4)):
        s1 = constrained_sample(structure, degree, 2 * t)
        s2 = constrained_sample(structure, degree, 2 * t + 1)
        interval = (Fraction(-1, 3), Fraction(5, 2))
        for k, st in enumerate(perturbed):
            got = constrained.constrained_balance_form(st, s1, s2, interval)
            assert got == constrained_balance_form(st, s1, s2, interval)
            if k == 0:
                assert got == 0
            nonzero += got != 0
    assert nonzero >= 4


@pytest.mark.parametrize("label,structure", STRUCTURES,
                         ids=[label for label, _ in STRUCTURES])
def test_dirac_form_matches_reference_when_perturbed(label, structure):
    # scaling Sigma keeps its inertia, which the power split relies on
    scaled = dataclasses.replace(structure, Sigma=structure.Sigma * 2)
    nonzero = 0
    for l1, l2, a, b in _latent_trials(structure.rep.m, 4, (2, 5), 9, None):
        for st in (scaled, dataclasses.replace(
                structure, rep=dataclasses.replace(
                    structure.rep, N_e=structure.rep.N_e + structure.rep.N_f))):
            got = check_dirac_form(st, l1, l2, a, b).residuals
            assert got == (_dirac_form_residual(st, l1, l2, a, b),)
            nonzero += got != (0,)
            balance = check_power_balance(st, l1, a, b).residuals
            assert balance == (_power_balance_residual(st, l1, a, b),)
    assert nonzero > 0


# counting ---------------------------------------------------------------------


def test_dirac_suite_applies_each_operator_once_per_latent(monkeypatch):
    structure = skew_adjoint_structure(
        PolyMatrix.from_rows([[0, Poly.variable()], [Poly.variable(), 0]]))
    assert _balanced(structure)
    calls = []
    apply = _IntOperator.apply

    def counting_apply(self, derivs):
        calls.append(self)
        return apply(self, derivs)

    monkeypatch.setattr(_IntOperator, "apply", counting_apply)
    trials = 7
    dirac_suite(structure, trials, seed=1)
    # N_f, N_e and Z on each of the two latents of a trial
    assert len(calls) == 6 * trials


def test_dirac_suite_forms_each_interior_pairing_once(monkeypatch):
    structure = skew_adjoint_structure(
        PolyMatrix.from_rows([[0, Poly.variable()], [Poly.variable(), 0]]))
    assert _balanced(structure)
    calls = []

    def counting_dot(u, v):
        calls.append(len(u))
        return _int_dot(u, v)

    for name in ("boundary_forge.algebra", "boundary_forge.harness"):
        monkeypatch.setattr(importlib.import_module(name), "_int_dot",
                            counting_dot)
    trials = 10
    dirac_suite(structure, trials, seed=1)
    # e1.f2 and e2.f1 for the form, e1.f1 for both the power balance and
    # the split deviation
    assert len(calls) == 3 * trials


def test_check_power_balance_applies_each_operator_once(monkeypatch):
    label, structure = STRUCTURES[0]
    calls = []
    apply = _IntOperator.apply

    def counting_apply(self, derivs):
        calls.append(self)
        return apply(self, derivs)

    monkeypatch.setattr(_IntOperator, "apply", counting_apply)
    l, _, a, b = next(_latent_trials(structure.rep.m, 1, (3,), 2, None))
    check_power_balance(structure, l, a, b)
    # N_f, N_e and Z on the one latent
    assert len(calls) == 3


def test_constrained_suite_builds_one_kernel_basis_per_degree(monkeypatch):
    inst = CONSTRAINED_INSTANCES[1]
    structure = constrained_boundary(inst["J"], inst["G"])
    degrees = []
    build = importlib.import_module("boundary_forge.algebra").polynomial_kernel_basis

    def counting_build(g, degree):
        degrees.append(degree)
        return build(g, degree)

    for name in ("boundary_forge.harness", "boundary_forge.constrained"):
        monkeypatch.setattr(importlib.import_module(name),
                            "polynomial_kernel_basis", counting_build)
    (report,) = constrained_suite(structure, trials=10, seed=4)
    assert report.all_zero
    assert sorted(degrees) == [0, 2, 6]
