"""The Dirac trial evaluator against a reference, and how often the suites
repeat work.

`harness._dirac_trial` computes the form residual, the power-balance
residual and the split deviation of a trial from one evaluation of the
flows, efforts and boundary values of each latent.  The four functions it
replaced are kept below, verbatim, as the reference: on every curated
flow/effort structure and every repository problem file, the suite must
give equal exact residuals and bit-equal float split deviations.
"""

import importlib
import os
from fractions import Fraction

import pytest

from boundary_forge import (
    DEFAULT_SPLIT_TOLERANCE,
    PolyMatrix,
    boundary_structure,
    check_dirac_form,
    check_power_balance,
    constrained_boundary,
    constrained_suite,
    dirac_suite,
    integrate_pairing,
    skew_adjoint_structure,
    validate_dirac_pair,
)
from boundary_forge.algebra import Poly, _dot
from boundary_forge.cli import parse_problem
from boundary_forge.dirac import (
    BoundaryStructure,
    PowerSplit,
    UnbalancedSignatureError,
    canonical_power_split,
)
from boundary_forge.harness import _latent_trials

from instances import CONSTRAINED_INSTANCES, DIRAC_INSTANCES

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


# counting ---------------------------------------------------------------------


def test_dirac_suite_applies_each_operator_once_per_latent(monkeypatch):
    structure = skew_adjoint_structure(
        PolyMatrix.from_rows([[0, Poly.variable()], [Poly.variable(), 0]]))
    assert _balanced(structure)
    calls = []
    apply = PolyMatrix.apply

    def counting_apply(self, vec):
        calls.append(self)
        return apply(self, vec)

    monkeypatch.setattr(PolyMatrix, "apply", counting_apply)
    trials = 7
    dirac_suite(structure, trials, seed=1)
    # N_f, N_e and Z on each of the two latents of a trial
    assert len(calls) == 6 * trials


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
