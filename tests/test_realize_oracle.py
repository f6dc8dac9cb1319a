"""Test-only oracles for the structure identities `realize` does not check.

A realization is returned without running `verify_realization_structure`:
a unique coefficient-matching solution forces the structure identities
(see the `realize` module docstring).  Here every swap set that `realize`
accepts is verified in full on curated instances, repository problem
files, the J = s^d family and random skew-adjoint operators.  A `report`
runs the verification once, for its `identities` field.
"""

import dataclasses
import importlib
import os
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from boundary_forge import (
    Poly,
    PolyMatrix,
    RatMatrix,
    boundary_structure,
    constrained_boundary,
    lagrange_boundary,
    realize,
    skew_adjoint_structure,
    validate_dirac_pair,
    validate_lagrange_pair,
    validate_skew_adjoint,
)
from boundary_forge.cli import RunOptions, parse_problem, run
from boundary_forge.realize import (
    NonUniqueSolutionError,
    UnsolvableError,
    verify_realization_structure,
)

from instances import (
    CONSTRAINED_INSTANCES,
    DIRAC_INSTANCES,
    LAGRANGE_INSTANCES,
    SKEW_INSTANCES,
)

s = Poly.variable()
PROBLEMS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "problems")


def assert_every_realization_verifies(structure):
    """Every swap set that realizes the structure passes every identity;
    returns how many swap sets did."""
    found = 0
    m = structure.m
    for size in range(m + 1):
        for swap in combinations(range(1, m + 1), size):
            try:
                r = realize(structure, swap=swap)
            except (UnsolvableError, NonUniqueSolutionError):
                continue
            report = verify_realization_structure(r)
            assert report.all_pass, f"swap {swap}:\n{report}"
            assert len(report.checks) == 4
            found += 1
    return found


def test_curated_instances():
    for inst in DIRAC_INSTANCES:
        structure = boundary_structure(validate_dirac_pair(inst["F"], inst["E"]))
        assert assert_every_realization_verifies(structure) > 0, inst["label"]
    for inst in SKEW_INSTANCES:
        structure = skew_adjoint_structure(inst["J"])
        assert assert_every_realization_verifies(structure) > 0, inst["label"]
    for inst in CONSTRAINED_INSTANCES:
        structure = constrained_boundary(inst["J"], inst["G"]).j_structure
        assert assert_every_realization_verifies(structure) > 0, inst["label"]


def test_problem_files():
    checked = 0
    for name in sorted(os.listdir(PROBLEMS)):
        if not name.endswith(".json"):
            continue
        problem = parse_problem(os.path.join(PROBLEMS, name))
        mats = problem.matrices
        if problem.kind == "dirac":
            try:
                structure = boundary_structure(
                    validate_dirac_pair(mats["F"], mats["E"]))
            except ValueError:
                continue
        elif problem.kind == "skew_adjoint":
            structure = skew_adjoint_structure(mats["J"])
        elif problem.kind == "constrained":
            structure = constrained_boundary(mats["J"], mats["G"]).j_structure
        else:
            continue
        assert assert_every_realization_verifies(structure) > 0, name
        checked += 1
    assert checked >= 3


def test_skew_degree_family():
    for d in range(1, 7):
        sign = 1 if d % 2 else -1
        J = PolyMatrix.from_rows([[0, s ** d], [sign * s ** d, 0]])
        assert assert_every_realization_verifies(skew_adjoint_structure(J)) > 0


@st.composite
def skew_adjoint_operators(draw):
    """J = sum_k J_k s^k with J_k skew for even k and symmetric for odd k,
    so that J(-s)^T = -J(s)."""
    m = draw(st.integers(1, 3))
    degree = draw(st.integers(0, 3))
    entries = [[Poly.zero() for _ in range(m)] for _ in range(m)]
    for k in range(degree + 1):
        sign = -1 if k % 2 == 0 else 1
        for i in range(m):
            for j in range(i, m):
                if i == j and sign == -1:
                    continue
                c = Fraction(draw(st.integers(-2, 2)))
                term = Poly.const(c) * s ** k
                entries[i][j] = entries[i][j] + term
                if i != j:
                    entries[j][i] = entries[j][i] + term * sign
    return PolyMatrix.from_rows(entries)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(skew_adjoint_operators())
def test_random_skew_adjoint_operators(J):
    assert validate_skew_adjoint(J)[0]
    assert assert_every_realization_verifies(skew_adjoint_structure(J)) > 0


def test_report_verifies_realization_once(monkeypatch):
    calls = []
    verify = verify_realization_structure

    def counting_verify(r):
        calls.append(r.swap)
        return verify(r)

    for name in ("boundary_forge.realize", "boundary_forge.cli"):
        monkeypatch.setattr(importlib.import_module(name),
                            "verify_realization_structure", counting_verify)
    for name in ("first_order_coupling.json", "scalar_derivative.json",
                 "constrained_coupling.json", "second_order_storage.json"):
        calls.clear()
        problem = parse_problem(os.path.join(PROBLEMS, name))
        report = run("report", problem, RunOptions(trials=2))
        assert report["realization"]["identities_pass"]
        assert len(calls) == 1, name


def test_aggregate_residual_follows_from_pairing(monkeypatch):
    """With R = A^T Sigma + Sigma A the aggregate residual is
    Sigma^-1 R Sigma^-1: a zero R reports a zero aggregate without
    inverting Sigma, a nonzero R reports the aggregate as computed."""
    inverse = RatMatrix.inverse
    inverted = []

    def counting_inverse(self):
        inverted.append(self)
        return inverse(self)

    skew = SKEW_INSTANCES[0]
    storage = LAGRANGE_INSTANCES[0]
    for r in (realize(skew_adjoint_structure(skew["J"])),
              realize(lagrange_boundary(
                  validate_lagrange_pair(storage["P"], storage["S"])))):
        monkeypatch.setattr(RatMatrix, "inverse", counting_inverse)
        inverted.clear()
        report = verify_realization_structure(r)
        assert report.all_pass and not inverted
        monkeypatch.undo()
        assert r.n > 0 and report.checks[3].residual == 0

        tampered = dataclasses.replace(r, A=r.A + RatMatrix.identity(r.n))
        pairing, _, _, aggregate = verify_realization_structure(tampered).checks
        assert not pairing.passed and not aggregate.passed
        sigma_inv = r.Sigma.inverse()
        residual = tampered.A.transpose() * r.Sigma + r.Sigma * tampered.A
        assert aggregate.residual == (sigma_inv * residual * sigma_inv).max_abs()

