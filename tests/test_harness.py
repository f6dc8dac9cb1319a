"""Randomized verification harness: exact residual suites, the split
deviation channel, and reproducibility."""

import random
import time
from fractions import Fraction

import pytest

from boundary_forge import (
    Poly,
    PolyMatrix,
    RatMatrix,
    SplitToleranceError,
    TwoVarPolyMatrix,
    VerificationReport,
    constrained_boundary,
    constrained_suite,
    dirac_suite,
    lagrange_boundary,
    lagrange_suite,
    random_latent,
    skew_adjoint_structure,
    validate_lagrange_pair,
)

from instances import pm
from oracles import (check_dirac_form, check_power_balance, derivative_rule_check,
                     integrate_pairing)

s = Poly.variable()
z = Poly.variable()


def example_structure():
    return skew_adjoint_structure(pm([[0, s], [s, 0]]))


def test_integrate_pairing_frozen():
    # integrand 1*z + 1*z = 2z over [0,1]
    value = integrate_pairing((z,), (Poly.one(),), (z,), (Poly.one(),),
                              Fraction(0), Fraction(1))
    assert value == 1


def test_integrate_pairing_additive_over_subintervals():
    f = (z ** 2, z)
    e = (z + 1, z ** 3)
    a, c, b = Fraction(-1), Fraction(1, 3), Fraction(2)
    whole = integrate_pairing(f, e, f, e, a, b)
    parts = (integrate_pairing(f, e, f, e, a, c)
             + integrate_pairing(f, e, f, e, c, b))
    assert whole == parts


def test_random_latent_reproducible():
    one_run = random_latent(99, 2, 4)
    again = random_latent(99, 2, 4)
    assert one_run == again
    other = random_latent(100, 2, 4)
    assert one_run != other
    assert one_run.alpha < one_run.beta
    assert one_run.dim == 2
    assert all(p.degree <= 4 for p in one_run.l)


def test_check_dirac_form_zero_residual():
    structure = example_structure()
    t1 = random_latent(1, 2, 5)
    t2 = random_latent(2, 2, 5)
    report = check_dirac_form(structure, t1.l, t2.l, t1.alpha, t1.beta)
    assert report.trials == 1
    assert report.all_zero
    assert report.all_pass


def test_check_power_balance_with_split():
    structure = example_structure()
    t = random_latent(3, 2, 6)
    report = check_power_balance(structure, t.l, t.alpha, t.beta)
    assert report.all_zero
    assert report.split_tolerance is not None
    assert len(report.split_deviations) == 1
    assert report.split_deviations[0] <= report.split_tolerance


def test_power_trial_beyond_the_float_range_fails_the_split():
    huge = Poly([10 ** 400])
    with pytest.raises(SplitToleranceError, match="float range"):
        check_power_balance(example_structure(), (huge, huge), 0, 1)


def test_check_power_balance_unbalanced_has_no_deviations():
    structure = skew_adjoint_structure(pm([[s]]))  # signature (0, 1)
    t = random_latent(4, 1, 4)
    report = check_power_balance(structure, t.l, t.alpha, t.beta)
    assert report.all_zero
    assert report.split_tolerance is None
    assert report.split_deviations == ()


def test_dirac_suite_all_exact():
    structure = example_structure()
    form, balance = dirac_suite(structure, trials=30, seed=5)
    assert form.trials == balance.trials == 30
    assert form.all_zero and balance.all_zero
    assert balance.split_tolerance is not None
    assert len(balance.split_deviations) == 30
    assert balance.all_pass


def test_dirac_suite_reproducible():
    structure = example_structure()
    first = dirac_suite(structure, trials=12, seed=77)
    second = dirac_suite(structure, trials=12, seed=77)
    assert first[0].residuals == second[0].residuals
    assert first[1].residuals == second[1].residuals
    assert first[1].split_deviations == second[1].split_deviations


def test_dirac_suite_fixed_interval():
    structure = example_structure()
    form, balance = dirac_suite(structure, trials=6, seed=1,
                                interval=(Fraction(0), Fraction(1)))
    assert form.all_zero and balance.all_zero


def test_dirac_suite_elapsed_split_between_checks():
    structure = example_structure()
    start = time.perf_counter()
    form, balance = dirac_suite(structure, trials=10, seed=2)
    wall = time.perf_counter() - start
    assert form.elapsed > 0 and balance.elapsed > 0
    assert form.elapsed + balance.elapsed <= wall


def test_constrained_suite_exact():
    structure = constrained_boundary(pm([[s]]), pm([[s]]))
    (report,) = constrained_suite(structure, trials=20, seed=3)
    assert report.check == "constrained_balance"
    assert report.trials == 20
    assert report.all_zero


def test_lagrange_suite_exact():
    boundary = lagrange_boundary(validate_lagrange_pair(pm([[1]]),
                                                        pm([[s ** 2]])))
    (report,) = lagrange_suite(boundary, trials=20, seed=9)
    assert report.check == "symplectic_balance"
    assert report.all_zero


def test_derivative_rule_random_forms():
    rng = random.Random(15)
    for _ in range(25):
        p = rng.randint(1, 3)
        blocks = {}
        for k in range(3):
            for l in range(3):
                if rng.random() < 0.4:
                    blocks[(k, l)] = RatMatrix(
                        p, p, [[Fraction(rng.randint(-3, 3))
                                for _ in range(p)] for _ in range(p)])
        phi = TwoVarPolyMatrix(p, p, blocks)
        v = tuple(Poly([Fraction(rng.randint(-3, 3))
                        for _ in range(rng.randint(1, 5))])
                  for _ in range(p))
        w = tuple(Poly([Fraction(rng.randint(-3, 3))
                        for _ in range(rng.randint(1, 5))])
                  for _ in range(p))
        report = derivative_rule_check(phi, v, w)
        assert report.all_zero


def test_report_invariants():
    with pytest.raises(ValueError):
        VerificationReport("check", "inst", 3, (Fraction(0),), 0.0)
    bad_split = VerificationReport("check", "inst", 1, (Fraction(0),), 0.0,
                                   (1.0,), 1e-9)
    assert bad_split.all_zero
    assert not bad_split.all_pass
    nonzero = VerificationReport("check", "inst", 1, (Fraction(1, 2),), 0.0)
    assert not nonzero.all_zero
    assert "FAIL" in str(nonzero)
    good = VerificationReport("check", "inst", 1, (Fraction(0),), 0.0)
    assert "pass" in str(good)


def test_suite_residuals_differ_between_seeds():
    # residuals are all zero for valid structures, so compare the sampled
    # trajectories themselves to show seeds actually steer the draw
    a = random_latent(7, 2, 3)
    b = random_latent(8, 2, 3)
    assert a != b
