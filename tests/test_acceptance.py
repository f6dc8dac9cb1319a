"""End-to-end acceptance checks.

Each test covers one acceptance criterion, prints a single pass/fail line
(run with -s to see them), and asserts the criterion at its stated
tolerance and time budget.
"""

import random
import time
from fractions import Fraction

from boundary_forge import (
    Poly,
    PolyMatrix,
    RatMatrix,
    TwoVarPolyMatrix,
    UnsolvableError,
    boundary_structure,
    canonical_power_split,
    constrained_boundary,
    constrained_sample,
    constrained_suite,
    dirac_suite,
    div_zeta_plus_eta,
    inertia_congruence,
    lagrange_boundary,
    lagrange_suite,
    constrained_balance_form,
    storage_balance_form,
    realize,
    skew_adjoint_structure,
    two_point_form,
    validate_dirac_pair,
    validate_lagrange_pair,
    verify_realization_structure,
)

from instances import (
    CONSTRAINED_INSTANCES,
    DIRAC_INSTANCES,
    LAGRANGE_INSTANCES,
    pm,
    random_unimodular,
)
from oracles import bdf_apply, mul_zeta_plus_eta

s = Poly.variable()


def report_line(number, description, ok, elapsed):
    tag = "pass" if ok else "FAIL"
    print(f"[{tag}] criterion {number} ({elapsed:.3f}s): {description}")


def test_criterion_1_worked_example_exact():
    start = time.perf_counter()
    structure = skew_adjoint_structure(pm([[0, s], [s, 0]]))
    expected_sigma = RatMatrix.from_rows([[0, 1], [1, 0]])
    ok = (structure.pi == TwoVarPolyMatrix.constant(expected_sigma)
          and structure.Z == PolyMatrix.identity(2)
          and structure.Sigma == expected_sigma)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 0.1
    report_line(1, "first order coupling reproduced exactly", ok, elapsed)
    assert structure.pi == TwoVarPolyMatrix.constant(expected_sigma)
    assert structure.Z == PolyMatrix.identity(2)
    assert structure.Sigma == expected_sigma
    assert elapsed < 0.1


def test_criterion_2_signature_theorem():
    """Pairing signature equals the signature of the quotient's coefficient
    matrix, on curated instances and unimodular left translates."""
    start = time.perf_counter()
    rng = random.Random(2024)
    checked = 0
    small = [inst for inst in DIRAC_INSTANCES
             if inst["F"].rows <= 3 and max(inst["F"].degree,
                                            inst["E"].degree) <= 3]
    for inst in small:
        variants = [(inst["F"], inst["E"])]
        for _ in range(2):
            u = random_unimodular(rng, inst["F"].rows)
            variants.append((u * inst["F"], u * inst["E"]))
        for f, e in variants:
            structure = boundary_structure(validate_dirac_pair(f, e))
            # route one: signature of the factored pairing matrix
            sig, _ = inertia_congruence(structure.Sigma)
            # route two: signature of the quotient coefficient matrix
            coeff, _ = inertia_congruence(structure.pi.to_coeff().mat)
            assert (sig.positive, sig.negative) == (coeff.positive,
                                                    coeff.negative)
            assert sig.zero == 0
            checked += 1
    elapsed = time.perf_counter() - start
    ok = checked >= 20 and elapsed < 5.0
    report_line(2, f"signature theorem on {checked} instances", ok, elapsed)
    assert checked >= 20
    assert elapsed < 5.0


def test_criterion_3_power_balance_exact():
    start = time.perf_counter()
    for inst in DIRAC_INSTANCES:
        structure = boundary_structure(validate_dirac_pair(inst["F"],
                                                           inst["E"]))
        form, balance = dirac_suite(structure, trials=100,
                                    degrees=(0, 2, 6), seed=11)
        assert form.trials == 100
        assert form.all_zero, inst["label"]
        assert balance.all_zero, inst["label"]
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    report_line(3, "power balance exact on 100 trajectory pairs per "
                   f"instance ({len(DIRAC_INSTANCES)} instances)",
                ok, elapsed)
    assert elapsed < 10.0


def test_criterion_4_constrained_and_storage_balances():
    start = time.perf_counter()
    assert any(inst["J"] == pm([[s]]) and inst["G"] == pm([[s]])
               for inst in CONSTRAINED_INSTANCES)
    for inst in CONSTRAINED_INSTANCES:
        structure = constrained_boundary(inst["J"], inst["G"])
        (report,) = constrained_suite(structure, trials=100, seed=7)
        assert report.all_zero, inst["label"]
    assert any(inst["P"] == pm([[1]]) and inst["S"] == pm([[s ** 2]])
               for inst in LAGRANGE_INSTANCES)
    for inst in LAGRANGE_INSTANCES:
        boundary = lagrange_boundary(
            validate_lagrange_pair(inst["P"], inst["S"]))
        (report,) = lagrange_suite(boundary, trials=100, seed=13)
        assert report.all_zero, inst["label"]
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    report_line(4, "constrained and storage balances exact on 100 samples "
                   "per instance", ok, elapsed)
    assert elapsed < 10.0


def test_criterion_5_realization():
    start = time.perf_counter()
    structure = skew_adjoint_structure(pm([[0, s], [s, 0]]))
    r = realize(structure)
    assert r.A == RatMatrix.zero(2, 2)
    assert r.B == RatMatrix.from_rows([[0, 1], [1, 0]])
    assert r.C == RatMatrix.identity(2)
    assert r.D == RatMatrix.zero(2, 2)
    sig = r.Sigma
    assert r.A.transpose() * sig + sig * r.A == RatMatrix.zero(2, 2)
    assert r.B.transpose() * sig == r.C
    assert r.D == -r.D.transpose()
    assert verify_realization_structure(r).all_pass

    scalar = boundary_structure(validate_dirac_pair(pm([[s]]), pm([[1]])))
    unsolvable_direct = False
    try:
        realize(scalar)
    except UnsolvableError:
        unsolvable_direct = True
    swapped = realize(scalar, swap=(1,))
    assert verify_realization_structure(swapped).all_pass

    # trajectory-level consistency of both defining equations
    rng = random.Random(51)
    consistent = 0
    for _ in range(50):
        latent = tuple(Poly([Fraction(rng.randint(-4, 4))
                             for _ in range(rng.choice([1, 3, 7]))])
                       for _ in range(2))
        b = r.Z.apply(latent)
        u = r.U.apply(latent)
        y = r.Y.apply(latent)
        db = tuple(p.deriv() for p in b)
        a_b = tuple(sum((c * p for c, p in zip(row, b)), Poly.zero())
                    for row in r.A.entries)
        b_u = tuple(sum((c * p for c, p in zip(row, u)), Poly.zero())
                    for row in r.B.entries)
        c_b = tuple(sum((c * p for c, p in zip(row, b)), Poly.zero())
                    for row in r.C.entries)
        d_u = tuple(sum((c * p for c, p in zip(row, u)), Poly.zero())
                    for row in r.D.entries)
        state_ok = db == tuple(x + y_ for x, y_ in zip(a_b, b_u))
        out_ok = y == tuple(x + y_ for x, y_ in zip(c_b, d_u))
        consistent += state_ok and out_ok
    elapsed = time.perf_counter() - start
    ok = unsolvable_direct and consistent == 50
    report_line(5, "realization oracle, swap behavior, and 50-trajectory "
                   "consistency", ok, elapsed)
    assert unsolvable_direct
    assert consistent == 50


def test_criterion_6_canonical_split():
    start = time.perf_counter()
    worst = 0.0
    for inst in DIRAC_INSTANCES:
        structure = boundary_structure(validate_dirac_pair(inst["F"],
                                                           inst["E"]))
        if structure.inertia.is_balanced and structure.inertia.zero == 0 \
                and structure.n > 0:
            split = canonical_power_split(structure.Sigma)
            worst = max(worst, split.residual)
        # the doubled form must always split, balanced or not
        _, doubled = two_point_form(structure)
        worst = max(worst, doubled.residual)
        assert doubled.p == structure.n
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9
    report_line(6, f"canonical split residual {worst:.2e} and two point "
                   "fallback", ok, elapsed)
    assert worst < 1e-9


def test_criterion_7_derivative_rule_and_division():
    start = time.perf_counter()
    rng = random.Random(77)

    def random_form(p, q, window):
        blocks = {}
        for k in range(window + 1):
            for l in range(window + 1):
                if rng.random() < 0.5:
                    blocks[(k, l)] = RatMatrix(
                        p, q, [[Fraction(rng.randint(-4, 4))
                                for _ in range(q)] for _ in range(p)])
        return TwoVarPolyMatrix(p, q, blocks)

    for _ in range(100):
        p = rng.randint(1, 3)
        phi = random_form(p, p, rng.randint(0, 2))
        v = tuple(Poly([Fraction(rng.randint(-4, 4))
                        for _ in range(rng.randint(1, 6))])
                  for _ in range(p))
        w = tuple(Poly([Fraction(rng.randint(-4, 4))
                        for _ in range(rng.randint(1, 6))])
                  for _ in range(p))
        lhs = bdf_apply(phi, v, w).deriv()
        rhs = bdf_apply(mul_zeta_plus_eta(phi), v, w)
        assert lhs == rhs

    for _ in range(100):
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        phi = random_form(p, q, rng.randint(0, 3))
        assert div_zeta_plus_eta(mul_zeta_plus_eta(phi)) == phi
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    report_line(7, "derivative rule and division identities on 100 random "
                   "forms each", ok, elapsed)
    assert elapsed < 10.0


def test_criterion_8_unimodular_invariance():
    start = time.perf_counter()
    rng = random.Random(88)
    for inst in DIRAC_INSTANCES:
        base = boundary_structure(validate_dirac_pair(inst["F"], inst["E"]))
        m = inst["F"].rows
        for _ in range(20):
            u = random_unimodular(rng, m)
            moved = boundary_structure(
                validate_dirac_pair(u * inst["F"], u * inst["E"]))
            assert moved.n == base.n, inst["label"]
            assert moved.inertia == base.inertia, inst["label"]
    elapsed = time.perf_counter() - start
    ok = True
    report_line(8, "boundary dimension and signature invariant under 20 "
                   "unimodular translates per instance", ok, elapsed)
