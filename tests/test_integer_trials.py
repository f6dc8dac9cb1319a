"""The integer trial residuals against their `Fraction` originals, and
the `Fraction` arithmetic the trials no longer do.

`algebra._Balance` runs every balance trial on integers over one common
denominator and builds one `Fraction` per residual.  The residuals are
exact, so each must equal the all-`Fraction` residual it replaced, kept in
`tests/oracles.py` as `fraction_balance_residual` and
`fraction_power_trial`, and the split deviations must be bit-equal floats.
The operators come from the `hypothesis` strategies of the other property
tests, scaled by a rational so that they carry denominators; perturbed
middle matrices make the residuals nonzero, where equality says more than
two zeros do.

The counting tests pin the work saved with no wall clock: the trial loops
of all three suites do no `Fraction` arithmetic and build no `Poly` at all,
whatever the number of trials or the trajectory degree, because latents
and constrained samples are drawn as integers, and a constrained trial
makes six integer operator applies.  Tests that compare with
the `Fraction` oracles turn a drawn latent into polynomials with
`oracles.poly_latent`.
"""

import dataclasses
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from boundary_forge import (
    RatMatrix,
    boundary_structure,
    constrained_boundary,
    constrained_sample,
    constrained_suite,
    dirac_suite,
    lagrange_boundary,
    lagrange_suite,
    skew_adjoint_structure,
    validate_dirac_pair,
    validate_lagrange_pair,
)
from boundary_forge.algebra import Poly, PolyMatrix, _Balance, _IntOperator
from boundary_forge.constrained import constrained_balance_form
from boundary_forge.dirac import DEFAULT_SPLIT_TOLERANCE
from boundary_forge.harness import (
    _dirac_balance,
    _latent_trials,
    _optional_split,
    _power_trial,
)
from boundary_forge.lagrange import storage_balance_form

from instances import CONSTRAINED_INSTANCES, DIRAC_INSTANCES, LAGRANGE_INSTANCES
from oracles import (
    constrained_middle,
    constrained_triple,
    dirac_triple,
    fraction_balance_residual,
    fraction_power_trial,
    poly_latent,
    storage_middle,
    storage_triple,
)
from test_partition_search import constrained_operators, para_symmetric_storage
from test_realize_oracle import skew_adjoint_operators

FEW = settings(max_examples=25)

scales = st.builds(Fraction, st.integers(1, 7), st.integers(1, 6))
seeds = st.integers(0, 2 ** 16)
nonzero_rationals = st.builds(Fraction, st.integers(-5, 5).filter(bool),
                              st.integers(1, 4))


@st.composite
def perturbations(draw, n):
    """An n x n rational matrix with one nonzero entry."""
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    c = draw(nonzero_rationals)
    return RatMatrix(n, n, [[c if (r, k) == (i, j) else 0 for k in range(n)]
                            for r in range(n)])


@FEW
@given(skew_adjoint_operators(), scales, seeds)
def test_dirac_trials_equal_fraction_oracle(J, scale, seed):
    structure = skew_adjoint_structure(J * scale)
    # doubling Sigma keeps its inertia, which the power split relies on
    for st_ in (structure, dataclasses.replace(structure,
                                               Sigma=structure.Sigma * 2)):
        split = _optional_split(st_, DEFAULT_SPLIT_TOLERANCE)
        dirac = _dirac_balance(st_)
        for x1, x2, a, b in _latent_trials(st_.rep.m, 3, (0, 2, 5), seed, None):
            l1, l2 = poly_latent(x1), poly_latent(x2)
            first = dirac.evaluate(x1)
            assert dirac.residual(first, dirac.evaluate(x2), a, b) == (
                fraction_balance_residual(dirac_triple(st_, l1),
                                          dirac_triple(st_, l2), st_.Sigma,
                                          a, b))
            # bit-equal floats, not approximately equal ones
            assert _power_trial(dirac, split, first, a, b) == (
                fraction_power_trial(st_, split, dirac_triple(st_, l1), a, b))


@FEW
@given(para_symmetric_storage(), scales, seeds, st.data())
def test_lagrange_trials_equal_fraction_oracle(S, scale, seed, data):
    boundary = lagrange_boundary(validate_lagrange_pair(
        PolyMatrix.identity(S.rows) * scale, S))
    middles = [storage_middle(boundary)]
    if boundary.W.rows:
        middles.append(middles[0] + data.draw(perturbations(boundary.W.rows)))
    for x1, x2, a, b in _latent_trials(boundary.m, 3, (0, 2, 5), seed, None):
        l1, l2 = poly_latent(x1), poly_latent(x2)
        want = [fraction_balance_residual(storage_triple(boundary, l1),
                                          storage_triple(boundary, l2),
                                          middle, a, b, sign=-1)
                for middle in middles]
        assert storage_balance_form(boundary, l1, l2, a, b) == want[0] == 0
        rep = boundary.rep
        for middle, residual in zip(middles, want):
            balance = _Balance(rep.N_x, rep.N_e, boundary.W, middle, sign=-1)
            assert balance.residual(balance.evaluate(x1), balance.evaluate(x2),
                                    a, b) == residual


@FEW
@given(constrained_operators(), scales, seeds, st.integers(0, 4))
def test_constrained_trials_equal_fraction_oracle(pair, scale, seed, degree):
    J, G = pair
    structure = constrained_boundary(J * scale, G)
    j = structure.j_structure
    perturbed = [structure,
                 dataclasses.replace(structure, Pi_G=structure.Pi_G * 2),
                 dataclasses.replace(structure, j_structure=dataclasses.replace(
                     j, Sigma=j.Sigma + RatMatrix.identity(j.n)))]
    s1 = constrained_sample(structure, degree, seed)
    s2 = constrained_sample(structure, degree, seed + 1)
    interval = (Fraction(-2, 3), Fraction(7, 4))
    for k, st_ in enumerate(perturbed):
        got = constrained_balance_form(st_, s1, s2, interval)
        assert got == fraction_balance_residual(
            constrained_triple(st_, s1), constrained_triple(st_, s2),
            constrained_middle(st_), *interval)
        if k == 0:
            assert got == 0


def test_perturbed_middles_give_nonzero_residuals():
    """The oracle comparisons above see nonzero residuals: on the curated
    instances every perturbation moves some residual off zero."""
    nonzero = Counter()
    for inst in DIRAC_INSTANCES:
        structure = boundary_structure(validate_dirac_pair(inst["F"], inst["E"]))
        st_ = dataclasses.replace(structure, Sigma=structure.Sigma * 2)
        dirac = _dirac_balance(st_)
        for x1, x2, a, b in _latent_trials(st_.rep.m, 3, (2,), 1, None):
            l1, l2 = poly_latent(x1), poly_latent(x2)
            got = dirac.residual(dirac.evaluate(x1), dirac.evaluate(x2), a, b)
            assert got == fraction_balance_residual(
                dirac_triple(st_, l1), dirac_triple(st_, l2), st_.Sigma, a, b)
            nonzero["dirac"] += got != 0
    for inst in LAGRANGE_INSTANCES:
        boundary = lagrange_boundary(validate_lagrange_pair(inst["P"], inst["S"]))
        middle = storage_middle(boundary) * 2
        rep = boundary.rep
        balance = _Balance(rep.N_x, rep.N_e, boundary.W, middle, sign=-1)
        for x1, x2, a, b in _latent_trials(boundary.m, 3, (2,), 1, None):
            l1, l2 = poly_latent(x1), poly_latent(x2)
            got = balance.residual(balance.evaluate(x1), balance.evaluate(x2),
                                   a, b)
            assert got == fraction_balance_residual(
                storage_triple(boundary, l1), storage_triple(boundary, l2),
                middle, a, b, sign=-1)
            nonzero["lagrange"] += got != 0
    for inst in CONSTRAINED_INSTANCES:
        structure = constrained_boundary(inst["J"], inst["G"])
        st_ = dataclasses.replace(structure, Pi_G=structure.Pi_G * 2)
        s1, s2 = (constrained_sample(structure, 3, seed) for seed in (1, 2))
        got = constrained_balance_form(st_, s1, s2, (0, 1))
        assert got == fraction_balance_residual(
            constrained_triple(st_, s1), constrained_triple(st_, s2),
            constrained_middle(st_), Fraction(0), Fraction(1))
        nonzero["constrained"] += got != 0
    assert set(nonzero) == {"dirac", "lagrange", "constrained"}
    assert all(nonzero.values())


# counting ---------------------------------------------------------------------

ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__", "__floordiv__",
              "__rfloordiv__", "__mod__", "__rmod__", "__pow__", "__rpow__",
              "__neg__", "__pos__", "__abs__")


def count_fraction_arithmetic(monkeypatch) -> Counter:
    """Count `Fraction` arithmetic operations from here on, by dunder name."""
    counts = Counter()
    for name in ARITHMETIC:
        def counted(*args, _original=getattr(Fraction, name), _name=name):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(Fraction, name, counted)
    return counts


def count_poly_constructions(monkeypatch) -> Counter:
    """Count `Poly` constructions from here on."""
    counts = Counter()

    def counted(self, coeffs=(), _original=Poly.__init__):
        counts["Poly"] += 1
        _original(self, coeffs)

    monkeypatch.setattr(Poly, "__init__", counted)
    return counts


def count_int_applies(monkeypatch) -> Counter:
    """Count `_IntOperator.apply` calls from here on."""
    counts = Counter()

    def counted(self, derivs, _original=_IntOperator.apply):
        counts["apply"] += 1
        return _original(self, derivs)

    monkeypatch.setattr(_IntOperator, "apply", counted)
    return counts


def _suite_counts(monkeypatch, run, count=count_fraction_arithmetic
                  ) -> list[int]:
    """Operations counted by `count` in `run(trials)` for 3 and 12 trials."""
    out = []
    for trials in (3, 12):
        counts = count(monkeypatch)
        run(trials)
        out.append(sum(counts.values()))
        monkeypatch.undo()
    return out


def _suite_runs():
    """The three suites on one curated instance each, as functions of the
    trial count; degrees 0 and 6 both come up in three trials."""
    inst = DIRAC_INSTANCES[-1]
    dirac = boundary_structure(validate_dirac_pair(inst["F"], inst["E"]))
    inst = LAGRANGE_INSTANCES[0]
    lagrange = lagrange_boundary(validate_lagrange_pair(inst["P"], inst["S"]))
    inst = CONSTRAINED_INSTANCES[1]
    constrained = constrained_boundary(inst["J"], inst["G"])
    return {
        "dirac": lambda trials: dirac_suite(dirac, trials, degrees=(0, 6),
                                            seed=2),
        "lagrange": lambda trials: lagrange_suite(lagrange, trials,
                                                  degrees=(0, 6), seed=2),
        "constrained": lambda trials: constrained_suite(
            constrained, trials, degrees=(0, 6), seed=2),
    }


def test_trial_loops_do_no_fraction_arithmetic(monkeypatch):
    # the Dirac suite builds its split and balance once, the Lagrange suite
    # negates J_p once and the constrained suite builds one kernel basis per
    # degree; the trials add nothing
    for name, run in _suite_runs().items():
        few, many = _suite_counts(monkeypatch, run)
        assert few == many, name


def test_trial_loops_construct_no_polynomials(monkeypatch):
    for name, run in _suite_runs().items():
        few, many = _suite_counts(monkeypatch, run, count_poly_constructions)
        assert few == many, name
    # drawing and evaluating latents builds none at all
    inst = DIRAC_INSTANCES[-1]
    dirac = _dirac_balance(boundary_structure(
        validate_dirac_pair(inst["F"], inst["E"])))
    counts = count_poly_constructions(monkeypatch)
    for x1, x2, a, b in _latent_trials(dirac.cols, 6, (0, 6), 2, None):
        dirac.residual(dirac.evaluate(x1), dirac.evaluate(x2), a, b)
    assert counts == Counter()


def test_constrained_trial_applies_six_operators(monkeypatch):
    """A constrained trial applies the balance's three operators to the free
    data (e; lam) of each of its two samples, the flow operator [J G_adj]
    among them; drawing a sample applies none."""
    run = _suite_runs()["constrained"]
    assert _suite_counts(monkeypatch, run, count_int_applies) == [18, 72]


def test_constrained_residual_does_fixed_fraction_arithmetic(monkeypatch):
    """Drawing a constrained solution is `Fraction` work of the sample; the
    residual of a pair costs the same fixed number of operations (building
    its balance) at every degree."""
    inst = CONSTRAINED_INSTANCES[1]
    structure = constrained_boundary(inst["J"], inst["G"])
    per_degree = []
    for degree in (1, 6):
        s1, s2 = (constrained_sample(structure, degree, seed) for seed in (3, 4))
        counts = count_fraction_arithmetic(monkeypatch)
        assert constrained_balance_form(structure, s1, s2, (-1, 2)) == 0
        per_degree.append(sum(counts.values()))
        monkeypatch.undo()
    assert per_degree[0] == per_degree[1]
