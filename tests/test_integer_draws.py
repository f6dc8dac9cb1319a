"""The integer draws of the verification trials against the `Fraction`
draws they replaced.

`constrained._random_int_vector` draws each coefficient with the same two
`randint` calls, in the same order, as the `Fraction` draw path kept in
`tests/oracles.py` (`fraction_random_latent`,
`fraction_constrained_sample`), and returns the coefficients as integers
over one denominator.  So every latent, interval and constrained sample
must be the same rationals as before; the goldens depend on it.  The
literal latents below pin the draw order in one focused test.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundary_forge import (
    EmptyKernelError,
    Poly,
    PolyMatrix,
    constrained_boundary,
    constrained_sample,
    polynomial_kernel_basis,
    random_latent,
)
from boundary_forge.harness import _constrained_trials, _latent_trials, _sub_seed

from instances import CONSTRAINED_INSTANCES, pm
from oracles import fraction_constrained_sample, fraction_random_latent, poly_latent

s = Poly.variable()
seeds = st.integers(0, 2 ** 32)
dims = st.integers(0, 4)
degrees = st.integers(0, 6)
intervals = st.one_of(st.none(), st.just((Fraction(-1, 2), 3)))

STRUCTURES = [constrained_boundary(inst["J"], inst["G"])
              for inst in CONSTRAINED_INSTANCES]
# G(d/dz) e = e has no nonzero solution at any degree
TRIVIAL_KERNEL = constrained_boundary(pm([[s]]), pm([[1]]))


def test_random_latent_literals():
    t = random_latent(0, 1, 1)
    assert t.l == (Poly([Fraction(3, 7), Fraction(-8, 5)]),)
    assert (t.alpha, t.beta) == (Fraction(3, 5), Fraction(7, 8))
    t = random_latent(7, 2, 0)
    assert t.l == (Poly([Fraction(1, 3)]), Poly([3]))
    assert (t.alpha, t.beta) == (-1, Fraction(-7, 9))
    # the two higher coefficients are drawn as zero and trimmed
    t = random_latent(17, 1, 2)
    assert t.l == (Poly([1]),) and t.l[0].coeffs == (1,)
    assert (t.alpha, t.beta) == (-6, Fraction(8, 5))


def test_negative_degree_is_refused():
    with pytest.raises(ValueError, match="nonnegative"):
        random_latent(1, 0, -1)


@settings(max_examples=100)
@given(seeds, dims, degrees)
def test_random_latent_equals_fraction_draw(seed, dim, degree):
    assert random_latent(seed, dim, degree) == fraction_random_latent(
        seed, dim, degree)


@settings(max_examples=50)
@given(seeds, dims, degrees, intervals)
def test_latent_trials_equal_fraction_draws(seed, dim, degree, interval):
    for t, (x1, x2, a, b) in enumerate(
            _latent_trials(dim, 3, (degree,), seed, interval)):
        t1 = fraction_random_latent(_sub_seed(seed, t, 0), dim, degree)
        t2 = fraction_random_latent(_sub_seed(seed, t, 1), dim, degree)
        assert (poly_latent(x1), poly_latent(x2)) == (t1.l, t2.l)
        # no trailing zero survives the draw
        assert all(cs[-1] for cs in x1[0] + x2[0] if cs)
        assert (a, b) == ((t1.alpha, t1.beta) if interval is None
                          else tuple(map(Fraction, interval)))


def _assert_sample_equals_fraction_draw(structure, degree, seed):
    basis = polynomial_kernel_basis(structure.G, degree)
    sample = constrained_sample(structure, degree, seed)
    assert (sample.effort, sample.multiplier, sample.flow) == (
        fraction_constrained_sample(structure, basis, degree, seed))
    assert sample.kernel_empty == (not basis)


@settings(max_examples=50)
@given(seeds, degrees)
def test_constrained_sample_equals_fraction_draw(seed, degree):
    for structure in STRUCTURES + [TRIVIAL_KERNEL]:
        _assert_sample_equals_fraction_draw(structure, degree, seed)


@settings(max_examples=25)
@given(seeds, degrees, intervals)
def test_constrained_trials_equal_fraction_draws(seed, degree, interval):
    structure = STRUCTURES[1]
    basis = polynomial_kernel_basis(structure.G, degree)
    relation = PolyMatrix.hstack([structure.J, structure.G_adj])
    for t, (x1, x2, a, b) in enumerate(
            _constrained_trials(structure, 2, (degree,), seed, interval)):
        for x, salt in ((x1, 0), (x2, 1)):
            effort, multiplier, flow = fraction_constrained_sample(
                structure, basis, degree, _sub_seed(seed, t, salt))
            # the trials draw the free data (e; lam); the balance forms f
            assert poly_latent(x) == effort + multiplier
            assert relation.apply(poly_latent(x)) == flow
        if interval is not None:
            assert (a, b) == tuple(map(Fraction, interval))


def test_trivial_kernel_sample():
    sample = constrained_sample(TRIVIAL_KERNEL, 3, 5)
    assert sample.kernel_empty
    assert all(e.is_zero for e in sample.effort)
    _assert_sample_equals_fraction_draw(TRIVIAL_KERNEL, 3, 5)
    with pytest.raises(EmptyKernelError):
        constrained_sample(TRIVIAL_KERNEL, 3, 5, require_nonzero_e=True)
    with pytest.raises(EmptyKernelError):
        fraction_constrained_sample(TRIVIAL_KERNEL, (), 3, 5,
                                    require_nonzero_e=True)


def test_zero_weights_are_redrawn():
    """The one-vector kernel of ``G = s`` has a zero first weight at seed 23
    (numerator 0 from the first `randint`), so the sample draws its weight
    again, as the `Fraction` path did."""
    structure = STRUCTURES[0]
    assert len(polynomial_kernel_basis(structure.G, 2)) == 1
    assert random.Random(23).randint(-9, 9) == 0
    sample = constrained_sample(structure, 2, 23)
    assert not all(e.is_zero for e in sample.effort)
    _assert_sample_equals_fraction_draw(structure, 2, 23)
