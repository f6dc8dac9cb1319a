"""The signature theorem on generated operators.

For a Dirac structure the number n of boundary variables equals the rank
of the coefficient matrix of the quotient Pi = Phi / (zeta + eta), and the
inertia of Sigma equals the nonzero inertia of that matrix.  For a storage
pair, 2p equals the rank of the coefficient matrix of Lambda.  These are
invariants of the relation, so a unimodular U that changes its
representation but not the relation changes none of them: the kernel pair
(I, -J) becomes (U, -UJ), and the storage pair (P, S) becomes (PU, SU).
The operators come from the three `hypothesis` strategies the other
property tests use: skew-adjoint J, constrained (J, G) and para-symmetric
S with P = I.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from boundary_forge import (
    PolyMatrix,
    boundary_structure,
    constrained_boundary,
    lagrange_boundary,
    skew_adjoint_structure,
    validate_dirac_pair,
    validate_lagrange_pair,
)
from boundary_forge.algebra import inertia_congruence

from instances import random_unimodular
from test_partition_search import constrained_operators, para_symmetric_storage
from test_realize_oracle import skew_adjoint_operators

seeds = st.integers(0, 2 ** 16)


def coeff_rank_and_inertia(phi):
    """Rank and (positive, negative) inertia of the coefficient matrix of a
    two-variable matrix; the inertia only when `phi` is symmetric."""
    if phi.is_zero():
        return 0, (0, 0)
    mat = phi.to_coeff().mat
    if not phi.is_symmetric():
        return mat.rank(), None
    inertia, _ = inertia_congruence(mat)
    return mat.rank(), (inertia.positive, inertia.negative)


def assert_signature_theorem(structure):
    rank, (positive, negative) = coeff_rank_and_inertia(structure.pi)
    assert structure.n == rank
    assert structure.inertia.as_tuple() == (positive, negative, 0)
    return structure.n, structure.inertia.as_tuple()


def assert_invariant_under_unimodular(J, seed):
    """(n, inertia) of (I, -J) and of (U, -UJ) for a random unimodular U."""
    expected = assert_signature_theorem(skew_adjoint_structure(J))
    u = random_unimodular(random.Random(seed), J.rows)
    translated = boundary_structure(validate_dirac_pair(u, -(u * J)))
    assert assert_signature_theorem(translated) == expected


@settings(max_examples=15)
@given(skew_adjoint_operators(), seeds)
def test_skew_adjoint_operators(J, seed):
    assert_invariant_under_unimodular(J, seed)


@settings(max_examples=15)
@given(constrained_operators(), seeds)
def test_constrained_operators(pair, seed):
    J, G = pair
    structure = constrained_boundary(J, G)
    # the constraint pairing Xi = Z_G^T V_G has the rank of its coefficients
    assert structure.n_g == coeff_rank_and_inertia(structure.xi)[0]
    assert_invariant_under_unimodular(J, seed)


@settings(max_examples=20)
@given(para_symmetric_storage(), seeds)
def test_para_symmetric_storage(S, seed):
    P = PolyMatrix.identity(S.rows)
    boundary = lagrange_boundary(validate_lagrange_pair(P, S))
    assert 2 * boundary.p == coeff_rank_and_inertia(boundary.Lambda)[0]
    u = random_unimodular(random.Random(seed), S.rows)
    translated = lagrange_boundary(validate_lagrange_pair(P * u, S * u))
    assert 2 * translated.p == coeff_rank_and_inertia(translated.Lambda)[0]
    assert translated.p == boundary.p
