"""`realize` on state/effort structures against the middle found by trial.

`realize` reads the middle of a state/effort realization off C and D
instead of verifying each candidate (see the `realize` docstring).  Here
its middle, A-D and every failure's class and message equal those of
`oracles.lagrange_middle_by_trial` on every swap set of the curated pairs,
of the diagonal pairs built from (1, s^2) and (s^2, 1) and of random
para-symmetric storage.  `realize` also reduces its coefficient matrix
once and verifies nothing, for either kind.
"""

import importlib
from itertools import combinations, product

from hypothesis import given, settings

from boundary_forge import (
    Poly,
    PolyMatrix,
    algebra,
    lagrange_boundary,
    realize,
    skew_adjoint_structure,
    validate_lagrange_pair,
)
from boundary_forge.realize import NonUniqueSolutionError, UnsolvableError

from instances import LAGRANGE_INSTANCES, SKEW_INSTANCES, pm
from oracles import lagrange_middle_by_trial
from test_partition_search import para_symmetric_storage

s = Poly.variable()
realize_mod = importlib.import_module("boundary_forge.realize")


def every_swap(structure):
    m = structure.m
    for size in range(m + 1):
        yield from combinations(range(1, m + 1), size)


def outcome(fn, structure, swap):
    """The middle and A-D of a realization, or its failure's class and
    message."""
    try:
        r = fn(structure, swap=swap)
    except (UnsolvableError, NonUniqueSolutionError) as exc:
        return type(exc), str(exc)
    return r.Sigma, r.A, r.B, r.C, r.D, r.swap


def assert_middle_matches_trial(structure):
    """`realize` agrees with the middle-by-trial oracle on every swap set;
    returns how many failed for want of a middle."""
    no_middle = 0
    for swap in every_swap(structure):
        got = outcome(realize, structure, swap)
        assert got == outcome(lagrange_middle_by_trial, structure, swap), swap
        no_middle += got[0] is UnsolvableError and "middle" in got[1]
    return no_middle


def storage_diagonals(m):
    """Every pair P = diag(p_i), S = diag(s_i) with (p_i, s_i) one of
    (1, s^2) and (s^2, 1)."""
    for pattern in product((False, True), repeat=m):
        p = [s ** 2 if flip else 1 for flip in pattern]
        q = [1 if flip else s ** 2 for flip in pattern]
        yield [[p[i] if i == j else 0 for j in range(m)] for i in range(m)], \
            [[q[i] if i == j else 0 for j in range(m)] for i in range(m)]


def test_lagrange_middle_matches_trial_on_curated_pairs():
    no_middle = 0
    for inst in LAGRANGE_INSTANCES:
        no_middle += assert_middle_matches_trial(
            lagrange_boundary(validate_lagrange_pair(inst["P"], inst["S"])))
    for m in (1, 2, 3):
        for p, q in storage_diagonals(m):
            no_middle += assert_middle_matches_trial(
                lagrange_boundary(validate_lagrange_pair(pm(p), pm(q))))
    assert no_middle > 0


@settings(max_examples=25)
@given(para_symmetric_storage())
def test_lagrange_middle_matches_trial_on_random_pairs(S):
    assert_middle_matches_trial(lagrange_boundary(
        validate_lagrange_pair(PolyMatrix.identity(S.rows), S)))


def test_realize_reduces_once_and_verifies_nothing(monkeypatch):
    reductions, verified = [], []

    def counting(fn, calls):
        def wrapper(*args):
            calls.append(args)
            return fn(*args)
        return wrapper

    for owner in (algebra, realize_mod):
        monkeypatch.setattr(owner, "_rref", counting(owner._rref, reductions))
    monkeypatch.setattr(realize_mod, "verify_realization_structure",
                        counting(realize_mod.verify_realization_structure,
                                 verified))
    structures = [skew_adjoint_structure(inst["J"]) for inst in SKEW_INSTANCES]
    structures += [lagrange_boundary(validate_lagrange_pair(inst["P"], inst["S"]))
                   for inst in LAGRANGE_INSTANCES]
    structures.append(lagrange_boundary(validate_lagrange_pair(
        pm([[1, 0], [0, s ** 2]]), pm([[s ** 2, 0], [0, 1]]))))
    kinds = set()
    for structure in structures:
        for swap in every_swap(structure):
            reductions.clear()
            try:
                kinds.add(realize(structure, swap=swap).kind)
            except (UnsolvableError, NonUniqueSolutionError):
                pass
            assert len(reductions) == 1, (structure.describe(), swap)
    assert kinds == {"dirac", "lagrange"}
    assert not verified
