"""The pruned swap-set search against the exhaustive one.

`partition_search` skips every swap set whose stacked rows [Z; U] have
dependent coefficient rows, since `realize` cannot solve those uniquely;
`oracles.partition_search_exhaustive` realizes every subset in turn.  They
must return the same swap set and the same realization on every curated
instance, every problem file, every structure of the golden families, the
sI, chain and (s^2 I, I) families up to six ports and random skew-adjoint
operators, and raise the same witnesses when no swap set exists.  The
candidates the pruned search tries are checked against a rank computation
on every subset: exactly those with independent rows, in order.  Two
generated families also check that every balance residual is a literal
zero: random constraint operators G on random skew-adjoint J, and Lagrange
pairs P = I with S(-s)^T = S(s).  The scale tests count `realize` calls
instead of timing them.
"""

import dataclasses
import importlib
import os
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundary_forge import (
    NEG_INF,
    LagrangeBoundary,
    NoneFoundError,
    Poly,
    PolyMatrix,
    RatMatrix,
    boundary_structure,
    constrained_boundary,
    constrained_suite,
    lagrange_boundary,
    lagrange_suite,
    partition_search,
    skew_adjoint_structure,
    validate_dirac_pair,
    validate_lagrange_pair,
)
from boundary_forge.cli import parse_problem, parse_problem_data

import test_golden_families as families
from instances import (
    CONSTRAINED_INSTANCES,
    DIRAC_INSTANCES,
    LAGRANGE_INSTANCES,
    SKEW_INSTANCES,
    pm,
)
from oracles import partition_search_exhaustive
from test_realize_oracle import skew_adjoint_operators

realize_mod = importlib.import_module("boundary_forge.realize")
PROBLEMS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "problems")
s = Poly.variable()


def realization_target(problem):
    """The structure a `report` realizes for a parsed problem."""
    mats = problem.matrices
    if problem.kind == "dirac":
        return boundary_structure(validate_dirac_pair(mats["F"], mats["E"]))
    if problem.kind == "skew_adjoint":
        return skew_adjoint_structure(mats["J"])
    if problem.kind == "constrained":
        return constrained_boundary(mats["J"], mats["G"]).j_structure
    return lagrange_boundary(validate_lagrange_pair(mats["P"], mats["S"]))


def rows_independent(structure, swap):
    """Whether the coefficient rows of [Z; U] are linearly independent."""
    if isinstance(structure, LagrangeBoundary):
        z, first = structure.W, structure.rep.N_x
    else:
        z, first = structure.Z, structure.rep.N_f
    u = PolyMatrix.from_rows([
        (structure.rep.N_e if i + 1 in swap else first).entries[i]
        for i in range(structure.m)])
    stack = PolyMatrix.vstack([z, u])
    span = 0 if stack.degree == NEG_INF else int(stack.degree)
    coeff = RatMatrix.hstack([stack.coeff(k) for k in range(span + 1)])
    return coeff.rank() == stack.rows


def assert_search_matches_oracle(structure):
    """Same swap set and realization as the exhaustive search, and the
    candidates `realize` is tried on are exactly the subsets with
    independent rows, in `combinations` order."""
    m = structure.m
    independent = [swap for size in range(m + 1)
                   for swap in combinations(range(1, m + 1), size)
                   if rows_independent(structure, swap)]
    assert list(realize_mod._independent_swaps(structure)) == independent
    found = partition_search(structure)
    expected = partition_search_exhaustive(structure)
    assert found == expected
    assert found.realization == expected.realization
    return found


def lagrange_ports(m):
    return {"kind": "lagrange", "P": families._identity(m, families._mono(2)),
            "S": families._identity(m)}


def test_curated_instances():
    for inst in DIRAC_INSTANCES:
        assert_search_matches_oracle(
            boundary_structure(validate_dirac_pair(inst["F"], inst["E"])))
    for inst in SKEW_INSTANCES:
        assert_search_matches_oracle(skew_adjoint_structure(inst["J"]))
    for inst in CONSTRAINED_INSTANCES:
        assert_search_matches_oracle(
            constrained_boundary(inst["J"], inst["G"]).j_structure)
    for inst in LAGRANGE_INSTANCES:
        assert_search_matches_oracle(
            lagrange_boundary(validate_lagrange_pair(inst["P"], inst["S"])))


def test_problem_files():
    checked = 0
    for name in sorted(os.listdir(PROBLEMS)):
        if not name.endswith(".json"):
            continue
        try:
            structure = realization_target(parse_problem(os.path.join(PROBLEMS, name)))
        except ValueError:
            continue  # a rejected pair has nothing to realize
        assert_search_matches_oracle(structure)
        checked += 1
    assert checked >= 4


def test_golden_family_structures():
    for name, data in families.problems().items():
        assert_search_matches_oracle(
            realization_target(parse_problem_data(data, name)))


@pytest.mark.parametrize("m", range(2, 7))
def test_port_families(m):
    for data, expected in ((families.s_identity(m), tuple(range(1, m + 1))),
                           (lagrange_ports(m), tuple(range(1, m + 1))),
                           (families.chain(m), None)):
        found = assert_search_matches_oracle(
            realization_target(parse_problem_data(data)))
        if expected is not None:
            assert found == expected


@settings(max_examples=20)
@given(skew_adjoint_operators())
def test_random_skew_adjoint_operators(J):
    assert_search_matches_oracle(skew_adjoint_structure(J))


def test_no_swap_set_gives_the_same_witnesses():
    boundary = lagrange_boundary(validate_lagrange_pair(
        pm([[1, 0], [0, s ** 2]]), pm([[s ** 2, 0], [0, 1]])))
    with pytest.raises(NoneFoundError) as pruned:
        partition_search(boundary)
    with pytest.raises(NoneFoundError) as exhaustive:
        partition_search_exhaustive(boundary)
    assert pruned.value.witnesses == exhaustive.value.witnesses
    assert str(pruned.value) == str(exhaustive.value)


def test_dependent_state_rows_leave_no_candidate():
    structure = skew_adjoint_structure(SKEW_INSTANCES[0]["J"])
    doubled = dataclasses.replace(
        structure, Z=PolyMatrix.vstack([structure.Z, structure.Z.take_rows([0])]))
    assert list(realize_mod._independent_swaps(doubled)) == []
    with pytest.raises(NoneFoundError) as pruned:
        partition_search(doubled)
    with pytest.raises(NoneFoundError) as exhaustive:
        partition_search_exhaustive(doubled)
    assert pruned.value.witnesses == exhaustive.value.witnesses
    assert len(pruned.value.witnesses) == 2 ** structure.m


@pytest.mark.parametrize("data, m", [(families.s_identity(12), 12),
                                     (lagrange_ports(8), 8)])
def test_full_swap_set_takes_one_realize(monkeypatch, data, m):
    calls = []
    realize = realize_mod.realize

    def counting_realize(structure, swap=()):
        calls.append(swap)
        return realize(structure, swap)

    monkeypatch.setattr(realize_mod, "realize", counting_realize)
    structure = realization_target(parse_problem_data(data))
    assert partition_search(structure) == tuple(range(1, m + 1))
    assert calls == [tuple(range(1, m + 1))]


def literal_zeros(reports):
    return all(isinstance(r, Fraction) and r == 0
               for report in reports for r in report.residuals)


@st.composite
def constraint_operators(draw, m):
    """A random m-column G with one or two rows, entries of degree <= 2."""
    rows = draw(st.integers(1, 2))
    return PolyMatrix.from_rows([
        [Poly([Fraction(draw(st.integers(-2, 2))) for _ in range(3)])
         for _ in range(m)] for _ in range(rows)])


@st.composite
def constrained_operators(draw):
    J = draw(skew_adjoint_operators())
    return J, draw(constraint_operators(J.rows))


@settings(max_examples=15)
@given(constrained_operators())
def test_random_constrained_operators(pair):
    J, G = pair
    structure = constrained_boundary(J, G)
    assert literal_zeros(constrained_suite(structure, trials=3, seed=5))
    found = assert_search_matches_oracle(structure.j_structure)
    assert found.realization.m == J.rows


@st.composite
def para_symmetric_storage(draw):
    """S = sum_k S_k s^k with S_k symmetric for even k and skew for odd k,
    so that S(-s)^T = S(s)."""
    m = draw(st.integers(1, 3))
    degree = draw(st.integers(0, 3))
    entries = [[Poly.zero() for _ in range(m)] for _ in range(m)]
    for k in range(degree + 1):
        sign = 1 if k % 2 == 0 else -1
        for i in range(m):
            for j in range(i, m):
                if i == j and sign == -1:
                    continue
                term = Poly.const(Fraction(draw(st.integers(-2, 2)))) * s ** k
                entries[i][j] = entries[i][j] + term
                if i != j:
                    entries[j][i] = entries[j][i] + sign * term
    return PolyMatrix.from_rows(entries)


@settings(max_examples=20)
@given(para_symmetric_storage())
def test_random_lagrange_pairs(S):
    boundary = lagrange_boundary(
        validate_lagrange_pair(PolyMatrix.identity(S.rows), S))
    assert literal_zeros(lagrange_suite(boundary, trials=3, seed=5))
    found = assert_search_matches_oracle(boundary)
    assert found.realization.m == S.rows
