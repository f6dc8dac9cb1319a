"""The rank condition against the maximal-minor enumeration.

`full_rank_everywhere` column-reduces the operator matrix over Q[s];
`oracles.full_rank_by_minors` enumerates every maximal minor and takes their
gcd.  They must agree on every curated instance, on the rank matrix of
every repository problem file, and on three generated families (at most
five rows, where the enumeration stays cheap):

  * unimodular translations ``U (F, E)`` of admissible pairs, which must
    pass, also with the columns mixed by a unimodular ``V`` on the right;
  * rank-drop pairs ``U (sI, sA)`` with a constant skew ``A``, which pass
    the skew condition but must fail here;
  * random wide matrices, one row times ``(s - r)`` before a unimodular
    translation; such a matrix must fail.

The last test checks the port count the reduction is meant for (16) and
that it builds no minor, by counting calls instead of timing them.
"""

import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundary_forge import (
    Poly,
    PolyMatrix,
    dirac_condition_reports,
    full_rank_everywhere,
    lagrange_condition_reports,
)
from boundary_forge.cli import parse_problem

from instances import (
    CONSTRAINED_INSTANCES,
    DIRAC_INSTANCES,
    LAGRANGE_INSTANCES,
    RANK_DROP_PAIR,
    SKEW_INSTANCES,
    random_unimodular,
)
from oracles import full_rank_by_minors

PROBLEMS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "problems")
s = Poly.variable()


def dirac_matrix(F, E):
    """``[F(-s) E(-s)]``, the matrix of the flow/effort rank condition."""
    return PolyMatrix.hstack([F.para(), E.para()])


def lagrange_matrix(P, S):
    """``[P^T S^T]``, the matrix of the state/effort rank condition."""
    return PolyMatrix.vstack([P, S]).transpose()


def skew_matrix(J):
    """The rank matrix of the pair ``(I, -J)`` of a skew-adjoint ``J``."""
    return dirac_matrix(PolyMatrix.identity(J.rows), -J)


def diagonal(m, entry):
    return PolyMatrix.from_rows([[entry if i == j else 0 for j in range(m)]
                                 for i in range(m)])


def random_skew(rng, m):
    """A constant skew m x m matrix with small integer entries."""
    a = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            a[i][j] = rng.randint(-2, 2)
            a[j][i] = -a[i][j]
    return PolyMatrix.from_rows(a)


def agrees(p) -> bool:
    verdict = full_rank_everywhere(p)
    assert verdict == full_rank_by_minors(p)
    return verdict


# curated instances and problem files -------------------------------------


def test_agrees_on_curated_instances():
    for inst in DIRAC_INSTANCES:
        assert agrees(dirac_matrix(inst["F"], inst["E"])), inst["label"]
    for inst in SKEW_INSTANCES + CONSTRAINED_INSTANCES:
        assert agrees(skew_matrix(inst["J"])), inst["label"]
    for inst in LAGRANGE_INSTANCES:
        assert agrees(lagrange_matrix(inst["P"], inst["S"])), inst["label"]
    assert not agrees(dirac_matrix(*RANK_DROP_PAIR))


def test_agrees_on_problem_files():
    verdicts = {}
    for name in sorted(os.listdir(PROBLEMS)):
        problem = parse_problem(os.path.join(PROBLEMS, name))
        mats = problem.matrices
        if problem.kind == "dirac":
            p = dirac_matrix(mats["F"], mats["E"])
        elif problem.kind == "lagrange":
            p = lagrange_matrix(mats["P"], mats["S"])
        else:
            p = skew_matrix(mats["J"])
        verdicts[name] = agrees(p)
    assert [n for n, ok in verdicts.items() if not ok] == ["invalid_rank_drop.json"]
    assert len(verdicts) == 5


def test_shape_edge_cases_agree():
    for p in (PolyMatrix.zero(0, 0), PolyMatrix.zero(0, 3)):
        assert agrees(p)
    for p in (PolyMatrix.zero(1, 1), PolyMatrix.zero(2, 3),
              PolyMatrix.from_rows([[s, s ** 2], [1, s]])):
        assert not agrees(p)
    for f in (full_rank_everywhere, full_rank_by_minors):
        with pytest.raises(ValueError, match="rows <= cols"):
            f(PolyMatrix.zero(2, 1))


# generated families ------------------------------------------------------


def admissible_pairs():
    """Admissible (F, E) pairs of one to five ports."""
    pairs = [(inst["F"], inst["E"]) for inst in DIRAC_INSTANCES]
    pairs += [(PolyMatrix.identity(inst["J"].rows), -inst["J"])
              for inst in SKEW_INSTANCES]
    pairs += [(diagonal(m, s), PolyMatrix.identity(m)) for m in range(1, 6)]
    return pairs


@settings(max_examples=25)
@given(st.sampled_from(admissible_pairs()), st.integers(0, 2 ** 16),
       st.integers(1, 8), st.booleans())
def test_unimodular_translations_pass(pair, seed, ops, mix_columns):
    F, E = pair
    rng = random.Random(seed)
    u = random_unimodular(rng, F.rows, ops)
    p = dirac_matrix(u * F, u * E)
    if mix_columns:
        p = p * random_unimodular(rng, p.cols, ops)
    assert agrees(p)


@settings(max_examples=15)
@given(st.integers(1, 5), st.integers(0, 2 ** 16), st.integers(1, 8))
def test_rank_drop_pairs_fail(m, seed, ops):
    rng = random.Random(seed)
    a = random_skew(rng, m)
    u = random_unimodular(rng, m, ops)
    F, E = u * diagonal(m, s), u * (s * a)
    skew, rank = dirac_condition_reports(F, E)
    assert skew.passed and not rank.passed
    assert not agrees(dirac_matrix(F, E))


coefficients = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))


@st.composite
def common_factor_matrices(draw):
    """(m x c matrix, whether a row was multiplied by s - r first)."""
    m = draw(st.integers(1, 5))
    c = draw(st.integers(m, 2 * m))
    entries = draw(st.lists(
        st.lists(st.lists(coefficients, max_size=3).map(Poly),
                 min_size=c, max_size=c),
        min_size=m, max_size=m))
    injected = draw(st.booleans())
    if injected:
        row, r = draw(st.integers(0, m - 1)), draw(coefficients)
        entries[row] = [e * (s - r) for e in entries[row]]
    u = random_unimodular(random.Random(draw(st.integers(0, 2 ** 16))), m)
    return u * PolyMatrix.from_rows(entries), injected


@settings(max_examples=30)
@given(common_factor_matrices())
def test_common_linear_factor_fails(case):
    p, injected = case
    verdict = agrees(p)
    if injected:
        assert not verdict


# scale -------------------------------------------------------------------


def test_sixteen_ports_build_no_minor(monkeypatch):
    m = 16
    rng = random.Random(16)
    u = random_unimodular(rng, m, ops=12)
    calls = []
    for name in ("det", "submatrix"):
        def forbidden(self, *args, _name=name):
            # fail at once: an enumeration at m = 16 would not finish
            calls.append(_name)
            raise AssertionError(f"PolyMatrix.{_name} called")

        monkeypatch.setattr(PolyMatrix, name, forbidden)
    F = u * diagonal(m, s)
    skew, rank = dirac_condition_reports(F, u)
    assert skew.passed and rank.passed
    skew, rank = dirac_condition_reports(F, u * (s * random_skew(rng, m)))
    assert skew.passed and not rank.passed
    sym, rank = lagrange_condition_reports(u * diagonal(m, s ** 2), u)
    assert sym.passed and rank.passed
    assert calls == []
