"""Test-only oracles for the facts that let the pipelines skip re-checks.

Validation (`dirac_condition_reports`, `lagrange_condition_reports`) is the
one place the admissibility conditions are tested.  `image_representation`
and `lagrange_boundary` rely on consequences of them without testing again:

  * the annihilation residual of the image representation is the skew
    (symmetry) residual evaluated at -s, so it vanishes exactly when the
    skew (symmetry) condition holds;
  * the rank of the stacked image representation is the rank condition with
    its column blocks permuted (and, for (P, S), one block negated and the
    point moved to -s), so the two rank tests give the same verdict;
  * the symplectic pairing Theta is skew by construction.

Each is checked here on every curated pair, on every repository problem
file, on a few unimodular translations, and on pairs that fail validation,
so that a verdict is compared in both directions.
"""

import os
import random

import boundary_forge
from boundary_forge import (
    DiracPair,
    Poly,
    PolyMatrix,
    dirac_condition_reports,
    full_rank_everywhere,
    image_representation,
    lagrange_boundary,
    lagrange_condition_reports,
    skew_adjoint_structure,
    validate_lagrange_pair,
)
from boundary_forge.cli import parse_problem

from instances import (
    CONSTRAINED_INSTANCES,
    DIRAC_INSTANCES,
    LAGRANGE_INSTANCES,
    RANK_DROP_PAIR,
    SKEW_INSTANCES,
    pm,
    random_unimodular,
)

s = Poly.variable()
PROBLEMS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "problems")


def _problem_matrices():
    for name in sorted(os.listdir(PROBLEMS)):
        if name.endswith(".json"):
            problem = parse_problem(os.path.join(PROBLEMS, name))
            yield problem.kind, problem.matrices


def _skew_pair(J):
    return PolyMatrix.identity(J.rows), -J


def dirac_pairs():
    pairs = [(inst["F"], inst["E"]) for inst in DIRAC_INSTANCES]
    pairs += [_skew_pair(inst["J"]) for inst in SKEW_INSTANCES + CONSTRAINED_INSTANCES]
    for kind, mats in _problem_matrices():
        if kind == "dirac":
            pairs.append((mats["F"], mats["E"]))
        elif kind in ("skew_adjoint", "constrained"):
            pairs.append(_skew_pair(mats["J"]))
    rng = random.Random(7)
    for inst in DIRAC_INSTANCES[:6]:
        u = random_unimodular(rng, inst["F"].rows)
        pairs.append((u * inst["F"], u * inst["E"]))
    pairs.append(RANK_DROP_PAIR)
    # fail the skew condition: F = E = I, and a non-skew-adjoint J
    pairs.append((PolyMatrix.identity(2), PolyMatrix.identity(2)))
    pairs.append(_skew_pair(pm([[s, 1], [0, s ** 2]])))
    return pairs


def lagrange_pairs():
    pairs = [(inst["P"], inst["S"]) for inst in LAGRANGE_INSTANCES]
    for kind, mats in _problem_matrices():
        if kind == "lagrange":
            pairs.append((mats["P"], mats["S"]))
    rng = random.Random(11)
    for inst in LAGRANGE_INSTANCES:
        # (P U, S U) keeps both conditions for unimodular U
        u = random_unimodular(rng, inst["P"].rows)
        pairs.append((inst["P"] * u, inst["S"] * u))
    # symmetric but rank deficient at s = 0
    pairs.append((pm([[s ** 2]]), pm([[s ** 2]])))
    pairs.append((pm([[s]]), pm([[0]])))
    # rank condition holds, symmetry fails: residual 2s
    pairs.append((pm([[1]]), pm([[s]])))
    return pairs


def test_dirac_image_representation_conditions_match_validation():
    verdicts = set()
    for F, E in dirac_pairs():
        skew, rank = dirac_condition_reports(F, E)
        rep = image_representation(DiracPair(F, E))
        annihilates = (F * rep.N_f + E * rep.N_e).is_zero()
        image_rank = full_rank_everywhere(
            PolyMatrix.hstack([rep.N_f.transpose(), rep.N_e.transpose()]))
        assert annihilates == skew.passed
        assert image_rank == rank.passed
        verdicts.add((skew.passed, rank.passed))
    # every combination the oracles are meant to separate occurs
    assert {(True, True), (True, False), (False, True)} <= verdicts


def test_lagrange_image_representation_conditions_match_validation():
    verdicts = set()
    for P, S in lagrange_pairs():
        sym, rank = lagrange_condition_reports(P, S)
        n_x, n_e = S.para(), -P.para()
        annihilates = (P.transpose() * n_x + S.transpose() * n_e).is_zero()
        image_rank = full_rank_everywhere(
            PolyMatrix.hstack([n_x.transpose(), n_e.transpose()]))
        assert annihilates == sym.passed
        assert image_rank == rank.passed
        verdicts.add((sym.passed, rank.passed))
        if sym.passed and rank.passed:
            boundary = lagrange_boundary(validate_lagrange_pair(P, S))
            assert (boundary.rep.N_x, boundary.rep.N_e) == (n_x, n_e)
            assert boundary.Theta.swap_transpose() == -boundary.Theta
    assert {(True, True), (True, False), (False, True)} <= verdicts


def chain(m):
    """Tridiagonal first-order chain J with s on both off-diagonals."""
    return pm([[s if abs(i - j) == 1 else 0 for j in range(m)]
               for i in range(m)])


def test_skew_adjoint_structure_runs_no_rank_check(monkeypatch):
    calls = []
    real = boundary_forge.algebra.full_rank_everywhere

    def counted(mat):
        calls.append(mat.shape)
        return real(mat)

    for module in (boundary_forge, boundary_forge.algebra,
                   boundary_forge.dirac, boundary_forge.lagrange):
        monkeypatch.setattr(module, "full_rank_everywhere", counted)
    structure = skew_adjoint_structure(chain(8))
    assert calls == []
    assert structure.n == 8
    assert structure.inertia.as_tuple() == (4, 4, 0)
    # the counter is live: validation of a pair still goes through it
    dirac_condition_reports(*_skew_pair(chain(2)))
    assert calls == [(2, 4)]
