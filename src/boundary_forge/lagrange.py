"""Boundary structures for Lagrangian subspaces generated by operator pairs.

A pair (P, S) of m x m polynomial matrices is admissible when

  * P(-s)^T S(s) - S(-s)^T P(s) = 0 for all s (symmetry condition), and
  * the stacked matrix [P(s); S(s)] has rank m for every complex s.

The subspace pairs state-like variables x with efforts e.  Solutions are
parametrized by the exact annihilator of the kernel operator
[P(d/dz)^T  S(d/dz)^T]:

    x = N_x(d/dz) l,   e = N_e(d/dz) l,
    N_x(s) = S(-s),    N_e(s) = -P(-s),

which annihilates exactly because of the symmetry condition.  The
symplectic pairing

    Theta(zeta, eta) = N_e(zeta)^T N_x(eta) - N_x(zeta)^T N_e(eta)

is skew, vanishes on zeta = -eta, and its quotient Lambda = Theta/(zeta+eta)
factors as W(zeta)^T J_p W(eta) with J_p = [[0, I_p], [-I_p, 0]].  The
boundary vector w = W(d/dz) l splits into (x_delta; e_delta) by the block
structure of J_p, and exactly on polynomial trajectories

    d/dz [ x_delta1^T e_delta2 - e_delta1^T x_delta2 ] = e1^T x2 - x1^T e2,

which makes the integral balance of :func:`storage_balance_form` vanish identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import Poly, PolyMatrix, _Balance, _int_vector, full_rank_everywhere
from .dirac import ConditionReport, _condition_reports
from .twovar import TwoVarPolyMatrix, _j_matrix, div_zeta_plus_eta, factor_skew

__all__ = [
    "SymmetryConditionFailed",
    "RankConditionFailed",
    "LagrangePair",
    "LagrangeImageRep",
    "LagrangeBoundary",
    "lagrange_condition_reports",
    "validate_lagrange_pair",
    "lagrange_boundary",
    "storage_balance_form",
]


class SymmetryConditionFailed(ValueError):
    """P(-s)^T S(s) - S(-s)^T P(s) is not identically zero."""

    def __init__(self, witness: str):
        super().__init__(f"symmetry condition failed: {witness}")
        self.witness = witness


class RankConditionFailed(ValueError):
    """[P(s); S(s)] drops below full column rank at some complex point."""


@dataclass(frozen=True)
class LagrangePair:
    """Validated pair.  Construct through :func:`validate_lagrange_pair`."""

    P: PolyMatrix
    S: PolyMatrix

    @property
    def m(self) -> int:
        return self.P.rows

    def describe(self) -> str:
        return f"pair m={self.m} degP={self.P.degree} degS={self.S.degree}"


@dataclass(frozen=True)
class LagrangeImageRep:
    """Image representation x = N_x(d/dz) l, e = N_e(d/dz) l with l free."""

    N_x: PolyMatrix
    N_e: PolyMatrix

    @property
    def m(self) -> int:
        return self.N_x.cols


@dataclass(frozen=True)
class LagrangeBoundary:
    """Symplectic boundary data: the pairing Theta, its quotient Lambda, and
    the factorization Lambda = W(zeta)^T J_p W(eta)."""

    pair: LagrangePair
    rep: LagrangeImageRep
    Theta: TwoVarPolyMatrix
    Lambda: TwoVarPolyMatrix
    W: PolyMatrix
    p: int

    @property
    def m(self) -> int:
        return self.pair.m

    # trajectory maps -------------------------------------------------------

    def states(self, latent) -> tuple[Poly, ...]:
        return self.rep.N_x.apply(latent)

    def efforts(self, latent) -> tuple[Poly, ...]:
        return self.rep.N_e.apply(latent)

    def boundary(self, latent) -> tuple[Poly, ...]:
        return self.W.apply(latent)

    def describe(self) -> str:
        return f"{self.pair.describe()} p={self.p}"


def lagrange_condition_reports(P: PolyMatrix, S: PolyMatrix) -> tuple[ConditionReport, ...]:
    """Evaluate both admissibility conditions, reporting exact witnesses."""
    if P.rows != P.cols or S.rows != S.cols or P.rows != S.rows:
        raise ValueError(f"pair must be square and equal-sized, "
                         f"got {P.shape} and {S.shape}")
    return _condition_reports(
        "symmetry_condition", "P(-s)^T S(s) - S(-s)^T P(s)",
        P.transpose().para() * S - S.transpose().para() * P,
        full_rank_everywhere(PolyMatrix.vstack([P, S]).transpose()),
        "[P(s); S(s)] loses column rank")


def validate_lagrange_pair(P: PolyMatrix, S: PolyMatrix) -> LagrangePair:
    """Return the validated pair or raise the failed condition."""
    sym, rank = lagrange_condition_reports(P, S)
    if not sym.passed:
        raise SymmetryConditionFailed(sym.witness)
    if not rank.passed:
        raise RankConditionFailed(rank.witness or "rank condition failed")
    return LagrangePair(P, S)


def lagrange_boundary(pair: LagrangePair) -> LagrangeBoundary:
    """Synthesize the symplectic boundary map for a validated pair.

    The pair is not re-checked: pass the result of
    :func:`validate_lagrange_pair`, or a pair whose condition reports
    passed.  Validation already proves what the construction relies on:
    P^T N_x + S^T N_e is the symmetry residual at -s, [N_x^T N_e^T] =
    [S(-s)^T, -P(-s)^T] is the rank-condition matrix [P^T S^T] at -s with
    its blocks swapped and one negated, and Theta is skew because it is
    A - A.swap_transpose() for A = outer(N_e, N_x), and
    A.swap_transpose() = outer(N_x, N_e).
    """
    n_x = pair.S.para()
    n_e = -pair.P.para()
    rep = LagrangeImageRep(n_x, n_e)
    half = TwoVarPolyMatrix.outer(n_e, n_x)
    theta = half - half.swap_transpose()
    lam = div_zeta_plus_eta(theta)
    w, p = factor_skew(lam)
    return LagrangeBoundary(pair, rep, theta, lam, w, p)


def _storage_balance(boundary: LagrangeBoundary) -> _Balance:
    """The symplectic balance: (states, efforts, W l) = (N_x, N_e, W)
    applied to a latent, with middle -J_p and sign -."""
    return _Balance(boundary.rep.N_x, boundary.rep.N_e, boundary.W,
                    -_j_matrix(boundary.p), sign=-1)


def storage_balance_form(boundary: LagrangeBoundary, latent1, latent2, alpha, beta) -> Fraction:
    """Exact residual of the symplectic balance over [alpha, beta].

    Returns

        int_a^b (x1^T e2 - x2^T e1) dz
          + x_delta1(b)^T e_delta2(b) - e_delta1(b)^T x_delta2(b)
          - x_delta1(a)^T e_delta2(a) + e_delta1(a)^T x_delta2(a)

    computed in exact arithmetic; zero for all polynomial latents.  The
    bracket is w1^T J_p w2, so the middle of the balance is -J_p.
    """
    balance = _storage_balance(boundary)
    return balance.residual(balance.evaluate(_int_vector(latent1)),
                            balance.evaluate(_int_vector(latent2)),
                            Fraction(alpha), Fraction(beta))
