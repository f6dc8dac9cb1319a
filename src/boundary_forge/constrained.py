"""Boundary structures for constrained port relations.

The relation couples flows f and efforts e through a formally skew-adjoint
operator J and a constraint operator G with a free multiplier vector lam:

    f = J(d/dz) e + G(-d/dz)^T lam,    G(d/dz) e = 0.

Two boundary pairings appear.  The operator part reuses the skew-adjoint
pipeline: Phi_J(zeta, eta) = J(zeta)^T + J(eta) divides by (zeta + eta)
into Pi_J = Z_J^T Sigma_J Z_J.  The constraint part pairs efforts with
multipliers through

    Xi(zeta, eta) = (G(-eta)^T - G(zeta)^T) / (zeta + eta),

factored as Xi = Z_G(zeta)^T V_G(eta) with identity middle matrix Pi_G, so
that exactly on constrained solutions

    d/dz [ b_G^T Pi_G c_G ] = e^T G(-d/dz)^T lam,
    b_G = Z_G(d/dz) e,  c_G = V_G(d/dz) lam.

Together these give the exact bilinear balance evaluated by
:func:`constrained_balance_form`, which vanishes identically on pairs of constrained
solutions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (Poly, PolyMatrix, RatMatrix, _add_product, _Balance,
                      _int_vector, _poly_vector, polynomial_kernel_basis)
from .dirac import BoundaryStructure, _skew_adjoint_boundary, validate_skew_adjoint
from .twovar import TwoVarPolyMatrix, div_zeta_plus_eta, factor_general

__all__ = [
    "NotSkewAdjointError",
    "EmptyKernelError",
    "ConstrainedStructure",
    "ConstrainedSample",
    "validate_skew_adjoint",
    "constrained_boundary",
    "constrained_sample",
    "constrained_balance_form",
]


class NotSkewAdjointError(ValueError):
    """The operator part must equal minus its formal adjoint."""

    def __init__(self, witness: str):
        super().__init__(f"operator is not formally skew-adjoint: {witness}")
        self.witness = witness


class EmptyKernelError(ValueError):
    """No nonzero constrained effort exists at the requested degree."""


@dataclass(frozen=True)
class ConstrainedStructure:
    """Boundary data of a constrained relation: the operator-part pairing
    (Z_J, Sigma_J) and the constraint-part pairing (Z_G, V_G, Pi_G).
    `G_adj` is G(-s)^T, the formal adjoint of G acting on multipliers."""

    J: PolyMatrix
    G: PolyMatrix
    j_structure: BoundaryStructure
    xi: TwoVarPolyMatrix
    Z_G: PolyMatrix
    V_G: PolyMatrix
    Pi_G: RatMatrix
    G_adj: PolyMatrix

    @property
    def m(self) -> int:
        return self.J.rows

    @property
    def constraint_rows(self) -> int:
        return self.G.rows

    @property
    def Z_J(self) -> PolyMatrix:
        return self.j_structure.Z

    @property
    def Sigma_J(self) -> RatMatrix:
        return self.j_structure.Sigma

    @property
    def n_j(self) -> int:
        return self.Z_J.rows

    @property
    def n_g(self) -> int:
        return self.Z_G.rows

    def describe(self) -> str:
        return (f"constrained m={self.m} constraints={self.constraint_rows} "
                f"n_j={self.n_j} n_g={self.n_g}")


def constrained_boundary(J: PolyMatrix, G: PolyMatrix) -> ConstrainedStructure:
    """Synthesize both boundary pairings for the relation (J, G).

    Raises :class:`NotSkewAdjointError` unless J equals minus its formal
    adjoint; G only needs matching width.
    """
    ok, witness = validate_skew_adjoint(J)
    if not ok:
        raise NotSkewAdjointError(witness)
    if G.cols != J.rows:
        raise ValueError(f"constraint operator width {G.cols} does not match "
                         f"effort dimension {J.rows}")
    j_structure = _skew_adjoint_boundary(J)
    g_adj = G.transpose().para()
    delta = (TwoVarPolyMatrix.outer(PolyMatrix.identity(G.cols), g_adj)
             - TwoVarPolyMatrix.outer(G, PolyMatrix.identity(G.rows)))
    xi = div_zeta_plus_eta(delta)
    z_g, v_g = factor_general(xi)
    pi_g = RatMatrix.identity(z_g.rows)
    return ConstrainedStructure(J, G, j_structure, xi, z_g, v_g, pi_g, g_adj)


@dataclass(frozen=True)
class ConstrainedSample:
    """One exact polynomial solution of the constrained relation."""

    effort: tuple[Poly, ...]
    multiplier: tuple[Poly, ...]
    flow: tuple[Poly, ...]
    kernel_empty: bool
    degree: int
    seed: int


def _random_int_vector(rng: random.Random, dim: int, degree: int
                       ) -> tuple[list[list[int]], int]:
    """`dim` random polynomials of degree at most `degree` as integer
    coefficient lists (low degree first, no trailing zeros) over the lcm of
    the drawn denominators.  Each coefficient is ``n / d`` with ``n`` drawn
    from [-9, 9], then ``d`` from [1, 9]."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    randint = rng.randint
    draws = [[(randint(-9, 9), randint(1, 9)) for _ in range(degree + 1)]
             for _ in range(dim)]
    den = math.lcm(*(d for row in draws for _, d in row))
    xs = []
    for row in draws:
        cs = [n * (den // d) for n, d in row]
        while cs and not cs[-1]:
            cs.pop()
        xs.append(cs)
    return xs, den


def _int_basis(basis) -> tuple[list[list[list[int]]], int]:
    """A kernel basis as integer vectors over one denominator."""
    flat, den = _int_vector([e for vec in basis for e in vec])
    m = len(basis[0]) if basis else 0
    return [flat[b * m:(b + 1) * m] for b in range(len(basis))], den


def constrained_sample(structure: ConstrainedStructure, degree: int, seed: int,
                       require_nonzero_e: bool = False) -> ConstrainedSample:
    """Draw a random exact solution with polynomial data of the given degree.

    The effort is a random rational combination of a basis of the kernel of
    G(d/dz) at that degree; the multiplier is a free random polynomial
    vector.  When the kernel is trivial the sample carries e = 0 and sets
    ``kernel_empty`` (or raises :class:`EmptyKernelError` when a nonzero
    effort was required).  The flow is ``[J G_adj](d/dz) (e; lam)``.
    """
    basis = polynomial_kernel_basis(structure.G, degree)
    free = _poly_vector(*_constrained_sample(
        structure, _int_basis(basis), degree, seed, require_nonzero_e))
    flow = PolyMatrix.hstack([structure.J, structure.G_adj]).apply(free)
    m = structure.m
    return ConstrainedSample(free[:m], free[m:], flow, not basis, degree, seed)


def _constrained_sample(structure: ConstrainedStructure, basis, degree: int,
                        seed: int, require_nonzero_e: bool = False
                        ) -> tuple[list[list[int]], int]:
    """The free data (e; lam) of :func:`constrained_sample` as integer
    coefficient lists over one denominator, given the kernel basis at this
    degree (`_int_basis`); the constrained balance forms the flow."""
    rng = random.Random(seed)
    vectors, den = basis
    effort = [[] for _ in range(structure.m)]
    if not vectors:
        if require_nonzero_e:
            raise EmptyKernelError(
                f"G(d/dz) e = 0 has no nonzero polynomial solution of degree "
                f"<= {degree}")
    else:
        while not any(any(cs) for cs in effort):
            weights, weight_den = _random_int_vector(rng, len(vectors), 0)
            effort = [[] for _ in range(structure.m)]
            for w, vec in zip(weights, vectors):
                for acc, cs in zip(effort, vec):
                    _add_product(acc, w, cs, 0)
        den *= weight_den
    multiplier, multiplier_den = _random_int_vector(
        rng, structure.constraint_rows, degree)
    common = math.lcm(den, multiplier_den)
    return ([[c * (common // den) for c in cs] for cs in effort]
            + [[c * (common // multiplier_den) for c in cs]
               for cs in multiplier]), common


def _constrained_balance(structure: ConstrainedStructure) -> _Balance:
    """The constrained balance on the free data (e; lam): u = e,
    v = [J G_adj](d/dz) (e; lam) = f and w = (Z_J e; Z_G e; V_G lam), with
    M = Sigma_J (+) [[0, Pi_G], [Pi_G^T, 0]]."""
    m, k = structure.m, structure.constraint_rows
    n_j, n_g = structure.n_j, structure.n_g
    zero = PolyMatrix.zero
    w = PolyMatrix.vstack([
        PolyMatrix.hstack([structure.Z_J, zero(n_j, k)]),
        PolyMatrix.hstack([structure.Z_G, zero(n_g, k)]),
        PolyMatrix.hstack([zero(n_g, m), structure.V_G])])
    pi = RatMatrix.vstack([
        RatMatrix.hstack([RatMatrix.zero(n_g, n_g), structure.Pi_G]),
        RatMatrix.hstack([structure.Pi_G.transpose(), RatMatrix.zero(n_g, n_g)])])
    return _Balance(PolyMatrix.hstack([PolyMatrix.identity(m), zero(m, k)]),
                    PolyMatrix.hstack([structure.J, structure.G_adj]), w,
                    RatMatrix.block_diag([structure.Sigma_J, pi]))


def constrained_balance_form(structure: ConstrainedStructure,
               sample1: ConstrainedSample, sample2: ConstrainedSample,
               interval: tuple) -> Fraction:
    """Exact residual of the constrained power balance over an interval.

    Returns

        int_a^b (e1^T f2 + e2^T f1) dz
          - [b_J1^T Sigma_J b_J2]_a^b
          - [b_G2^T Pi_G c_G1]_a^b  - [b_G1^T Pi_G c_G2]_a^b

    computed in exact arithmetic; zero for every pair of constrained
    solutions.  The three brackets are the one form w1^T M w2 on
    w = (Z_J e; Z_G e; V_G lam) with M = Sigma_J (+) [[0, Pi_G], [Pi_G^T, 0]].
    The relation forms each f from (e; lam) rather than reading
    ``sample.flow``; the value is the same for every sample that solves the
    relation, which is every sample :func:`constrained_sample` makes.
    """
    balance = _constrained_balance(structure)
    first, second = (balance.evaluate(_int_vector(
        sample.effort + sample.multiplier)) for sample in (sample1, sample2))
    return balance.residual(first, second, Fraction(interval[0]),
                            Fraction(interval[1]))
