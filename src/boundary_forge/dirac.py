"""Boundary structures for Dirac structures defined by pairs of matrix
differential operators on an interval.

A pair (F, E) of m x m polynomial matrices defines the kernel relation
F(d/dz) f + E(d/dz) e = 0 between flows f and efforts e.  The pair is
admissible when

  * F(-s) E(s)^T + E(-s) F(s)^T = 0 for all s (skew condition), and
  * [F(-s) E(-s)] has rank m for every complex s (rank condition).

Solutions are parametrized by an image representation driven by a free
latent polynomial vector l:

    f = N_f(d/dz) l,   e = N_e(d/dz) l,
    N_f(s) = E(-s)^T,  N_e(s) = F(-s)^T.

The boundary pairing is the symmetric two-variable matrix

    Phi(zeta, eta) = F(-zeta) E(-eta)^T + E(-zeta) F(-eta)^T,

which vanishes on zeta = -eta, and Pi = Phi / (zeta + eta) factors as
Z(zeta)^T Sigma Z(eta).  The boundary map is b = Z(d/dz) l and the pairing
satisfies, exactly on polynomial trajectories,

    d/dz [ b1^T Sigma b2 ] = e1^T f2 + e2^T f1.

Orientation convention: with the annihilator image representation above,
Pi(zeta, eta) equals minus the (-zeta, -eta) substitution of the quotient
of F(zeta)E(eta)^T + E(zeta)F(eta)^T, so signs of Sigma are flipped
relative to the operator-side orientation.  A formally skew-adjoint
operator J entered through :func:`skew_adjoint_structure` (efforts driving
flows, f = J(d/dz) e) lands on the familiar orientation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .algebra import (
    Inertia,
    Poly,
    PolyMatrix,
    RatMatrix,
    full_rank_everywhere,
    inertia_congruence,
)
from .twovar import TwoVarPolyMatrix, div_zeta_plus_eta, factor_symmetric

__all__ = [
    "ConditionReport",
    "DiracConditionError",
    "UnbalancedSignatureError",
    "SplitToleranceError",
    "DiracPair",
    "ImageRep",
    "BoundaryStructure",
    "PowerSplit",
    "dirac_condition_reports",
    "validate_dirac_pair",
    "image_representation",
    "boundary_structure",
    "skew_adjoint_residual",
    "validate_skew_adjoint",
    "skew_adjoint_structure",
    "canonical_power_split",
    "two_point_form",
]

DEFAULT_SPLIT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one admissibility condition check."""

    name: str
    passed: bool
    witness: str | None = None

    def __str__(self):
        tag = "pass" if self.passed else "FAIL"
        tail = f" ({self.witness})" if self.witness else ""
        return f"[{tag}] {self.name}{tail}"


class DiracConditionError(ValueError):
    """An operator pair failed admissibility; carries all condition reports."""

    def __init__(self, reports: tuple[ConditionReport, ...]):
        failed = ", ".join(r.name for r in reports if not r.passed)
        super().__init__(f"operator pair is not admissible: {failed}")
        self.reports = reports


class UnbalancedSignatureError(ValueError):
    """A power split needs as many positive as negative directions."""

    def __init__(self, inertia: Inertia):
        super().__init__(
            f"signature {inertia} is not balanced; no pointwise power split exists "
            "(the two-point form always splits)")
        self.inertia = inertia


class SplitToleranceError(ArithmeticError):
    """The floating-point split exceeded its tolerance or the float range."""


@dataclass(frozen=True)
class DiracPair:
    """Validated operator pair.  Construct through :func:`validate_dirac_pair`."""

    F: PolyMatrix
    E: PolyMatrix

    @property
    def m(self) -> int:
        return self.F.rows

    def describe(self) -> str:
        return f"pair m={self.m} degF={self.F.degree} degE={self.E.degree}"


@dataclass(frozen=True)
class ImageRep:
    """Image representation of the solution set: f = N_f(d/dz) l and
    e = N_e(d/dz) l with l free."""

    N_f: PolyMatrix
    N_e: PolyMatrix

    @property
    def m(self) -> int:
        return self.N_f.cols


@dataclass(frozen=True)
class BoundaryStructure:
    """Boundary pairing data for an admissible pair: the quotient Pi, its
    symmetric factorization (Z, Sigma), and the exact signature of Sigma."""

    pair: DiracPair
    rep: ImageRep
    pi: TwoVarPolyMatrix
    Z: PolyMatrix
    Sigma: RatMatrix
    inertia: Inertia

    @property
    def m(self) -> int:
        return self.pair.m

    @property
    def n(self) -> int:
        """Number of boundary variables."""
        return self.Z.rows

    # trajectory maps -------------------------------------------------------

    def flows(self, latent) -> tuple[Poly, ...]:
        return self.rep.N_f.apply(latent)

    def efforts(self, latent) -> tuple[Poly, ...]:
        return self.rep.N_e.apply(latent)

    def boundary(self, latent) -> tuple[Poly, ...]:
        return self.Z.apply(latent)

    def describe(self) -> str:
        return f"{self.pair.describe()} n={self.n} inertia={self.inertia}"


def dirac_condition_reports(F: PolyMatrix, E: PolyMatrix) -> tuple[ConditionReport, ...]:
    """Evaluate both admissibility conditions, reporting exact witnesses."""
    if F.rows != F.cols or E.rows != E.cols or F.rows != E.rows:
        raise ValueError(f"operator pair must be square and equal-sized, "
                         f"got {F.shape} and {E.shape}")
    return _condition_reports(
        "skew_condition", "F(-s)E(s)^T + E(-s)F(s)^T",
        F.para() * E.transpose() + E.para() * F.transpose(),
        full_rank_everywhere(PolyMatrix.hstack([F.para(), E.para()])),
        "[F(-s) E(-s)] loses row rank")


def _condition_reports(name: str, label: str, residual: PolyMatrix,
                       rank_ok: bool, rank_failure: str
                       ) -> tuple[ConditionReport, ConditionReport]:
    """The two admissibility reports of a pair: condition `name` holds
    when `residual` is identically zero (the witness prints it after
    `label`), and the rank condition's verdict is `rank_ok`."""
    ok = residual.is_zero()
    return (ConditionReport(name, ok, None if ok else f"{label} = {residual}"),
            ConditionReport("rank_condition", rank_ok, None if rank_ok else
                            f"{rank_failure} at some complex point"))


def validate_dirac_pair(F: PolyMatrix, E: PolyMatrix) -> DiracPair:
    """Return the validated pair or raise :class:`DiracConditionError` with
    all condition reports attached."""
    reports = dirac_condition_reports(F, E)
    if not all(r.passed for r in reports):
        raise DiracConditionError(reports)
    return DiracPair(F, E)


def image_representation(pair: DiracPair) -> ImageRep:
    """Annihilator image representation N_f(s) = E(-s)^T, N_e(s) = F(-s)^T.

    Validation already proves both of its properties: F N_f + E N_e is the
    skew-condition residual at -s, and [N_f^T N_e^T] = [E(-s) F(-s)] is a
    column-block permutation of the rank-condition matrix.
    """
    return ImageRep(pair.E.transpose().para(), pair.F.transpose().para())


def boundary_structure(pair: DiracPair) -> BoundaryStructure:
    """Synthesize the boundary map and pairing matrix for a validated pair.

    The pair is not re-checked: pass the result of
    :func:`validate_dirac_pair`, or a pair whose condition reports passed.
    Builds Phi(zeta, eta) = F(-zeta)E(-eta)^T + E(-zeta)F(-eta)^T, divides
    out (zeta + eta), and factors the quotient symmetrically.  The second
    term is the swap-transpose of the first.
    """
    rep = image_representation(pair)
    half = TwoVarPolyMatrix.outer(rep.N_e, rep.N_f)
    phi = half + half.swap_transpose()
    pi = div_zeta_plus_eta(phi)
    z, sigma = factor_symmetric(pi)
    inertia, _ = inertia_congruence(sigma)
    return BoundaryStructure(pair, rep, pi, z, sigma, inertia)


def skew_adjoint_residual(J: PolyMatrix) -> PolyMatrix:
    """Residual of formal skew-adjointness: J(s) + J(-s)^T (zero iff
    J(d/dz) equals minus its formal adjoint)."""
    if J.rows != J.cols:
        raise ValueError("skew-adjointness is defined for square operators")
    return J + J.transpose().para()


def validate_skew_adjoint(J: PolyMatrix) -> tuple[bool, str | None]:
    """Check J(s) + J(-s)^T = 0; on failure the witness prints the residual."""
    residual = skew_adjoint_residual(J)
    if residual.is_zero():
        return True, None
    return False, f"J(s) + J(-s)^T = {residual}"


def _skew_adjoint_boundary(J: PolyMatrix) -> BoundaryStructure:
    # For skew-adjoint J the pair (I, -J) needs no validation: its skew
    # residual is minus the transpose of J(s) + J(-s)^T, and [I -J(-s)]
    # has the maximal minor det I = 1.
    return boundary_structure(DiracPair(PolyMatrix.identity(J.rows), -J))


def skew_adjoint_structure(J: PolyMatrix) -> BoundaryStructure:
    """Boundary structure for a formally skew-adjoint operator J driving
    flows from efforts, f = J(d/dz) e.

    This is the kernel pair (F, E) = (I, -J); the latent vector coincides
    with the effort, N_f = J and N_e = I, and for the canonical first-order
    example J = [[0, s], [s, 0]] the pairing comes out as Z = I and
    Sigma = [[0, 1], [1, 0]] exactly.
    """
    ok, witness = validate_skew_adjoint(J)
    if not ok:
        raise DiracConditionError((ConditionReport("skew_adjoint", False, witness),))
    return _skew_adjoint_boundary(J)


@dataclass(frozen=True)
class PowerSplit:
    """Float change of basis splitting the boundary pairing into power
    conjugated port pairs.

    `T` satisfies T^T Q_p T = Sigma up to `residual` in the max norm, with
    Q_p = [[0, I_p], [I_p, 0]].  Boundary values map through w = T b into
    (f_delta, e_delta) = (w[:p], w[p:]) with
    b1^T Sigma b2 = f_delta1^T e_delta2 + e_delta1^T f_delta2.
    """

    T: tuple[tuple[float, ...], ...]
    p: int
    residual: float
    tolerance: float

    def apply(self, boundary_values) -> tuple[tuple[float, ...], tuple[float, ...]]:
        b = [float(v) for v in boundary_values]
        n = 2 * self.p
        if len(b) != n:
            raise ValueError(f"expected {n} boundary values, got {len(b)}")
        w = [sum(self.T[i][j] * b[j] for j in range(n)) for i in range(n)]
        return tuple(w[:self.p]), tuple(w[self.p:])


def canonical_power_split(sigma: RatMatrix,
                          tolerance: float = DEFAULT_SPLIT_TOLERANCE) -> PowerSplit:
    """Split a symmetric invertible pairing with balanced signature into
    pointwise power-conjugated ports.

    The signature is checked exactly first; an unbalanced one raises
    :class:`UnbalancedSignatureError`.  The transformation itself is the one
    floating-point step of the package (a symmetric eigendecomposition), and
    its residual is measured and must stay below `tolerance`.
    """
    inertia, _ = inertia_congruence(sigma)
    return _power_split(sigma, inertia, tolerance)


def _power_split(sigma: RatMatrix, inertia: Inertia,
                 tolerance: float) -> PowerSplit:
    """:func:`canonical_power_split` given the inertia of `sigma`."""
    if inertia.zero != 0:
        raise ValueError(f"pairing matrix must be invertible, signature {inertia}")
    if not inertia.is_balanced:
        raise UnbalancedSignatureError(inertia)
    p = inertia.positive
    n = sigma.rows
    if n == 0:
        return PowerSplit((), 0, 0.0, tolerance)
    try:
        sig = np.array(sigma.to_float(), dtype=float)
    except OverflowError:
        big = sigma.max_abs()
        raise SplitToleranceError(
            f"pairing entry of magnitude about 2^"
            f"{big.numerator.bit_length() - big.denominator.bit_length()} "
            f"exceeds the float range of the split") from None
    eigvals, eigvecs = np.linalg.eigh(sig)
    order = np.argsort(-eigvals)  # positives first; exact inertia fixed the counts
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    scale = np.sqrt(np.abs(eigvals))
    s_fact = eigvecs * scale  # columns scaled by sqrt|lambda|
    half = 1.0 / sqrt(2.0)
    g = np.zeros((n, n))
    g[:p, :p] = np.eye(p) * half
    g[:p, p:] = np.eye(p) * half
    g[p:, :p] = np.eye(p) * half
    g[p:, p:] = -np.eye(p) * half
    t = g @ s_fact.T
    q = np.zeros((n, n))
    q[:p, p:] = np.eye(p)
    q[p:, :p] = np.eye(p)
    residual = float(np.max(np.abs(t.T @ q @ t - sig)))
    if residual > tolerance:
        raise SplitToleranceError(
            f"split residual {residual:.3e} exceeds tolerance {tolerance:.3e}")
    return PowerSplit(tuple(tuple(float(v) for v in row) for row in t),
                      p, residual, tolerance)


def two_point_form(structure: BoundaryStructure,
                   tolerance: float = DEFAULT_SPLIT_TOLERANCE
                   ) -> tuple[RatMatrix, PowerSplit]:
    """Doubled pairing blockdiag(Sigma, -Sigma) on the stacked boundary
    vector (b(beta); b(alpha)).

    Its signature is always balanced, so the canonical split always exists.
    Sigma's inertia (p, q, z) gives it as (p + q, p + q, 2z), with no second
    congruence.
    """
    sigma2 = RatMatrix.block_diag([structure.Sigma, -structure.Sigma])
    p, q, z = structure.inertia.as_tuple()
    return sigma2, _power_split(sigma2, Inertia(p + q, p + q, 2 * z), tolerance)
