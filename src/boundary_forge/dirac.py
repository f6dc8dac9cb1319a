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
from math import fsum, sqrt

from .algebra import (
    Inertia,
    Poly,
    PolyMatrix,
    RatMatrix,
    _congruence_reduce,
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

    The rows of `T` are read off the reduced form of the exact congruence
    (:func:`inertia_congruence`) with one rounding per entry.  A hyperbolic
    block [[0, c], [c, 0]] on (x_k, x_l) is the port f = sqrt|c| x_k,
    e = sign(c) sqrt|c| x_l.  The i-th positive 1x1 entry d_i on x_i pairs
    with the i-th negative one d_j on x_j as
    f, e = (sqrt(d_i) x_i +- sqrt|d_j| x_j) / sqrt 2.
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

    One exact congruence t^T Sigma t = R gives the signature (an unbalanced
    one raises :class:`UnbalancedSignatureError`) and the reduced form R,
    whose split is read off its blocks; T is that split times the float of
    the exact t^-1.  The residual is measured against `sigma` and must stay
    below `tolerance`.  The congruence pivots by position, not by size, so
    for a general `sigma` the split can be less well conditioned than an
    orthogonal one; the pairings of the pipeline are already reduced and
    split without it.
    """
    inertia, t, reduced = _congruence_reduce(sigma)
    _check_splittable(inertia)
    entries = _float_entries(sigma, "pairing")
    rows = _reduced_rows(reduced, _float_entries(reduced, "reduced pairing"))
    t_inv = _float_entries(t.inverse(), "congruence")
    rows = [[fsum(x * t_inv[k, j] for k, x in enumerate(row)
                  if x and (k, j) in t_inv) for j in range(sigma.rows)]
            for row in rows]
    return _checked_split(rows, entries, inertia.positive, tolerance)


def _power_split(sigma: RatMatrix, inertia: Inertia,
                 tolerance: float) -> PowerSplit:
    """:func:`canonical_power_split` of a `sigma` already in the reduced form
    of the congruence, as :func:`factor_symmetric` returns it, given its
    inertia."""
    _check_splittable(inertia)
    entries = _float_entries(sigma, "pairing")
    return _checked_split(_reduced_rows(sigma, entries), entries,
                          inertia.positive, tolerance)


def _check_splittable(inertia: Inertia) -> None:
    if inertia.zero != 0:
        raise ValueError(f"pairing matrix must be invertible, signature {inertia}")
    if not inertia.is_balanced:
        raise UnbalancedSignatureError(inertia)


def _float_entries(matrix: RatMatrix, what: str) -> dict[tuple[int, int], float]:
    """The nonzero entries of `matrix` as floats, keyed by position."""
    try:
        return {(i, j): float(v) for i, row in enumerate(matrix.entries)
                for j, v in enumerate(row) if v}
    except OverflowError:
        big = matrix.max_abs()
        raise SplitToleranceError(
            f"{what} entry of magnitude about 2^"
            f"{big.numerator.bit_length() - big.denominator.bit_length()} "
            f"exceeds the float range of the split") from None


def _reduced_rows(sigma: RatMatrix, entries: dict) -> list[list[float]]:
    """The rows of T (flows, then efforts) for a reduced `sigma` whose
    nonzero entries are `entries` as floats; signs come from the exact
    entries."""
    ports: list[tuple[dict, dict]] = []
    positive, negative = [], []
    exact = sigma.entries
    k = 0
    while k < sigma.rows:
        if exact[k][k]:
            side = positive if exact[k][k] > 0 else negative
            side.append((k, sqrt(abs(entries[k, k]) / 2)))
            k += 1
        else:
            r = sqrt(abs(entries[k, k + 1]))
            ports.append(({k: r}, {k + 1: r if exact[k][k + 1] > 0 else -r}))
            k += 2
    ports += [({i: a, j: b}, {i: a, j: -b})
              for (i, a), (j, b) in zip(positive, negative)]
    return [[row.get(j, 0.0) for j in range(sigma.rows)]
            for row in [f for f, _ in ports] + [e for _, e in ports]]


def _checked_split(rows: list[list[float]], sigma: dict, p: int,
                   tolerance: float) -> PowerSplit:
    """The split with rows `rows` of a pairing whose nonzero float entries
    are `sigma`, or :class:`SplitToleranceError` when its residual
    max |T^T Q_p T - Sigma| exceeds `tolerance`.  Each entry of T^T Q_p T is
    the correctly rounded sum of its nonzero products."""
    terms: dict[tuple[int, int], list[float]] = {}
    for row, partner in zip(rows, rows[p:] + rows[:p]):  # (Q_p T)[r] = partner
        right = [(j, y) for j, y in enumerate(partner) if y]
        for i, x in enumerate(row):
            if x:
                for j, y in right:
                    terms.setdefault((i, j), []).append(x * y)
    residual = max((abs(fsum(terms.get(key, ())) - sigma.get(key, 0.0))
                    for key in terms.keys() | sigma.keys()), default=0.0)
    if residual > tolerance:
        raise SplitToleranceError(
            f"split residual {residual:.3e} exceeds tolerance {tolerance:.3e}")
    return PowerSplit(tuple(tuple(row) for row in rows), p, residual, tolerance)


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
