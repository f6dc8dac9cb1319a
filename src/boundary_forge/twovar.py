"""Two-variable polynomial matrices and their minimal factorizations.

A two-variable polynomial matrix Phi(zeta, eta) = sum_{k,l} Phi_kl zeta^k
eta^l with rational p x q matrix coefficients induces a bilinear
differential operator on pairs of polynomial vector functions,

    apply(Phi, v, w)(z) = sum_{k,l} (d^k v / dz^k)^T Phi_kl (d^l w / dz^l),

and is equivalently encoded by its block coefficient matrix: the
(M+1)p x (M+1)q array whose (k, l) block is Phi_kl.  Rank-revealing
decompositions of that coefficient matrix give minimal factorizations

    Phi(zeta, eta) = X(zeta)^T Y(eta)                    (general)
    Phi(zeta, eta) = Z(zeta)^T Sigma Z(eta)              (symmetric)
    Phi(zeta, eta) = W(zeta)^T J_p W(eta)                (skew)

with inner dimension equal to the rank of the coefficient matrix, Sigma
symmetric invertible with the same signature as the coefficient matrix, and
J_p = [[0, I_p], [-I_p, 0]].  Everything here is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .algebra import (
    NotSkewError,
    NotSymmetricError,
    Poly,
    PolyMatrix,
    RatMatrix,
    _congruence_reduce,
    _derivatives,
    rank_factorization,
    skew_canonical_congruence,
)

__all__ = [
    "TwoVarPolyMatrix",
    "CoeffMatrix",
    "DimensionMismatchError",
    "NotDivisibleError",
    "bdf_apply",
    "mul_zeta_plus_eta",
    "div_zeta_plus_eta",
    "factor_general",
    "factor_symmetric",
    "factor_skew",
]


class DimensionMismatchError(ValueError):
    """Vector or block dimensions do not line up."""


class NotDivisibleError(ValueError):
    """The two-variable matrix is not divisible by (zeta + eta); the witness
    is the nonzero value on the line zeta = -eta."""

    def __init__(self, message: str, witness: PolyMatrix | None = None):
        super().__init__(message)
        self.witness = witness


class TwoVarPolyMatrix:
    """Immutable sparse two-variable polynomial matrix.

    Stored as a map from exponent pairs (k, l) to nonzero rational
    coefficient blocks of fixed shape p x q.
    """

    __slots__ = ("p", "q", "blocks")

    def __init__(self, p: int, q: int, blocks: Mapping[tuple[int, int], RatMatrix]):
        if p < 0 or q < 0:
            raise ValueError("block dimensions must be nonnegative")
        clean: dict[tuple[int, int], RatMatrix] = {}
        for (k, l), mat in blocks.items():
            if k < 0 or l < 0:
                raise ValueError("exponents must be nonnegative")
            if mat.shape != (p, q):
                raise DimensionMismatchError(
                    f"block ({k},{l}) has shape {mat.shape}, expected {(p, q)}")
            if not mat.is_zero():
                clean[(k, l)] = mat
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "blocks", clean)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("TwoVarPolyMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int, q: int) -> "TwoVarPolyMatrix":
        return cls(p, q, {})

    @classmethod
    def constant(cls, mat: RatMatrix) -> "TwoVarPolyMatrix":
        return cls(mat.rows, mat.cols, {(0, 0): mat})

    @classmethod
    def outer(cls, x: PolyMatrix, y: PolyMatrix) -> "TwoVarPolyMatrix":
        """Build X(zeta)^T Y(eta) from one-variable matrices with a common
        inner (row) dimension."""
        if x.rows != y.rows:
            raise DimensionMismatchError("outer factors need equal row counts")
        dx = int(x.degree) if not x.is_zero() else -1
        dy = int(y.degree) if not y.is_zero() else -1
        blocks = {}
        for k in range(dx + 1):
            xk = x.coeff(k).transpose()
            for l in range(dy + 1):
                blocks[(k, l)] = xk * y.coeff(l)
        return cls(x.cols, y.cols, blocks)

    # -- inspection --------------------------------------------------------

    @property
    def window(self) -> int:
        """Largest exponent present in either variable (0 for the zero matrix)."""
        if not self.blocks:
            return 0
        return max(max(k, l) for (k, l) in self.blocks)

    def block(self, k: int, l: int) -> RatMatrix:
        return self.blocks.get((k, l), RatMatrix.zero(self.p, self.q))

    def is_zero(self) -> bool:
        return not self.blocks

    def swap_transpose(self) -> "TwoVarPolyMatrix":
        """Phi(zeta, eta) -> Phi(eta, zeta)^T."""
        return TwoVarPolyMatrix(
            self.q, self.p,
            {(l, k): mat.transpose() for (k, l), mat in self.blocks.items()})

    def is_symmetric(self) -> bool:
        return self.p == self.q and self.swap_transpose() == self

    def is_skew(self) -> bool:
        return self.p == self.q and self.swap_transpose() == -self

    def at_zeta_minus_eta(self) -> PolyMatrix:
        """Substitute zeta = -eta, returning a one-variable matrix in eta."""
        acc: dict[int, RatMatrix] = {}
        for (k, l), mat in self.blocks.items():
            power = k + l
            signed = mat if k % 2 == 0 else -mat
            acc[power] = acc.get(power, RatMatrix.zero(self.p, self.q)) + signed
        top = max(acc, default=-1)
        return PolyMatrix(self.p, self.q, [
            [Poly([acc[d].entries[i][j] if d in acc else 0 for d in range(top + 1)])
             for j in range(self.q)] for i in range(self.p)])

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TwoVarPolyMatrix):
            return NotImplemented
        if (self.p, self.q) != (other.p, other.q):
            raise DimensionMismatchError("shape mismatch")
        keys = set(self.blocks) | set(other.blocks)
        return TwoVarPolyMatrix(
            self.p, self.q, {kl: self.block(*kl) + other.block(*kl) for kl in keys})

    def __sub__(self, other):
        if not isinstance(other, TwoVarPolyMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return TwoVarPolyMatrix(self.p, self.q,
                                {kl: -mat for kl, mat in self.blocks.items()})

    # -- coefficient matrix round trip ---------------------------------------

    def to_coeff(self, window: int | None = None) -> "CoeffMatrix":
        m = self.window if window is None else window
        if any(max(k, l) > m for (k, l) in self.blocks):
            raise ValueError("window too small for the exponents present")
        grid = [[Fraction(0)] * ((m + 1) * self.q) for _ in range((m + 1) * self.p)]
        for (k, l), mat in self.blocks.items():
            for i in range(self.p):
                for j in range(self.q):
                    grid[k * self.p + i][l * self.q + j] = mat.entries[i][j]
        return CoeffMatrix(self.p, self.q, m,
                           RatMatrix((m + 1) * self.p, (m + 1) * self.q, grid))

    # -- protocol -------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TwoVarPolyMatrix):
            return NotImplemented
        return (self.p, self.q) == (other.p, other.q) and self.blocks == other.blocks

    def __str__(self):
        if not self.blocks:
            return f"0 ({self.p}x{self.q})"
        parts = [f"zeta^{k}*eta^{l}: {mat}" for (k, l), mat in sorted(self.blocks.items())]
        return "{ " + "; ".join(parts) + " }"

    def __repr__(self):
        return f"TwoVarPolyMatrix({self})"


@dataclass(frozen=True)
class CoeffMatrix:
    """Block coefficient matrix of a two-variable polynomial matrix: the
    (k, l) block of `mat` is the coefficient of zeta^k eta^l."""

    p: int
    q: int
    window: int
    mat: RatMatrix

    def to_two_var(self) -> TwoVarPolyMatrix:
        # the constructor drops the zero blocks
        span = range(self.window + 1)
        return TwoVarPolyMatrix(self.p, self.q, {
            (k, l): self.mat.submatrix(range(k * self.p, (k + 1) * self.p),
                                       range(l * self.q, (l + 1) * self.q))
            for k in span for l in span})


def bdf_apply(phi: TwoVarPolyMatrix, v: Sequence[Poly], w: Sequence[Poly]) -> Poly:
    """Evaluate the bilinear differential operator of `phi` on polynomial
    vector functions v (length p) and w (length q)."""
    if len(v) != phi.p or len(w) != phi.q:
        raise DimensionMismatchError(
            f"expected vectors of length {phi.p} and {phi.q}, got {len(v)} and {len(w)}")
    if not phi.blocks:
        return Poly.zero()
    kmax = max(k for (k, _) in phi.blocks)
    lmax = max(l for (_, l) in phi.blocks)
    dv = _derivatives(v, kmax)
    dw = _derivatives(w, lmax)
    total = Poly.zero()
    for (k, l), mat in phi.blocks.items():
        for i in range(phi.p):
            for j in range(phi.q):
                c = mat.entries[i][j]
                if c != 0:
                    total = total + c * (dv[i][k] * dw[j][l])
    return total


def mul_zeta_plus_eta(phi: TwoVarPolyMatrix) -> TwoVarPolyMatrix:
    """(zeta + eta) * Phi."""
    blocks: dict[tuple[int, int], RatMatrix] = {}

    def bump(key, mat):
        blocks[key] = blocks.get(key, RatMatrix.zero(phi.p, phi.q)) + mat

    for (k, l), mat in phi.blocks.items():
        bump((k + 1, l), mat)
        bump((k, l + 1), mat)
    return TwoVarPolyMatrix(phi.p, phi.q, blocks)


def div_zeta_plus_eta(phi: TwoVarPolyMatrix) -> TwoVarPolyMatrix:
    """Exact quotient Phi / (zeta + eta).

    Divisibility holds exactly when Phi vanishes on the line zeta = -eta;
    otherwise :class:`NotDivisibleError` carries the offending restriction.
    The quotient is computed by synthetic division in zeta at the root
    zeta = -eta.
    """
    residue = phi.at_zeta_minus_eta()
    if not residue.is_zero():
        raise NotDivisibleError(
            "matrix does not vanish at zeta = -eta", witness=residue)
    if phi.is_zero():
        return TwoVarPolyMatrix.zero(phi.p, phi.q)
    kmax = max(k for (k, _) in phi.blocks)
    # slice into matrix polynomials in eta: a[k][l] = Phi_{k,l}
    a: list[dict[int, RatMatrix]] = [dict() for _ in range(kmax + 1)]
    for (k, l), mat in phi.blocks.items():
        a[k][l] = mat
    # synthetic division by (zeta - (-eta)): b_{k-1} = a_k - eta * b_k
    b: list[dict[int, RatMatrix]] = [dict() for _ in range(kmax)]
    carry: dict[int, RatMatrix] = {}
    for k in range(kmax, 0, -1):
        cur: dict[int, RatMatrix] = dict(a[k])
        for l, mat in carry.items():
            key = l + 1  # multiply the previous quotient slice by eta
            cur[key] = cur.get(key, RatMatrix.zero(phi.p, phi.q)) - mat
        # note: b_{k-1} = a_k - eta*b_k, and carry holds b_k
        b[k - 1] = cur
        carry = cur
    # remainder a_0 - eta*b_0 must vanish; guaranteed by the line check
    return TwoVarPolyMatrix(phi.p, phi.q, {(k, l): mat for k, slice_ in enumerate(b)
                                           for l, mat in slice_.items()})


def _poly_matrix_from_coeff_rows(block: RatMatrix, cols_per_power: int) -> PolyMatrix:
    """Reassemble X(zeta) from its row-stacked coefficient matrix
    [X_0 X_1 ... X_M] with blocks of width `cols_per_power`."""
    k = block.rows
    if cols_per_power == 0:
        return PolyMatrix.zero(k, 0)
    return PolyMatrix(k, cols_per_power, [
        [Poly(row[j::cols_per_power]) for j in range(cols_per_power)]
        for row in block.entries])


def factor_general(phi: TwoVarPolyMatrix) -> tuple[PolyMatrix, PolyMatrix]:
    """Minimal factorization Phi(zeta, eta) = X(zeta)^T Y(eta).

    The inner dimension equals the rank of the coefficient matrix, which is
    the minimum possible.
    """
    coeff = phi.to_coeff()
    x_block, y_block = rank_factorization(coeff.mat)
    x = _poly_matrix_from_coeff_rows(x_block, phi.p)
    y = _poly_matrix_from_coeff_rows(y_block, phi.q)
    _check_reconstruction(phi, x, None, y)
    return x, y


def factor_symmetric(phi: TwoVarPolyMatrix) -> tuple[PolyMatrix, RatMatrix]:
    """Minimal symmetric factorization Phi(zeta, eta) = Z(zeta)^T Sigma Z(eta).

    Sigma is symmetric, invertible, of size rank(coefficient matrix), and
    carries the same signature as the coefficient matrix.  It is returned in
    exact block-diagonal form (rational 1x1 entries and 2x2 hyperbolic
    blocks), deliberately not normalized to +-1 to avoid square roots.
    """
    if phi.p != phi.q:
        raise NotSymmetricError("symmetric factorization needs square blocks")
    if not phi.is_symmetric():
        raise NotSymmetricError("two-variable matrix is not symmetric")
    coeff = phi.to_coeff()
    inertia, t, reduced = _congruence_reduce(coeff.mat)
    n = inertia.positive + inertia.negative
    sigma = reduced.submatrix(range(n), range(n))
    r = t.inverse()
    z = _poly_matrix_from_coeff_rows(r.take_rows(range(n)), phi.p)
    _check_reconstruction(phi, z, sigma, z)
    return z, sigma


def factor_skew(phi: TwoVarPolyMatrix) -> tuple[PolyMatrix, int]:
    """Minimal skew factorization Phi(zeta, eta) = W(zeta)^T J_p W(eta) with
    J_p = [[0, I_p], [-I_p, 0]].  Returns (W, p)."""
    if phi.p != phi.q:
        raise NotSkewError("skew factorization needs square blocks")
    if not phi.is_skew():
        raise NotSkewError("two-variable matrix is not skew")
    coeff = phi.to_coeff()
    p_half, t = skew_canonical_congruence(coeff.mat)
    r = t.inverse()
    w = _poly_matrix_from_coeff_rows(r.take_rows(range(2 * p_half)), phi.p)
    _check_reconstruction(phi, w, _j_matrix(p_half), w)
    return w, p_half


def _j_matrix(p: int) -> RatMatrix:
    """The canonical skew pairing [[0, I_p], [-I_p, 0]]."""
    if p == 0:
        return RatMatrix.zero(0, 0)
    top = RatMatrix.hstack([RatMatrix.zero(p, p), RatMatrix.identity(p)])
    bottom = RatMatrix.hstack([-RatMatrix.identity(p), RatMatrix.zero(p, p)])
    return RatMatrix.vstack([top, bottom])


def _check_reconstruction(phi: TwoVarPolyMatrix, left: PolyMatrix,
                          middle: RatMatrix | None, right: PolyMatrix) -> None:
    # factorization results are always re-verified before release
    if middle is None:
        rebuilt = TwoVarPolyMatrix.outer(left, right)
    else:
        rebuilt = TwoVarPolyMatrix.outer(left, PolyMatrix.from_const(middle) * right)
    if rebuilt != phi:
        raise AssertionError("internal error: factorization failed to reconstruct its input")
