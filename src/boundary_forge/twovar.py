"""Two-variable polynomial matrices and their minimal factorizations.

A two-variable polynomial matrix Phi(zeta, eta) = sum_{k,l} Phi_kl zeta^k
eta^l with rational p x q matrix coefficients induces a bilinear
differential operator on pairs of polynomial vector functions,

    apply(Phi, v, w)(z) = sum_{k,l} (d^k v / dz^k)^T Phi_kl (d^l w / dz^l),

and is stored as its block coefficient matrix: the (M+1)p x (M+1)q array
whose (k, l) block is Phi_kl, with M the largest exponent present.  In that
calculus Phi(eta, zeta)^T is the transposed coefficient matrix, so Phi is
symmetric or skew exactly when the matrix is; X(zeta)^T Y(eta) has the
coefficient matrix X~^T Y~, with X~ = [X_0 X_1 ... X_M] the stacked
coefficients of :meth:`PolyMatrix.coeff_rows`; and multiplying by
(zeta + eta) adds the matrix shifted down one block to the matrix shifted
right one block.  Congruence and rank factorizations of the coefficient
matrix give minimal factorizations

    Phi(zeta, eta) = X(zeta)^T Y(eta)                    (general)
    Phi(zeta, eta) = Z(zeta)^T Sigma Z(eta)              (symmetric)
    Phi(zeta, eta) = W(zeta)^T J_p W(eta)                (skew)

with inner dimension equal to the rank of the coefficient matrix, Sigma
symmetric invertible with the same signature as the coefficient matrix, and
J_p = [[0, I_p], [-I_p, 0]].  Everything here is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .algebra import (
    NotSkewError,
    NotSymmetricError,
    Poly,
    PolyMatrix,
    RatMatrix,
    _ZERO,
    _congruence_reduce,
    _derivatives,
    rank_factorization,
    skew_canonical_congruence,
)

__all__ = [
    "TwoVarPolyMatrix",
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
    """Immutable two-variable polynomial matrix, stored as its coefficient
    matrix.

    `window` is the largest exponent present in either variable (0 for the
    zero matrix) and `mat` the (window + 1)p x (window + 1)q rational matrix
    whose (k, l) block is the coefficient of zeta^k eta^l.  Every value is
    kept at its own window, so two equal matrices have equal `mat`.
    """

    __slots__ = ("p", "q", "window", "mat")

    def __init__(self, p: int, q: int, blocks: Mapping[tuple[int, int], RatMatrix]):
        if p < 0 or q < 0:
            raise ValueError("block dimensions must be nonnegative")
        window = 0
        for (k, l), block in blocks.items():
            if k < 0 or l < 0:
                raise ValueError("exponents must be nonnegative")
            if block.shape != (p, q):
                raise DimensionMismatchError(
                    f"block ({k},{l}) has shape {block.shape}, expected {(p, q)}")
            if not block.is_zero():
                window = max(window, k, l)
        grid = _grid((), p, q, window)
        for (k, l), block in blocks.items():
            if max(k, l) <= window:
                for i, row in enumerate(block.entries):
                    grid[k * p + i][l * q:(l + 1) * q] = row
        self._assign(p, q, window, RatMatrix(len(grid), (window + 1) * q, grid))

    def _assign(self, p: int, q: int, window: int, mat: RatMatrix) -> None:
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "mat", mat)

    @classmethod
    def _of(cls, p: int, q: int, window: int, grid) -> "TwoVarPolyMatrix":
        """The matrix whose coefficient matrix is `grid`, laid out for
        `window`, cut to its own window."""
        # the last block row or column is nonzero unless terms cancelled
        while window and not _nonzero_at(grid, p, q, window):
            window -= 1
        width = (window + 1) * q
        rows = [row[:width] for row in grid[:(window + 1) * p]]
        out = object.__new__(cls)
        out._assign(p, q, window, RatMatrix(len(rows), width, rows))
        return out

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
        inner (row) dimension: its coefficient matrix is the product of
        their stacked coefficients, each taken to its own span."""
        if x.rows != y.rows:
            raise DimensionMismatchError("outer factors need equal row counts")
        product = x.coeff_rows(x.span).transpose() * y.coeff_rows(y.span)
        window = max(x.span, y.span)
        return cls._of(x.cols, y.cols, window,
                       _grid(product.entries, x.cols, y.cols, window))

    # -- inspection --------------------------------------------------------

    def block(self, k: int, l: int) -> RatMatrix:
        if max(k, l) > self.window:
            return RatMatrix.zero(self.p, self.q)
        return self.mat.submatrix(range(k * self.p, (k + 1) * self.p),
                                  range(l * self.q, (l + 1) * self.q))

    @property
    def blocks(self) -> dict[tuple[int, int], RatMatrix]:
        """The nonzero coefficient blocks, keyed by exponent pair (k, l)."""
        span = range(self.window + 1)
        every = (((k, l), self.block(k, l)) for k in span for l in span)
        return {kl: block for kl, block in every if not block.is_zero()}

    def is_zero(self) -> bool:
        return self.mat.is_zero()

    def swap_transpose(self) -> "TwoVarPolyMatrix":
        """Phi(zeta, eta) -> Phi(eta, zeta)^T, the transposed coefficient
        matrix."""
        return TwoVarPolyMatrix._of(self.q, self.p, self.window,
                                    self.mat.transpose().entries)

    def is_symmetric(self) -> bool:
        return self.p == self.q and self.mat.is_symmetric()

    def is_skew(self) -> bool:
        return self.p == self.q and self.mat.is_skew()

    def to_coeff(self) -> "TwoVarPolyMatrix":
        """This matrix, whose `mat` is its coefficient matrix."""
        return self

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TwoVarPolyMatrix):
            return NotImplemented
        if (self.p, self.q) != (other.p, other.q):
            raise DimensionMismatchError("shape mismatch")
        # an entry's place in the grid does not depend on the window
        window = max(self.window, other.window)
        grid = _grid(self.mat.entries, self.p, self.q, window)
        _add_into(grid, other.mat.entries, 0, 0)
        return TwoVarPolyMatrix._of(self.p, self.q, window, grid)

    def __sub__(self, other):
        if not isinstance(other, TwoVarPolyMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return TwoVarPolyMatrix._of(self.p, self.q, self.window,
                                    (-self.mat).entries)

    # -- protocol -------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TwoVarPolyMatrix):
            return NotImplemented
        return (self.p, self.q, self.mat) == (other.p, other.q, other.mat)

    def __str__(self):
        blocks = self.blocks
        if not blocks:
            return f"0 ({self.p}x{self.q})"
        parts = [f"zeta^{k}*eta^{l}: {mat}" for (k, l), mat in sorted(blocks.items())]
        return "{ " + "; ".join(parts) + " }"

    def __repr__(self):
        return f"TwoVarPolyMatrix({self})"


def _grid(rows, p: int, q: int, window: int) -> list[list[Fraction]]:
    """`rows` as a mutable (window + 1)p x (window + 1)q grid, padded with
    zeros on the right and at the bottom."""
    width = (window + 1) * q
    grid = [list(row) + [_ZERO] * (width - len(row)) for row in rows]
    return grid + [[_ZERO] * width for _ in range((window + 1) * p - len(grid))]


def _nonzero_at(grid, p: int, q: int, k: int) -> bool:
    """Whether block row k or block column k of a coefficient grid has a
    nonzero entry."""
    return (any(any(row) for row in grid[k * p:(k + 1) * p])
            or any(any(row[k * q:(k + 1) * q]) for row in grid[:k * p]))


def _add_into(grid, entries, row_shift: int, col_shift: int) -> None:
    """Add the nonzero entries of `entries` into `grid`, moved down by
    `row_shift` rows and right by `col_shift` columns."""
    for r, row in enumerate(entries):
        target = grid[r + row_shift]
        for c, v in enumerate(row):
            if v:
                target[c + col_shift] += v


def bdf_apply(phi: TwoVarPolyMatrix, v: Sequence[Poly], w: Sequence[Poly]) -> Poly:
    """Evaluate the bilinear differential operator of `phi` on polynomial
    vector functions v (length p) and w (length q)."""
    if len(v) != phi.p or len(w) != phi.q:
        raise DimensionMismatchError(
            f"expected vectors of length {phi.p} and {phi.q}, got {len(v)} and {len(w)}")
    dv = _derivatives(v, phi.window)
    dw = _derivatives(w, phi.window)
    total = Poly.zero()
    for r, row in enumerate(phi.mat.entries):
        k, i = divmod(r, phi.p)
        for c, coeff in enumerate(row):
            if coeff:
                l, j = divmod(c, phi.q)
                total = total + coeff * (dv[i][k] * dw[j][l])
    return total


def mul_zeta_plus_eta(phi: TwoVarPolyMatrix) -> TwoVarPolyMatrix:
    """(zeta + eta) * Phi: the coefficient matrix shifted down one block
    plus the one shifted right one block."""
    window = phi.window + 1
    grid = _grid((), phi.p, phi.q, window)
    _add_into(grid, phi.mat.entries, phi.p, 0)
    _add_into(grid, phi.mat.entries, 0, phi.q)
    return TwoVarPolyMatrix._of(phi.p, phi.q, window, grid)


def div_zeta_plus_eta(phi: TwoVarPolyMatrix) -> TwoVarPolyMatrix:
    """Exact quotient Phi / (zeta + eta).

    Divisibility holds exactly when Phi vanishes on the line zeta = -eta;
    otherwise :class:`NotDivisibleError` carries the offending restriction
    Phi(-eta, eta).  The quotient is computed by synthetic division in zeta
    at the root zeta = -eta.
    """
    p, q, window = phi.p, phi.q, phi.window
    entries = phi.mat.entries
    # Phi(-eta, eta): the (k, l) block adds (-1)^k Phi_kl to eta^(k + l)
    residue = [[[_ZERO] * (2 * window + 1) for _ in range(q)] for _ in range(p)]
    for r, row in enumerate(entries):
        k, i = divmod(r, p)
        for c, v in enumerate(row):
            if v:
                l, j = divmod(c, q)
                residue[i][j][k + l] += -v if k % 2 else v
    if any(any(cs) for row in residue for cs in row):
        raise NotDivisibleError(
            "matrix does not vanish at zeta = -eta",
            witness=PolyMatrix(p, q, [[Poly(cs) for cs in row] for row in residue]))
    if phi.is_zero():
        return TwoVarPolyMatrix.zero(p, q)
    # Q_{k,l} = Phi_{k+1,l} - Q_{k+1,l-1} from the top power of zeta down;
    # the remainder Phi_{0,.} - eta Q_{0,.} vanishes by the line check, and
    # so does everything of Phi past the quotient's window
    width = window * q
    quotient = [list(row[:width]) for row in entries[p:]]
    for r in range(len(quotient) - p - 1, -1, -1):
        target, above = quotient[r], quotient[r + p]
        for c in range(width - q):
            if above[c]:
                target[c + q] -= above[c]
    return TwoVarPolyMatrix._of(p, q, window - 1, quotient)


def factor_general(phi: TwoVarPolyMatrix) -> tuple[PolyMatrix, PolyMatrix]:
    """Minimal factorization Phi(zeta, eta) = X(zeta)^T Y(eta).

    The inner dimension equals the rank of the coefficient matrix, which is
    the minimum possible.
    """
    x_rows, y_rows = rank_factorization(phi.mat)
    x = PolyMatrix.from_coeff_rows(x_rows, phi.p)
    y = PolyMatrix.from_coeff_rows(y_rows, phi.q)
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
    inertia, t, reduced = _congruence_reduce(phi.mat)
    n = inertia.positive + inertia.negative
    sigma = reduced.submatrix(range(n), range(n))
    z = _congruence_factor(t, n, phi.p)
    _check_reconstruction(phi, z, sigma, z)
    return z, sigma


def factor_skew(phi: TwoVarPolyMatrix) -> tuple[PolyMatrix, int]:
    """Minimal skew factorization Phi(zeta, eta) = W(zeta)^T J_p W(eta) with
    J_p = [[0, I_p], [-I_p, 0]].  Returns (W, p)."""
    if phi.p != phi.q:
        raise NotSkewError("skew factorization needs square blocks")
    if not phi.is_skew():
        raise NotSkewError("two-variable matrix is not skew")
    p_half, t = skew_canonical_congruence(phi.mat)
    w = _congruence_factor(t, 2 * p_half, phi.p)
    _check_reconstruction(phi, w, _j_matrix(p_half), w)
    return w, p_half


def _congruence_factor(t: RatMatrix, n: int, cols: int) -> PolyMatrix:
    """The factor read off a congruence t^T Phi~ t = middle (+) 0: as
    Phi~ = t^-T (middle (+) 0) t^-1, it is the first n rows of t^-1."""
    return PolyMatrix.from_coeff_rows(t.inverse().take_rows(range(n)), cols)


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
