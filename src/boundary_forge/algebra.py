"""Exact scalar, polynomial, and matrix algebra over the rationals.

Everything in this module is computed with arbitrary-precision rational
arithmetic (`fractions.Fraction`, or Python integers over one common
denominator in the balance-trial arithmetic); no floating point enters
anywhere.  All
types are immutable after construction and all operations are pure
functions, so values can be shared freely.  `RatMatrix` and `PolyMatrix`
share one matrix body and differ only in their entry type and their own
methods.

The linear-algebra routines are written for "desk scale" inputs (matrices of
a few dozen rows at most) and favour exactness and deterministic pivoting
over asymptotic speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

__all__ = [
    "NEG_INF",
    "Poly",
    "PolyMatrix",
    "RatMatrix",
    "Inertia",
    "AllZeroError",
    "NotSymmetricError",
    "NotSkewError",
    "InconsistentSystemError",
    "UnderdeterminedSystemError",
    "as_rat",
    "full_rank_everywhere",
    "solve_linear",
    "inertia_congruence",
    "rank_factorization",
    "skew_canonical_congruence",
    "polynomial_kernel_basis",
]

NEG_INF = float("-inf")
"""Degree of the zero polynomial.

A deliberate non-integer sentinel: comparisons against real degrees work
(``NEG_INF < 0``) but accidental arithmetic can never produce a plausible
integer degree.
"""


class AllZeroError(ValueError):
    """Raised when an operation needs at least one nonzero polynomial."""


class NotSymmetricError(ValueError):
    """Raised when a symmetric matrix was required."""


class NotSkewError(ValueError):
    """Raised when a skew-symmetric matrix was required."""


class InconsistentSystemError(ValueError):
    """Linear system has no solution.  `witness` names an offending row."""

    def __init__(self, message: str, witness: str = ""):
        super().__init__(message)
        self.witness = witness


class UnderdeterminedSystemError(ValueError):
    """Linear system is solvable but not uniquely.  `dof` counts the freedom."""

    def __init__(self, message: str, dof: int = 0):
        super().__init__(message)
        self.dof = dof


def as_rat(value) -> Fraction:
    """Coerce an int, a string like ``"3/4"``, or a Fraction to a Fraction.

    Floats are rejected: exactness is the whole point of this package.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot coerce {value!r} of type {type(value).__name__} to an exact rational")


_ZERO = Fraction(0)
_ONE = Fraction(1)


class Poly:
    """Univariate polynomial with exact rational coefficients.

    Coefficients are stored low degree first with no trailing zeros; the
    zero polynomial is the empty coefficient tuple and reports degree
    ``NEG_INF``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [as_rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def const(cls, c) -> "Poly":
        return cls((as_rat(c),))

    @classmethod
    def variable(cls) -> "Poly":
        """The polynomial ``s``."""
        return cls((0, 1))

    # -- inspection --------------------------------------------------------

    @property
    def degree(self):
        """Degree of the polynomial; ``NEG_INF`` for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> Fraction:
        """Coefficient of ``s**k`` (zero when ``k`` exceeds the degree)."""
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else _ZERO

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise AllZeroError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly((other,))
        return None

    def __add__(self, other):
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        out = []
        _add_product(out, self.coeffs, other.coeffs)
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Poly.one()
        for _ in range(n):
            out = out * self
        return out

    def __divmod__(self, other):
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = len(other.coeffs) - 1
        lead = other.coeffs[-1]
        quot = [_ZERO] * max(len(rem) - d, 0)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            q = c / lead
            quot[i - d] = q
            for j, b in enumerate(other.coeffs):
                rem[i - d + j] -= q * b
        return Poly(quot), Poly(rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    # -- calculus and substitution ----------------------------------------

    def __call__(self, x) -> Fraction:
        """Evaluate at an exact rational point (Horner)."""
        x = as_rat(x)
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def deriv(self, order: int = 1) -> "Poly":
        if order < 0:
            raise ValueError("negative derivative order")
        cs = self.coeffs
        for _ in range(order):
            cs = tuple(Fraction(k) * cs[k] for k in range(1, len(cs)))
        return Poly(cs)

    def antideriv(self) -> "Poly":
        """Antiderivative with zero constant term."""
        return Poly((_ZERO,) + tuple(c / (k + 1) for k, c in enumerate(self.coeffs)))

    def integral(self, a, b) -> Fraction:
        """Exact definite integral over [a, b]."""
        anti = self.antideriv()
        return anti(b) - anti(a)

    def para(self) -> "Poly":
        """Substitute ``s -> -s``."""
        return Poly(tuple(-c if k % 2 else c for k, c in enumerate(self.coeffs)))

    def monic(self) -> "Poly":
        if self.is_zero:
            raise AllZeroError("cannot normalize the zero polynomial")
        lead = self.coeffs[-1]
        return Poly(tuple(c / lead for c in self.coeffs))

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other):
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("Poly", self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                term = str(c)
            else:
                var = "s" if k == 1 else f"s^{k}"
                if c == 1:
                    term = var
                elif c == -1:
                    term = f"-{var}"
                else:
                    term = f"{c}*{var}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    def __repr__(self):
        return f"Poly({self})"


def _as_poly(value) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction, str)):
        return Poly((as_rat(value),))
    raise TypeError(f"cannot coerce {value!r} to a polynomial entry")


def _add_product(acc: list, xs, ys, zero=_ZERO) -> None:
    """Add the product of the coefficient sequences `xs` and `ys` (low
    degree first) into the coefficient list `acc`, lengthening it with
    `zero` as needed and skipping the zero coefficients of `xs`."""
    if not xs or not ys:
        return
    if len(acc) < len(xs) + len(ys) - 1:
        acc.extend([zero] * (len(xs) + len(ys) - 1 - len(acc)))
    for i, a in enumerate(xs):
        if a:
            for j, b in enumerate(ys):
                acc[i + j] += a * b


def _dot(u, v) -> Poly:
    """Sum of the entrywise products of two sequences, as one polynomial
    built from one coefficient list; pairs with a zero entry add nothing."""
    acc = []
    for x, y in zip(u, v):
        xs = _as_poly(x).coeffs
        if xs:
            _add_product(acc, xs, _as_poly(y).coeffs)
    return Poly(acc)


def _derivatives(vec, depth: int) -> list[list[Poly]]:
    """Each entry of `vec` as a polynomial, with its first `depth`
    derivatives."""
    table = []
    for v in vec:
        ds = [_as_poly(v)]
        for _ in range(depth):
            ds.append(ds[-1].deriv())
        table.append(ds)
    return table


# integer trial arithmetic ----------------------------------------------------
#
# The randomized balance checks run on integers over one common denominator
# (Knuth, TAOCP vol. 2, 4.6.1): each operator, the middle matrix and each
# drawn trajectory is scaled once by the lcm of its denominators, every
# apply, dot, integral and endpoint evaluation stays in `int`, and each
# residual becomes one `Fraction`.


def _common_denominator(values) -> int:
    """Least common multiple of the denominators of the rationals `values`
    (1 for none)."""
    return math.lcm(*(v.denominator for v in values))


def _scaled(values, den: int) -> list[int]:
    """The rationals `values` times their common multiple `den`."""
    return [v.numerator * (den // v.denominator) for v in values]


def _int_vector(vec) -> tuple[list[list[int]], int]:
    """A vector of polynomials as integer coefficient lists (low degree
    first) over one positive denominator."""
    coeffs = [_as_poly(v).coeffs for v in vec]
    den = _common_denominator(c for cs in coeffs for c in cs)
    return [_scaled(cs, den) for cs in coeffs], den


def _int_dot(u, v) -> list[int]:
    """Sum of the entrywise products of two vectors of integer coefficient
    lists, as one coefficient list."""
    acc = []
    for xs, ys in zip(u, v):
        if xs and ys:
            _add_product(acc, xs, ys, 0)
    return acc


def _horner(cs, num: int, den: int, scale: int = 1) -> int:
    """``scale * den**(len(cs) - 1)`` times the value at ``num / den`` of the
    polynomial with integer coefficients `cs`, by homogeneous Horner."""
    acc = 0
    for c in reversed(cs):
        acc = acc * num + c * scale
        scale *= den
    return acc


def _int_integral(cs, alpha: Fraction, beta: Fraction) -> tuple[int, int]:
    """``(num, den)``, ``den > 0``, with ``num / den`` the integral over
    ``[alpha, beta]`` of the polynomial with integer coefficients `cs`.

    The antiderivative times ``k = lcm(1, ..., len(cs))`` has the integer
    coefficients ``c_i * k / (i + 1)`` of ``z**(i + 1)``.
    """
    n = len(cs)
    k = math.lcm(*range(1, n + 1))
    anti = [c * (k // (i + 1)) for i, c in enumerate(cs)]
    pa, qa = alpha.numerator, alpha.denominator
    pb, qb = beta.numerator, beta.denominator
    qa_n, qb_n = qa ** n, qb ** n
    return (pb * _horner(anti, pb, qb) * qa_n - pa * _horner(anti, pa, qa) * qb_n,
            k * qa_n * qb_n)


class _IntOperator:
    """A polynomial matrix ``P`` as a differential operator on integer
    coefficient lists.  Row ``i`` lists ``(j, k, c)`` for each nonzero
    coefficient of ``s**k`` in entry ``(i, j)``, with ``c`` that coefficient
    times the common denominator `den`."""

    __slots__ = ("rows", "den", "span")

    def __init__(self, p: "PolyMatrix"):
        self.den = _common_denominator(c for row in p.entries for e in row
                                       for c in e.coeffs)
        self.rows = tuple(
            tuple((j, k, c) for j, e in enumerate(row)
                  for k, c in enumerate(_scaled(e.coeffs, self.den)) if c)
            for row in p.entries)
        self.span = p.span

    def apply(self, derivs) -> list[list[int]]:
        """``den * P(d/dz) x`` from the table ``derivs[j][k]`` of the
        ``k``-th derivatives of an integer vector ``x``."""
        out = []
        for row in self.rows:
            acc = []
            for j, k, c in row:
                d = derivs[j][k]
                if len(acc) < len(d):
                    acc.extend([0] * (len(d) - len(acc)))
                for i, x in enumerate(d):
                    acc[i] += c * x
            out.append(acc)
        return out


class _Balance:
    """One balance law in integer form:

        int_alpha^beta (u1 . v2 + sign u2 . v1) dz - [w1^T M w2]_alpha^beta

    with ``u = U(d/dz) x``, ``v = V(d/dz) x`` and ``w = W(d/dz) x`` for a
    latent polynomial vector ``x``.  The three operators and the nonzero
    entries of the constant middle matrix ``M`` are turned into integers
    once, here.  The boundary vectors are evaluated at the two endpoints
    before they meet ``M``: evaluation at a point is a ring homomorphism, so
    this is exactly the endpoint difference of the polynomial bracket.
    """

    __slots__ = ("u", "v", "w", "cols", "depth", "middle", "middle_den",
                 "sign")

    def __init__(self, u: "PolyMatrix", v: "PolyMatrix", w: "PolyMatrix",
                 middle: "RatMatrix", sign: int = 1):
        self.u, self.v, self.w = _IntOperator(u), _IntOperator(v), _IntOperator(w)
        self.cols = u.cols
        self.depth = max(self.u.span, self.v.span, self.w.span)
        self.middle_den = _common_denominator(c for row in middle.entries
                                              for c in row)
        self.middle = tuple((i, j, c) for i, row in enumerate(middle.entries)
                            for j, c in enumerate(_scaled(row, self.middle_den))
                            if c)
        self.sign = sign

    def evaluate(self, latent) -> tuple:
        """``(u, v, w, den)`` of one latent: the integer coefficient lists
        of its three images, which are ``u / (U.den * den)`` and so on, and
        the latent's own common denominator ``den``."""
        if len(latent) != self.cols:
            raise ValueError("vector length does not match column count")
        xs, den = _int_vector(latent)
        derivs = []
        for cs in xs:
            ds = [cs]
            for _ in range(self.depth):
                cs = [k * c for k, c in enumerate(cs) if k]
                ds.append(cs)
            derivs.append(ds)
        return self.u.apply(derivs), self.v.apply(derivs), self.w.apply(derivs), den

    def interior(self, integrand: list[int], den: int, alpha, beta
                 ) -> tuple[int, int]:
        """``(num, den)`` of the integral over ``[alpha, beta]`` of an
        integrand built from images ``u`` and ``v`` of latents whose
        denominators multiply to `den`."""
        num, iden = _int_integral(integrand, alpha, beta)
        return num, iden * self.u.den * self.v.den * den

    def values(self, w, den: int, point: Fraction) -> tuple[list[int], int]:
        """``(xs, d)`` with ``xs[i] / d`` entry ``i`` at `point` of the
        boundary vector of a latent with denominator `den`."""
        p, q = point.numerator, point.denominator
        power = max(max((len(cs) for cs in w), default=0) - 1, 0)
        return ([_horner(cs, p, q, q ** (power + 1 - len(cs))) for cs in w],
                self.w.den * den * q ** power)

    def bracket(self, x, y) -> tuple[int, int]:
        """``(num, den)`` of ``x^T M y`` for values ``x = (xs, d)`` and
        ``y``."""
        (xs, dx), (ys, dy) = x, y
        return (sum(c * xs[i] * ys[j] for i, j, c in self.middle),
                self.middle_den * dx * dy)

    def residual(self, first, second, alpha: Fraction, beta: Fraction
                 ) -> Fraction:
        """The exact residual of the balance for two evaluated latents."""
        u1, v1, w1, d1 = first
        u2, v2, w2, d2 = second
        integrand = _int_dot(u1, v2)
        swapped = _int_dot(u2, v1)
        if len(integrand) < len(swapped):
            integrand.extend([0] * (len(swapped) - len(integrand)))
        for i, c in enumerate(swapped):
            integrand[i] += self.sign * c
        at_beta = self.bracket(self.values(w1, d1, beta),
                               self.values(w2, d2, beta))
        at_alpha = self.bracket(self.values(w1, d1, alpha),
                                self.values(w2, d2, alpha))
        return Fraction(*_difference(
            self.interior(integrand, d1 * d2, alpha, beta),
            _difference(at_beta, at_alpha)))


def _difference(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """``x - y`` for ``(num, den)`` pairs with positive denominators."""
    return x[0] * y[1] - y[0] * x[1], x[1] * y[1]


class _Matrix:
    """Body shared by :class:`RatMatrix` and :class:`PolyMatrix`.

    A subclass names its entry coercion `_coerce` and the scalar types
    `_scalars` it multiplies by; construction, arithmetic, stacking and the
    protocol methods below are written once in terms of those two and
    ``type(self)``.  Operands of different matrix classes never mix: each
    binary operation returns ``NotImplemented`` for them.
    """

    __slots__ = ()

    def __init__(self, rows: int, cols: int, entries: Sequence[Sequence]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        coerce = self._coerce
        ents = tuple(tuple(coerce(v) for v in row) for row in entries)
        if len(ents) != rows or any(len(r) != cols for r in ents):
            raise ValueError(f"entry grid does not match shape {rows}x{cols}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", ents)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]):
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        return cls(len(rows), ncols, rows)

    @classmethod
    def zero(cls, rows: int, cols: int):
        z = cls._coerce(0)
        return cls(rows, cols, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int):
        z, one = cls._coerce(0), cls._coerce(1)
        return cls(n, n, [[one if i == j else z for j in range(n)] for i in range(n)])

    # -- structure ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def transpose(self):
        return type(self)(self.cols, self.rows,
                          [[self.entries[i][j] for i in range(self.rows)]
                           for j in range(self.cols)])

    @property
    def T(self):
        return self.transpose()

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.entries)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]):
        return type(self)(len(row_idx), len(col_idx),
                          [[self.entries[i][j] for j in col_idx] for i in row_idx])

    def take_rows(self, row_idx: Sequence[int]):
        return self.submatrix(row_idx, range(self.cols))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        return type(self)(self.rows, self.cols,
                          [[a + b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return type(self)(self.rows, self.cols, [[-v for v in row] for row in self.entries])

    def __mul__(self, other):
        cls = type(self)
        if isinstance(other, cls):
            if self.cols != other.rows:
                raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
            # row i of the product sums a * (row k of other) over the
            # nonzero entries a = self[i][k]; only nonzero b are visited
            nonzero = [[(j, b) for j, b in enumerate(row) if b]
                       for row in other.entries]
            zero = cls._coerce(0)
            out = []
            for row in self.entries:
                acc = [zero] * other.cols
                for a, pairs in zip(row, nonzero):
                    if a:
                        for j, b in pairs:
                            acc[j] += a * b
                out.append(acc)
            return cls(self.rows, other.cols, out)
        if isinstance(other, cls._scalars):
            c = cls._coerce(other)
            return cls(self.rows, self.cols, [[v * c for v in row] for row in self.entries])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, self._scalars):
            return self * other
        return NotImplemented

    # -- stacking ----------------------------------------------------------

    @classmethod
    def hstack(cls, mats: Sequence):
        mats = list(mats)
        if not mats:
            raise ValueError("hstack of nothing")
        rows = mats[0].rows
        if any(m.rows != rows for m in mats):
            raise ValueError("hstack needs equal row counts")
        return cls(rows, sum(m.cols for m in mats),
                   [[v for m in mats for v in m.entries[i]] for i in range(rows)])

    @classmethod
    def vstack(cls, mats: Sequence):
        mats = list(mats)
        if not mats:
            raise ValueError("vstack of nothing")
        cols = mats[0].cols
        if any(m.cols != cols for m in mats):
            raise ValueError("vstack needs equal column counts")
        return cls(sum(m.rows for m in mats), cols,
                   [row for m in mats for row in m.entries])

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.shape == other.shape and self.entries == other.entries

    def __hash__(self):
        return hash((type(self).__name__, self.shape, self.entries))

    def __str__(self):
        return "[" + "; ".join("[" + ", ".join(str(v) for v in row) + "]"
                               for row in self.entries) + "]"

    def __repr__(self):
        return f"{type(self).__name__}({self.rows}x{self.cols} {self})"


class RatMatrix(_Matrix):
    """Immutable matrix of exact rationals.  Zero-sized dimensions are legal."""

    __slots__ = ("rows", "cols", "entries")
    _coerce = staticmethod(as_rat)
    _scalars = (int, Fraction)

    @classmethod
    def diag(cls, values: Sequence) -> "RatMatrix":
        vals = [as_rat(v) for v in values]
        n = len(vals)
        return cls(n, n, [[vals[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows) for j in range(i + 1, self.cols))

    def is_skew(self) -> bool:
        return self.rows == self.cols and all(
            self.entries[i][j] == -self.entries[j][i]
            for i in range(self.rows) for j in range(i, self.cols))

    def max_abs(self) -> Fraction:
        """Largest absolute entry (zero for empty matrices)."""
        return max((abs(v) for row in self.entries for v in row), default=_ZERO)

    @classmethod
    def block_diag(cls, mats: Sequence["RatMatrix"]) -> "RatMatrix":
        mats = list(mats)
        rows = sum(m.rows for m in mats)
        cols = sum(m.cols for m in mats)
        grid = [[_ZERO] * cols for _ in range(rows)]
        r0 = c0 = 0
        for m in mats:
            for i in range(m.rows):
                for j in range(m.cols):
                    grid[r0 + i][c0 + j] = m.entries[i][j]
            r0 += m.rows
            c0 += m.cols
        return cls(rows, cols, grid)

    # -- exact linear algebra ----------------------------------------------

    def rank(self) -> int:
        _, pivots = _rref([list(r) for r in self.entries], self.cols)
        return len(pivots)

    def inverse(self) -> "RatMatrix":
        if self.rows != self.cols:
            raise ValueError("only square matrices invert")
        n = self.rows
        aug = [list(self.entries[i]) + [_ONE if i == j else _ZERO for j in range(n)]
               for i in range(n)]
        reduced, pivots = _rref(aug, n)
        if len(pivots) != n:
            raise ValueError("matrix is singular")
        return RatMatrix(n, n, [row[n:] for row in reduced])


class PolyMatrix(_Matrix):
    """Immutable matrix with polynomial entries, used both as a plain matrix
    of polynomials in an indeterminate ``s`` and as a matrix differential
    operator via :meth:`apply`.
    """

    __slots__ = ("rows", "cols", "entries")
    _coerce = staticmethod(_as_poly)
    _scalars = (Poly, int, Fraction)

    @classmethod
    def from_const(cls, mat: RatMatrix) -> "PolyMatrix":
        return cls(mat.rows, mat.cols, [[Poly.const(v) for v in row] for row in mat.entries])

    @property
    def degree(self):
        """Maximal entry degree; ``NEG_INF`` for a zero (or empty) matrix."""
        return max((e.degree for row in self.entries for e in row), default=NEG_INF)

    def para(self) -> "PolyMatrix":
        """Entrywise substitution ``s -> -s``."""
        return PolyMatrix(self.rows, self.cols,
                          [[e.para() for e in row] for row in self.entries])

    def coeff(self, k: int) -> RatMatrix:
        """Matrix coefficient of ``s**k``."""
        return RatMatrix(self.rows, self.cols,
                         [[e.coeff(k) for e in row] for row in self.entries])

    @property
    def span(self) -> int:
        """Maximal entry degree, 0 for a zero (or empty) matrix: the last
        power that :meth:`coeff_rows` needs."""
        return max((e.degree for row in self.entries for e in row if e.coeffs),
                   default=0)

    def coeff_rows(self, span: int) -> RatMatrix:
        """The stacked coefficients ``[P_0 P_1 ... P_span]``: entry
        ``(i, k * cols + j)`` is the coefficient of ``s**k`` in entry
        ``(i, j)``.  Linear dependence among the rows does not depend on
        `span` once it reaches :attr:`span`."""
        return RatMatrix(self.rows, (span + 1) * self.cols,
                         [[e.coeff(k) for k in range(span + 1) for e in row]
                          for row in self.entries])

    @classmethod
    def from_coeff_rows(cls, rows: RatMatrix, cols: int) -> "PolyMatrix":
        """The matrix with `cols` columns whose :meth:`coeff_rows` are
        `rows`."""
        if cols == 0:
            return cls.zero(rows.rows, 0)
        return cls(rows.rows, cols, [[Poly(row[j::cols]) for j in range(cols)]
                                     for row in rows.entries])

    # -- operator action ----------------------------------------------------

    def apply(self, vec: Sequence[Poly]) -> tuple[Poly, ...]:
        """Apply this matrix as the differential operator ``P(d/dz)`` to a
        vector of polynomial functions of ``z``.

        Each output entry sums ``c * d`` over the nonzero coefficients ``c``
        of its row and the matching derivatives ``d`` in one coefficient
        list, and becomes one polynomial.
        """
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        derivs = _derivatives(vec, self.span)
        out = []
        for row in self.entries:
            acc = []
            for e, ds in zip(row, derivs):
                for c, d in zip(e.coeffs, ds):
                    if c:
                        _add_product(acc, (c,), d.coeffs)
            out.append(Poly(acc))
        return tuple(out)

    # -- determinants --------------------------------------------------------

    def det(self) -> Poly:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return Poly.one()
        if n == 1:
            return self.entries[0][0]
        # cofactor expansion along the first column, O(n!); no validation
        # step calls it (full_rank_everywhere column-reduces instead)
        total = Poly.zero()
        for i in range(n):
            a = self.entries[i][0]
            if a.is_zero:
                continue
            minor = self.submatrix([r for r in range(n) if r != i], range(1, n))
            term = a * minor.det()
            total = total + term if i % 2 == 0 else total - term
        return total


@dataclass(frozen=True)
class Inertia:
    """Signature of a symmetric rational matrix: counts of positive,
    negative, and zero eigenvalues (computed exactly by congruence, never
    by rooting)."""

    positive: int
    negative: int
    zero: int

    @property
    def dim(self) -> int:
        return self.positive + self.negative + self.zero

    @property
    def is_balanced(self) -> bool:
        """Equal positive and negative counts."""
        return self.positive == self.negative

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.positive, self.negative, self.zero)

    def __str__(self):
        return f"({self.positive}, {self.negative}, {self.zero})"


# ---------------------------------------------------------------------------
# module-level exact linear algebra
# ---------------------------------------------------------------------------


def full_rank_everywhere(p: PolyMatrix) -> bool:
    """Whether ``p`` (with rows <= cols) has full row rank at every complex
    point.

    Exact criterion: the gcd of all maximal minors is a nonzero constant.
    A common polynomial factor of all maximal minors would vanish at one of
    its complex roots, dropping the rank there; conversely a constant gcd
    leaves no such point.

    The gcd is found by a Euclidean column reduction over Q[s], with no
    minor formed.  For each row ``i``, the remaining column with the
    lowest-degree entry in row ``i`` is the pivot; every other remaining
    column ``c`` becomes ``c - (c[i] // pivot[i]) * pivot`` (rows above ``i``
    are already zero) and is scaled to coprime integer coefficients, which
    keeps the rationals from swelling (to 30,000-bit coefficients for a
    dense random 12 x 12 matrix of quadratics without it).  Once a single
    column is left nonzero in row ``i``, it is set aside.  The columns set
    aside form a lower triangular ``L``; the rest are zero.

    Proof.  Each step, the scaling by a nonzero constant included,
    multiplies ``p`` on the right by a unimodular ``V`` (polynomial, with a
    polynomial inverse).  By Cauchy-Binet every maximal minor of ``p V`` is
    a polynomial combination of maximal minors of ``p``, and with ``V^-1``
    the other way round, so both generate the same ideal and have the same
    gcd.  The maximal minors of ``[L 0]`` are ``det L``, the product of the
    pivots, and zeros, so ``p`` passes exactly when every pivot is a nonzero
    constant.  If no remaining column is nonzero in row ``i``, the remaining
    columns lie in the span of the last ``rows - i - 1`` coordinates, and
    every maximal minor takes at least ``rows - i`` of them, so every
    maximal minor is zero and ``p`` fails.
    """
    if p.rows > p.cols:
        raise ValueError("full_rank_everywhere expects rows <= cols")
    cols = [list(col) for col in zip(*p.entries)]
    for i in range(p.rows):
        while True:
            live = [c for c in cols if not c[i].is_zero]
            if not live:
                return False
            pivot = min(live, key=lambda c: c[i].degree)
            if len(live) == 1:
                break
            for c in live:
                if c is not pivot:
                    q, c[i] = divmod(c[i], pivot[i])
                    for k in range(i + 1, p.rows):
                        c[k] = c[k] - q * pivot[k]
                    _make_primitive(c)
        if pivot[i].degree != 0:
            return False
        cols = [c for c in cols if c is not pivot]
    return True


def _make_primitive(col: list) -> None:
    """Scale a column of polynomials in place to coprime integer
    coefficients."""
    coeffs = [x for e in col for x in e.coeffs]
    if coeffs:
        scale = Fraction(math.lcm(*(x.denominator for x in coeffs)),
                         math.gcd(*(x.numerator for x in coeffs)))
        if scale != 1:
            col[:] = [e * scale for e in col]


def _rref(grid: list[list[Fraction]], limit_cols: int) -> tuple[list[list[Fraction]], list[int]]:
    """In-place reduced row echelon form over Fraction.

    Eliminates on the first `limit_cols` columns only (anything beyond rides
    along, which is how augmented solves reuse this).  Returns the grid and
    the pivot column list.  Pivoting is deterministic: first nonzero entry
    scanning down each column in order.
    """
    nrows = len(grid)
    pivots: list[int] = []
    r = 0
    for c in range(limit_cols):
        piv = next((i for i in range(r, nrows) if grid[i][c] != 0), None)
        if piv is None:
            continue
        grid[r], grid[piv] = grid[piv], grid[r]
        # zeros and unit pivots are left as they are: the same values with
        # fewer Fraction operations
        if grid[r][c] != 1:
            inv = 1 / grid[r][c]
            grid[r] = [v * inv if v else v for v in grid[r]]
        for i in range(nrows):
            if i != r and grid[i][c] != 0:
                f = grid[i][c]
                grid[i] = [a - f * b if b else a for a, b in zip(grid[i], grid[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return grid, pivots


def solve_linear(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Solve ``a @ x = b`` exactly.

    Returns the unique solution, raises :class:`InconsistentSystemError`
    when none exists (the witness names an unsatisfiable equation), and
    :class:`UnderdeterminedSystemError` when the solution is not unique
    (``dof`` counts the free variables).
    """
    if a.rows != b.rows:
        raise ValueError("left-hand side and right-hand side row counts differ")
    aug = [list(ra) + list(rb) for ra, rb in zip(a.entries, b.entries)]
    if not aug and a.cols:
        # zero equations pin down no unknown
        raise UnderdeterminedSystemError(
            f"no equations constrain {a.cols} unknowns", dof=a.cols)
    reduced, pivots = _rref(aug, a.cols)
    return _unique_solution(reduced, pivots, a.cols, a.cols, a.cols + b.cols)


def _unique_solution(reduced: list[list[Fraction]], pivots: list[int],
                     unknowns: int, start: int, stop: int) -> RatMatrix:
    """Solution for the right-hand-side columns ``start:stop`` of an
    augmented system that :func:`_rref` reduced on its first ``unknowns``
    columns, raising as :func:`solve_linear` does.

    The checks read only those columns, so one reduction serves several
    right-hand sides, each with its own consistency check.
    """
    rank = len(pivots)
    for row in reduced[rank:]:
        tail = row[start:stop]
        if any(v != 0 for v in tail):
            raise InconsistentSystemError(
                "system has no solution",
                witness=f"row reduces to 0 = {[str(v) for v in tail]}")
    if rank < unknowns:
        raise UnderdeterminedSystemError(
            f"solution space has dimension {unknowns - rank}", dof=unknowns - rank)
    # full rank: the pivots are the columns 0, 1, ..., unknowns - 1 in order
    return RatMatrix(unknowns, stop - start,
                     [row[start:stop] for row in reduced[:unknowns]])


def inertia_congruence(s: RatMatrix) -> tuple[Inertia, RatMatrix]:
    """Exact congruence diagonalization of a symmetric rational matrix.

    Returns ``(inertia, t)`` with ``t`` invertible and ``t.T @ s @ t``
    block-diagonal consisting of nonzero 1x1 entries and 2x2 hyperbolic
    blocks ``[[0, c], [c, 0]]``, with the zero block trailing.  Hyperbolic
    blocks (one positive and one negative direction each) are kept as-is so
    that no square roots are needed; the signature is read off exactly.

    Pivot scan order is deterministic: first nonzero diagonal entry, else
    first nonzero off-diagonal pair in lexicographic order.
    """
    inertia, t, _ = _congruence_reduce(s)
    return inertia, t


def _congruence_reduce(s: RatMatrix) -> tuple[Inertia, RatMatrix, RatMatrix]:
    """:func:`inertia_congruence` plus the reduced matrix ``t.T @ s @ t``.

    Every step applies one elementary column operation ``E`` to ``t`` and
    the congruence ``E.T @ a @ E`` to the working copy ``a`` of ``s``, so
    ``a == t.T @ s @ t`` holds exactly after each step.
    """
    if not s.is_symmetric():
        raise NotSymmetricError("inertia_congruence requires a symmetric matrix")
    n = s.rows
    a = [list(row) for row in s.entries]
    t = [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]

    def congruence_swap(i: int, j: int) -> None:
        if i == j:
            return
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]
            t[r][i], t[r][j] = t[r][j], t[r][i]
        a[i], a[j] = a[j], a[i]

    def congruence_addmul(dst: int, src: int, c: Fraction) -> None:
        # column then matching row update: a <- E^T a E with E adding
        # c*col_src; a zero source entry adds nothing
        for r in range(n):
            if a[r][src]:
                a[r][dst] += c * a[r][src]
            if t[r][src]:
                t[r][dst] += c * t[r][src]
        for r in range(n):
            if a[src][r]:
                a[dst][r] += c * a[src][r]

    pos = neg = 0
    k = 0
    while k < n:
        piv = next((i for i in range(k, n) if a[i][i] != 0), None)
        if piv is not None:
            congruence_swap(k, piv)
            d = a[k][k]
            for j in range(k + 1, n):
                if a[k][j] != 0:
                    congruence_addmul(j, k, -a[k][j] / d)
            if d > 0:
                pos += 1
            else:
                neg += 1
            k += 1
            continue
        pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                     if a[i][j] != 0), None)
        if pair is None:
            break
        i, j = pair
        congruence_swap(k, i)
        if j == k:
            j = i  # the swap moved the partner
        congruence_swap(k + 1, j)
        c = a[k][k + 1]
        for col in range(k + 2, n):
            c1, c2 = a[k + 1][col], a[k][col]
            if c1:
                congruence_addmul(col, k, -c1 / c)
            if c2:
                congruence_addmul(col, k + 1, -c2 / c)
        pos += 1
        neg += 1
        k += 2
    return Inertia(pos, neg, n - pos - neg), RatMatrix(n, n, t), RatMatrix(n, n, a)


def rank_factorization(m: RatMatrix) -> tuple[RatMatrix, RatMatrix]:
    """Full-rank factorization ``m = x.T @ y`` with inner dimension rank(m).

    ``x`` stacks the pivot columns of ``m`` (transposed) and ``y`` the
    nonzero rows of the reduced row echelon form, so both have full row
    rank.
    """
    reduced, pivots = _rref([list(r) for r in m.entries], m.cols)
    k = len(pivots)
    x = RatMatrix(k, m.rows, [[m.entries[i][c] for i in range(m.rows)] for c in pivots])
    y = RatMatrix(k, m.cols, reduced[:k])
    return x, y


def skew_canonical_congruence(s: RatMatrix) -> tuple[int, RatMatrix]:
    """Exact congruence of a skew-symmetric rational matrix to the canonical
    form ``blockdiag([[0, I_p], [-I_p, 0]], 0)``.

    Returns ``(p, t)`` with ``t`` invertible and ``t.T @ s @ t`` in canonical
    form.  Works by symplectic Gram-Schmidt over the rationals, so no square
    roots appear.
    """
    if not s.is_skew():
        raise NotSkewError("skew_canonical_congruence requires a skew matrix")
    n = s.rows
    remaining: list[list[Fraction]] = [
        [_ONE if i == j else _ZERO for i in range(n)] for j in range(n)]
    # gram[k][l] = remaining[k]^T s remaining[l], kept instead of re-formed
    gram = [list(row) for row in s.entries]
    us: list[list[Fraction]] = []
    vs: list[list[Fraction]] = []
    while True:
        found = next(((ii, jj) for ii in range(len(remaining))
                      for jj in range(ii + 1, len(remaining))
                      if gram[ii][jj] != 0), None)
        if not found:
            break
        ii, jj = found
        c = gram[ii][jj]
        u = remaining[ii]
        v = [x / c for x in remaining[jj]]
        rest = [k for k in range(len(remaining)) if k not in found]
        # w_k -> w_k - bu_k v + bv_k u with bu_k = gram[ii][k] and
        # bv_k = gram[jj][k] / c; as u^T s v = 1 and s is skew, the pairings
        # change by bv_k bu_l - bu_k bv_l.  A vector with bu_k = bv_k = 0
        # stays, and so do its pairings, so only the moved ones are updated.
        moved = [(k, gram[ii][k], gram[jj][k] / c) for k in rest
                 if gram[ii][k] or gram[jj][k]]
        for k, bu_k, bv_k in moved:
            remaining[k] = [wx - bu_k * vx + bv_k * ux
                            for wx, vx, ux in zip(remaining[k], v, u)]
            row = gram[k]
            for l, bu_l, bv_l in moved:
                row[l] += bv_k * bu_l - bu_k * bv_l
        remaining = [remaining[k] for k in rest]
        gram = [[gram[k][l] for l in rest] for k in rest]
        us.append(u)
        vs.append(v)
    p = len(us)
    cols = us + vs + remaining
    t = RatMatrix(n, n, [[cols[j][i] for j in range(n)] for i in range(n)])
    return p, t


def polynomial_kernel_basis(g: PolyMatrix, degree: int) -> tuple[tuple[Poly, ...], ...]:
    """Basis of the space of polynomial vector functions ``e(z)`` of degree
    at most ``degree`` with ``g(d/dz) e = 0``.

    Sets up the coefficient equations exactly and extracts the nullspace in
    the deterministic free-variable basis of the reduced echelon form.
    Returns a tuple of vectors, each a tuple of polynomials in ``z``.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    m = g.cols
    nvars = m * (degree + 1)  # unknown c[j][t]: coefficient of z^t in component j

    # falling-factorial table: d^k/dz^k z^t = t!/(t-k)! z^(t-k)
    def ff(t: int, k: int) -> Fraction:
        out = _ONE
        for i in range(k):
            out *= t - i
        return out

    rows = []
    for i in range(g.rows):
        # row i of g applied to e, collected by output power of z
        row_coeffs: dict[int, list[Fraction]] = {}
        for j in range(m):
            entry = g.entries[i][j]
            for k, c in enumerate(entry.coeffs):
                if c == 0:
                    continue
                for t in range(k, degree + 1):
                    u = t - k
                    row = row_coeffs.setdefault(u, [_ZERO] * nvars)
                    row[j * (degree + 1) + t] += c * ff(t, k)
        for u in sorted(row_coeffs):
            rows.append(row_coeffs[u])
    reduced, pivots = _rref(rows, nvars) if rows else ([], [])
    pivot_set = set(pivots)
    free_cols = [c for c in range(nvars) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        vec = [_ZERO] * nvars
        vec[fc] = _ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        comps = tuple(Poly(vec[j * (degree + 1):(j + 1) * (degree + 1)]) for j in range(m))
        basis.append(comps)
    return tuple(basis)
