"""Test-only reference implementations, kept slow and obvious on purpose.

`full_rank_by_minors` is the maximal-minor enumeration that
`full_rank_everywhere` used before its column reduction: C(cols, rows)
cofactor determinants and their gcd.  It is exponential in the row count,
so the tests call it on at most five rows.

`partition_search_exhaustive` is the swap-set search that
`partition_search` used before it pruned by linear independence: a full
`realize` on every subset of the ports, in `combinations` order, up to 2^m
calls.  The tests call it on at most six ports.

`lagrange_middle_by_trial` is `realize` on a state/effort structure as it
was before the middle was read off C and D: two `solve_linear` calls, one
per equation, then `verify_realization_structure` on each middle
candidate until one passes.

`poly_gcd` is the monic gcd that `full_rank_by_minors` takes of the
minors, and `skew_congruence_by_bilinears` is the symplectic Gram-Schmidt
that `skew_canonical_congruence` ran before it kept the Gram matrix of the
remaining vectors: it pairs them through S afresh for every pivot.

`BlockTwoVar`, `mul_zeta_plus_eta_by_blocks` and
`div_zeta_plus_eta_by_blocks` are the two-variable arithmetic as it was
before `TwoVarPolyMatrix` stored its coefficient matrix: a dict of nonzero
p x q blocks keyed by exponent pair, with `outer`, `+`, `swap_transpose`,
the restriction `at_zeta_minus_eta` and the division each written block by
block.

`derivative_rule_check`, `concatenation_compatible`, `integrate_pairing`,
`check_dirac_form` and `check_power_balance` were public functions of the
package with no caller outside the tests.

`dense_matmul`, `dense_apply` and `dense_dot` are `_Matrix.__mul__`,
`PolyMatrix.apply` and `algebra._dot` as they were before they visited
only nonzero entries: every product of every row-column sum, zeros
included, and a new polynomial for every term of `apply` and `_dot`.

`skew_congruence_full_update` and `congruence_reduce_full_update` are
`skew_canonical_congruence` and `algebra._congruence_reduce` as they were
before they skipped zero updates: every remaining vector and every Gram
entry updated after each pivot, and every row of an elementary congruence
step visited, zero source entries included.

`fraction_balance_residual` and `fraction_power_trial` are the trial
residuals as they were before the trials ran on integers: every apply, dot,
integral and endpoint evaluation in `Fraction`s, with the middle matrix
scanned entry by entry.  `dirac_triple`, `storage_triple` and
`constrained_triple` build their (u, v, w) triples, and `storage_middle`
and `constrained_middle` their middle matrices.
"""

import itertools
import time
from fractions import Fraction
from itertools import combinations

from boundary_forge import (
    AllZeroError,
    BoundaryStructure,
    DimensionMismatchError,
    InconsistentSystemError,
    Inertia,
    LagrangeBoundary,
    NotDivisibleError,
    Poly,
    PolyMatrix,
    RatMatrix,
    TwoVarPolyMatrix,
    UnderdeterminedSystemError,
    VerificationReport,
    bdf_apply,
    mul_zeta_plus_eta,
    solve_linear,
)
from boundary_forge.realize import (
    NoneFoundError,
    NonUniqueSolutionError,
    Realization,
    UnsolvableError,
    _SwapSet,
    realize,
    verify_realization_structure,
)
from boundary_forge.algebra import (NotSkewError, NotSymmetricError,
                                    _derivatives, _dot)
from boundary_forge.dirac import DEFAULT_SPLIT_TOLERANCE, SplitToleranceError
from boundary_forge.harness import (
    _dirac_balance,
    _optional_split,
    _power_trial,
    _single_check,
)
from boundary_forge.twovar import _j_matrix


def poly_gcd(polys) -> Poly:
    """Monic greatest common divisor of a collection of polynomials.

    Zero polynomials are ignored; if every input is zero an
    :class:`AllZeroError` is raised.
    """
    nonzero = [p for p in polys if not p.is_zero]
    if not nonzero:
        raise AllZeroError("gcd of all-zero polynomial collection")
    g = nonzero[0]
    for p in nonzero[1:]:
        a, b = g, p
        while not b.is_zero:
            a, b = b, a % b
        g = a
        if g.degree == 0:
            break
    return g.monic()


def full_rank_by_minors(p: PolyMatrix) -> bool:
    """Whether ``p`` (with rows <= cols) has full row rank at every complex
    point.

    Exact criterion: the gcd of all maximal minors is a nonzero constant.
    A common polynomial factor of all maximal minors would vanish at one of
    its complex roots, dropping the rank there; conversely a constant gcd
    leaves no such point.
    """
    if p.rows > p.cols:
        raise ValueError("full_rank_everywhere expects rows <= cols")
    if p.rows == 0:
        return True
    minors = []
    for cols in itertools.combinations(range(p.cols), p.rows):
        d = p.submatrix(range(p.rows), cols).det()
        if not d.is_zero:
            minors.append(d)
            if d.degree == 0:
                return True
    if not minors:
        return False
    return poly_gcd(minors).degree == 0


def partition_search_exhaustive(structure) -> tuple[int, ...]:
    """Smallest swap set (ties broken lexicographically) for which
    :func:`realize` succeeds with a unique solution.

    Exhaustive over all subsets of ports; desk-scale port counts keep this
    cheap.  Raises :class:`NoneFoundError` carrying every witness when no
    subset works, which would contradict the existence claim for these
    structures and is worth surfacing loudly.  The returned tuple also
    carries the accepted :class:`Realization` as `.realization`.
    """
    if not isinstance(structure, (BoundaryStructure, LagrangeBoundary)):
        raise TypeError(f"cannot realize {type(structure).__name__}")
    m = structure.m
    witnesses = []
    for size in range(m + 1):
        for subset in combinations(range(1, m + 1), size):
            try:
                realization = realize(structure, swap=subset)
            except (UnsolvableError, NonUniqueSolutionError) as exc:
                witnesses.append((subset, str(exc)))
                continue
            found = _SwapSet(subset)
            found.realization = realization
            return found
    raise NoneFoundError(tuple(witnesses))


def lagrange_middle_by_trial(structure: LagrangeBoundary, swap=()) -> Realization:
    """Realization of a state/effort structure whose middle is the first
    of -J_p, +J_p that passes `verify_realization_structure`."""
    swap = tuple(sorted(set(swap)))
    rows = [(e, x) if i + 1 in swap else (x, e) for i, (x, e) in
            enumerate(zip(structure.rep.N_x.entries, structure.rep.N_e.entries))]
    u = PolyMatrix.from_rows([a for a, _ in rows])
    y = PolyMatrix.from_rows([b for _, b in rows])
    w = structure.W
    n, m = w.rows, u.rows
    sw = Poly.variable() * w
    stack = PolyMatrix.vstack([w, u])
    span = max((int(x.degree) for x in (stack, sw, y) if x.degree >= 0),
               default=0)
    coeffs = RatMatrix.hstack([stack.coeff(k) for k in range(span + 1)])

    def match(rhs: PolyMatrix, label: str) -> RatMatrix:
        rhs_coeffs = RatMatrix.hstack([rhs.coeff(k) for k in range(span + 1)])
        try:
            solution = solve_linear(coeffs.transpose(), rhs_coeffs.transpose())
        except InconsistentSystemError as exc:
            raise UnsolvableError(
                f"coefficient matching for {label} has no solution "
                f"with swap {list(swap)}", witness=exc.witness) from exc
        except UnderdeterminedSystemError as exc:
            raise NonUniqueSolutionError(
                f"coefficient matching for {label} has {exc.dof} degrees of "
                f"freedom with swap {list(swap)}", dof=exc.dof) from exc
        return solution.transpose()

    if n == 0:
        a, b = RatMatrix.zero(0, 0), RatMatrix.zero(0, m)
    else:
        ab = match(sw, "the state equation")
        a = ab.submatrix(range(n), range(n))
        b = ab.submatrix(range(n), range(n, n + m))
    cd = match(y, "the output equation")
    c = cd.submatrix(range(m), range(n))
    d = cd.submatrix(range(m), range(n, n + m))
    j_p = _j_matrix(structure.p)
    for middle in ([-j_p, j_p] if structure.p else [j_p]):
        candidate = Realization(a, b, c, d, middle, swap, "lagrange", w, u, y)
        if verify_realization_structure(candidate).all_pass:
            return candidate
    raise UnsolvableError(
        f"no constant skew middle matrix validates the structure identities "
        f"with swap {list(swap)}; exchanging only part of a symplectic port "
        f"pairing has no realization in this form")


def skew_congruence_by_bilinears(s: RatMatrix) -> tuple[int, RatMatrix]:
    """``(p, t)`` with ``t.T @ s @ t = blockdiag([[0, I_p], [-I_p, 0]], 0)``
    by symplectic Gram-Schmidt, every pairing formed as ``x^T s y``."""
    def pair(x, y):
        return sum(xi * sij * yj for xi, row in zip(x, s.entries)
                   for sij, yj in zip(row, y))

    n = s.rows
    remaining = [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]
    us, vs = [], []
    while True:
        found = next(((ii, jj) for ii in range(len(remaining))
                      for jj in range(ii + 1, len(remaining))
                      if pair(remaining[ii], remaining[jj]) != 0), None)
        if found is None:
            break
        ii, jj = found
        v = remaining.pop(jj)
        u = remaining.pop(ii)
        c = pair(u, v)
        v = [x / c for x in v]
        new_rest = []
        for w in remaining:
            bu, bv = pair(u, w), pair(v, w)
            new_rest.append([wx - bu * vx + bv * ux
                             for wx, vx, ux in zip(w, v, u)])
        remaining = new_rest
        us.append(u)
        vs.append(v)
    cols = us + vs + remaining
    return len(us), RatMatrix(n, n, [[col[i] for col in cols] for i in range(n)])


def skew_congruence_full_update(s: RatMatrix) -> tuple[int, RatMatrix]:
    """``(p, t)`` with ``t.T @ s @ t = blockdiag([[0, I_p], [-I_p, 0]], 0)``
    by symplectic Gram-Schmidt over a kept Gram matrix, updating every
    remaining vector and pairing after each pivot."""
    if not s.is_skew():
        raise NotSkewError("skew_canonical_congruence requires a skew matrix")
    n = s.rows
    remaining = [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]
    # gram[k][l] = remaining[k]^T s remaining[l], kept instead of re-formed
    gram = [list(row) for row in s.entries]
    us, vs = [], []
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
        bu = [gram[ii][k] for k in rest]
        bv = [gram[jj][k] / c for k in rest]
        # w_k -> w_k - bu_k v + bv_k u; as u^T s v = 1 and s is skew, the
        # pairings change by bv_k bu_l - bu_k bv_l
        remaining = [[wx - bu_k * vx + bv_k * ux
                      for wx, vx, ux in zip(remaining[k], v, u)]
                     for k, bu_k, bv_k in zip(rest, bu, bv)]
        gram = [[gram[k][l] + bv_k * bu_l - bu_k * bv_l
                 for l, bu_l, bv_l in zip(rest, bu, bv)]
                for k, bu_k, bv_k in zip(rest, bu, bv)]
        us.append(u)
        vs.append(v)
    p = len(us)
    cols = us + vs + remaining
    t = RatMatrix(n, n, [[cols[j][i] for j in range(n)] for i in range(n)])
    return p, t


def congruence_reduce_full_update(s: RatMatrix
                                  ) -> tuple[Inertia, RatMatrix, RatMatrix]:
    """``(inertia, t, t.T @ s @ t)`` by elementary congruence steps, each
    visiting every row."""
    if not s.is_symmetric():
        raise NotSymmetricError("inertia_congruence requires a symmetric matrix")
    n = s.rows
    a = [list(row) for row in s.entries]
    t = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def congruence_swap(i: int, j: int) -> None:
        if i == j:
            return
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]
            t[r][i], t[r][j] = t[r][j], t[r][i]
        a[i], a[j] = a[j], a[i]

    def congruence_addmul(dst: int, src: int, c: Fraction) -> None:
        # column then matching row update: a <- E^T a E with E adding c*col_src
        for r in range(n):
            a[r][dst] += c * a[r][src]
            t[r][dst] += c * t[r][src]
        for r in range(n):
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
            c1 = -a[k + 1][col] / c
            c2 = -a[k][col] / c
            if c1 != 0:
                congruence_addmul(col, k, c1)
            if c2 != 0:
                congruence_addmul(col, k + 1, c2)
        pos += 1
        neg += 1
        k += 2
    return Inertia(pos, neg, n - pos - neg), RatMatrix(n, n, t), RatMatrix(n, n, a)


class BlockTwoVar:
    """Two-variable polynomial matrix as a map from exponent pairs (k, l)
    to nonzero rational coefficient blocks of fixed shape p x q."""

    def __init__(self, p, q, blocks):
        if p < 0 or q < 0:
            raise ValueError("block dimensions must be nonnegative")
        clean = {}
        for (k, l), mat in blocks.items():
            if k < 0 or l < 0:
                raise ValueError("exponents must be nonnegative")
            if mat.shape != (p, q):
                raise DimensionMismatchError(
                    f"block ({k},{l}) has shape {mat.shape}, expected {(p, q)}")
            if not mat.is_zero():
                clean[(k, l)] = mat
        self.p = p
        self.q = q
        self.blocks = clean

    @classmethod
    def zero(cls, p, q):
        return cls(p, q, {})

    @classmethod
    def outer(cls, x: PolyMatrix, y: PolyMatrix) -> "BlockTwoVar":
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

    def block(self, k, l):
        return self.blocks.get((k, l), RatMatrix.zero(self.p, self.q))

    def is_zero(self):
        return not self.blocks

    def swap_transpose(self) -> "BlockTwoVar":
        """Phi(zeta, eta) -> Phi(eta, zeta)^T."""
        return BlockTwoVar(
            self.q, self.p,
            {(l, k): mat.transpose() for (k, l), mat in self.blocks.items()})

    def at_zeta_minus_eta(self) -> PolyMatrix:
        """Substitute zeta = -eta, returning a one-variable matrix in eta."""
        acc = {}
        for (k, l), mat in self.blocks.items():
            power = k + l
            signed = mat if k % 2 == 0 else -mat
            acc[power] = acc.get(power, RatMatrix.zero(self.p, self.q)) + signed
        top = max(acc, default=-1)
        return PolyMatrix(self.p, self.q, [
            [Poly([acc[d].entries[i][j] if d in acc else 0 for d in range(top + 1)])
             for j in range(self.q)] for i in range(self.p)])

    def __add__(self, other):
        if not isinstance(other, BlockTwoVar):
            return NotImplemented
        if (self.p, self.q) != (other.p, other.q):
            raise DimensionMismatchError("shape mismatch")
        keys = set(self.blocks) | set(other.blocks)
        return BlockTwoVar(
            self.p, self.q, {kl: self.block(*kl) + other.block(*kl) for kl in keys})

    def __sub__(self, other):
        if not isinstance(other, BlockTwoVar):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return BlockTwoVar(self.p, self.q,
                           {kl: -mat for kl, mat in self.blocks.items()})

    def __eq__(self, other):
        if not isinstance(other, BlockTwoVar):
            return NotImplemented
        return (self.p, self.q) == (other.p, other.q) and self.blocks == other.blocks


def mul_zeta_plus_eta_by_blocks(phi: BlockTwoVar) -> BlockTwoVar:
    """(zeta + eta) * Phi."""
    blocks = {}

    def bump(key, mat):
        blocks[key] = blocks.get(key, RatMatrix.zero(phi.p, phi.q)) + mat

    for (k, l), mat in phi.blocks.items():
        bump((k + 1, l), mat)
        bump((k, l + 1), mat)
    return BlockTwoVar(phi.p, phi.q, blocks)


def div_zeta_plus_eta_by_blocks(phi: BlockTwoVar) -> BlockTwoVar:
    """Exact quotient Phi / (zeta + eta) by synthetic division in zeta at
    the root zeta = -eta, after checking that Phi vanishes there."""
    residue = phi.at_zeta_minus_eta()
    if not residue.is_zero():
        raise NotDivisibleError(
            "matrix does not vanish at zeta = -eta", witness=residue)
    if phi.is_zero():
        return BlockTwoVar.zero(phi.p, phi.q)
    kmax = max(k for (k, _) in phi.blocks)
    # slice into matrix polynomials in eta: a[k][l] = Phi_{k,l}
    a = [dict() for _ in range(kmax + 1)]
    for (k, l), mat in phi.blocks.items():
        a[k][l] = mat
    # synthetic division by (zeta - (-eta)): b_{k-1} = a_k - eta * b_k
    b = [dict() for _ in range(kmax)]
    carry = {}
    for k in range(kmax, 0, -1):
        cur = dict(a[k])
        for l, mat in carry.items():
            key = l + 1  # multiply the previous quotient slice by eta
            cur[key] = cur.get(key, RatMatrix.zero(phi.p, phi.q)) - mat
        # note: b_{k-1} = a_k - eta*b_k, and carry holds b_k
        b[k - 1] = cur
        carry = cur
    # remainder a_0 - eta*b_0 must vanish; guaranteed by the line check
    return BlockTwoVar(phi.p, phi.q, {(k, l): mat for k, slice_ in enumerate(b)
                                      for l, mat in slice_.items()})


def derivative_rule_check(phi: TwoVarPolyMatrix, v, w) -> VerificationReport:
    """Exact product-rule identity: differentiating the bilinear form of phi
    along trajectories equals the bilinear form of (zeta + eta) phi."""
    start = time.perf_counter()
    lhs = bdf_apply(phi, v, w).deriv()
    rhs = bdf_apply(mul_zeta_plus_eta(phi), v, w)
    diff = lhs - rhs
    residual = max((abs(c) for c in diff.coeffs), default=Fraction(0))
    return VerificationReport("derivative_rule", f"form {phi.p}x{phi.q}", 1,
                              (residual,), time.perf_counter() - start)


def concatenation_compatible(structure: BoundaryStructure,
                             latent_left, latent_right, junction) -> bool:
    """Whether two trajectories meeting at the junction point present equal
    boundary values there, which is exactly the condition for their
    concatenation to satisfy the same boundary pairing."""
    junction = Fraction(junction)
    b_left = [p(junction) for p in structure.boundary(latent_left)]
    b_right = [p(junction) for p in structure.boundary(latent_right)]
    return b_left == b_right


def integrate_pairing(f1, e1, f2, e2, alpha, beta) -> Fraction:
    """Exact integral of the symmetric pairing e1^T f2 + e2^T f1."""
    integrand = _dot(e1, f2) + _dot(e2, f1)
    return integrand.integral(Fraction(alpha), Fraction(beta))


def check_dirac_form(structure: BoundaryStructure, l1, l2, alpha, beta
                     ) -> VerificationReport:
    """Residual of the full bilinear balance for one trajectory pair:
    interior pairing integral minus the boundary bracket difference."""
    (report,) = _single_check(
        "dirac_form", structure.describe(), 1,
        [(l1, l2, Fraction(alpha), Fraction(beta))], _dirac_balance(structure))
    return report


def check_power_balance(structure: BoundaryStructure, l, alpha, beta,
                        split_tolerance: float = DEFAULT_SPLIT_TOLERANCE
                        ) -> VerificationReport:
    """Residual of int e^T f = half the bracket difference of b^T Sigma b;
    when the signature is balanced the float split deviation is reported
    against the split tolerance as well."""
    start = time.perf_counter()
    split = _optional_split(structure, split_tolerance)
    dirac = _dirac_balance(structure)
    balance, deviation = _power_trial(dirac, split, dirac.evaluate(l),
                                      Fraction(alpha), Fraction(beta))
    return VerificationReport("power_balance", structure.describe(), 1,
                              (balance,), time.perf_counter() - start,
                              () if split is None else (deviation,),
                              None if split is None else split_tolerance)


def dense_matmul(self, other):
    cls = type(self)
    if isinstance(other, cls):
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        bt = other.transpose().entries
        zero = cls._coerce(0)
        return cls(self.rows, other.cols,
                   [[sum((a * b for a, b in zip(row, col)), zero) for col in bt]
                    for row in self.entries])
    if isinstance(other, cls._scalars):
        c = cls._coerce(other)
        return cls(self.rows, self.cols, [[v * c for v in row] for row in self.entries])
    return NotImplemented


def dense_apply(self, vec) -> tuple[Poly, ...]:
    """Apply this matrix as the differential operator ``P(d/dz)`` to a
    vector of polynomial functions of ``z``.
    """
    if len(vec) != self.cols:
        raise ValueError("vector length does not match column count")
    derivs = _derivatives(vec, self.span)
    out = []
    for row in self.entries:
        acc = Poly.zero()
        for j, e in enumerate(row):
            for k, c in enumerate(e.coeffs):
                if c != 0:
                    acc = acc + c * derivs[j][k]
        out.append(acc)
    return tuple(out)


def dense_dot(u, v) -> Poly:
    """Sum of the entrywise products of two sequences, as a polynomial."""
    return sum((x * y for x, y in zip(u, v)), Poly.zero())


def _bilinear(x, middle: RatMatrix, y) -> Fraction:
    """``x^T M y`` for rational vectors, multiplying only the nonzero
    entries of the constant matrix ``M``."""
    return sum((xi * c * y[j] for xi, row in zip(x, middle.entries)
                for j, c in enumerate(row) if c), Fraction(0))


def fraction_balance_residual(first, second, middle: RatMatrix, alpha, beta,
                              sign: int = 1) -> Fraction:
    """Exact residual of one balance law over ``[alpha, beta]``:

        int (u1 . v2 + sign u2 . v1) dz - [w1^T M w2]_alpha^beta

    for the ``(u, v, w)`` polynomial vector triples `first` and `second`
    and the constant middle matrix ``M``.  The boundary vectors are
    evaluated at the two endpoints before they meet ``M``: evaluation at a
    point is a ring homomorphism, so this is exactly the endpoint
    difference of the polynomial bracket ``w1^T M w2``.
    """
    u1, v1, w1 = first
    u2, v2, w2 = second
    interior = _dot(u1, v2)
    swapped = _dot(u2, v1)
    interior = interior + swapped if sign > 0 else interior - swapped
    return interior.integral(alpha, beta) - _bracket_difference(
        w1, w2, middle, alpha, beta)


def _bracket_difference(w1, w2, middle: RatMatrix, alpha, beta) -> Fraction:
    """``[w1^T M w2]_alpha^beta`` for polynomial vectors, evaluated at the
    two endpoints before the vectors meet ``M``."""

    def bracket(point) -> Fraction:
        x = [w(point) for w in w1]
        y = x if w2 is w1 else [w(point) for w in w2]
        return _bilinear(x, middle, y)

    return bracket(beta) - bracket(alpha)


def dirac_triple(structure: BoundaryStructure, latent):
    """The (efforts, flows, boundary values) of one latent: its (u, v, w)
    in the Dirac balance with middle Sigma."""
    return (structure.efforts(latent), structure.flows(latent),
            structure.boundary(latent))


def storage_triple(boundary: LagrangeBoundary, latent):
    """The (states, efforts, W l) of one latent in the symplectic balance."""
    return (boundary.states(latent), boundary.efforts(latent),
            boundary.boundary(latent))


def storage_middle(boundary: LagrangeBoundary) -> RatMatrix:
    """-J_p, the symplectic balance's M (with sign -1)."""
    return -_j_matrix(boundary.p)


def constrained_triple(structure, sample):
    """The (e, f, (Z_J e; Z_G e; V_G lam)) of one constrained sample."""
    w = (structure.Z_J.apply(sample.effort)
         + structure.Z_G.apply(sample.effort)
         + structure.V_G.apply(sample.multiplier))
    return sample.effort, sample.flow, w


def constrained_middle(structure) -> RatMatrix:
    """Sigma_J (+) [[0, Pi_G], [Pi_G^T, 0]], the constrained balance's M."""
    zero = RatMatrix.zero(structure.n_g, structure.n_g)
    return RatMatrix.block_diag([structure.Sigma_J, RatMatrix.vstack([
        RatMatrix.hstack([zero, structure.Pi_G]),
        RatMatrix.hstack([structure.Pi_G.transpose(), zero])])])


def fraction_power_trial(structure: BoundaryStructure, split, latent, alpha,
                         beta) -> tuple[Fraction, float | None]:
    """Power balance residual and split deviation (None without a split)
    of one evaluated latent, from its `dirac_triple`.

    The power balance is the Dirac balance of the latent with itself,
    halved: ``(2T - D) / 2 = T - D / 2`` for the interior power ``T`` and the
    bracket difference ``D``, so ``T`` is formed once and serves the split
    too.
    """
    e, f, b = latent
    total = _dot(e, f).integral(alpha, beta)
    balance = total - _bracket_difference(b, b, structure.Sigma,
                                          alpha, beta) / 2
    if split is None:
        return balance, None

    def boundary_power(point) -> float:
        f_delta, e_delta = split.apply([p(point) for p in b])
        return sum(x * y for x, y in zip(e_delta, f_delta))

    try:
        interior = float(total)
        at_beta = boundary_power(beta)
        at_alpha = boundary_power(alpha)
    except OverflowError:
        raise SplitToleranceError(
            "a trial's power or boundary value exceeds the float range "
            "of the split") from None
    scale = max(1.0, abs(interior), abs(at_beta), abs(at_alpha))
    return balance, abs(interior - (at_beta - at_alpha)) / scale
