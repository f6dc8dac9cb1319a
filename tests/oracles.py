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
"""

import itertools
from fractions import Fraction
from itertools import combinations

from boundary_forge import (
    AllZeroError,
    BoundaryStructure,
    InconsistentSystemError,
    LagrangeBoundary,
    Poly,
    PolyMatrix,
    RatMatrix,
    UnderdeterminedSystemError,
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
