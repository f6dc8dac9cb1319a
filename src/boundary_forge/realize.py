"""Finite-dimensional realizations of boundary maps.

The boundary vector b = Z(d/dz) l of a synthesized structure obeys a linear
relation in the spatial variable.  Writing U(s) and Y(s) for the input and
output rows of the image representation (flow rows in, effort rows out by
default; a swap set exchanges the roles port by port), the realization
(A, B, C, D) is defined by the exact polynomial identities

    s Z(s) = A Z(s) + B U(s),
    Y(s)   = C Z(s) + D U(s),

solved by coefficient matching over the rationals: one row reduction of
the coefficients of [Z; U] serves both right-hand sides.  No rational
transfer matrix is ever formed; properness of the hidden transfer behavior
shows up as solvability of the two linear systems, and non-properness is
repaired by searching swap sets (:func:`partition_search`).

A unique solution automatically satisfies the structure identities
checked by :func:`verify_realization_structure`

    A^T Sigma + Sigma A = 0,   B^T Sigma = C,
    D = -D^T (pairing middle symmetric) or D = D^T (middle skew),

with Sigma the symmetric pairing matrix in the first case and the skew
middle matrix in the second, and the aggregate A Sigma^{-1} is skew
respectively symmetric as Sigma is invertible.  A unique solution means
the coefficient rows of [Z; U] are linearly independent, so a bilinear
form V(zeta)^T M V(eta) in the rows V of [Z; U] vanishes only for M = 0.

For a flow/effort structure, substituting the realization into
(zeta + eta) Z(zeta)^T Sigma Z(eta) = U(zeta)^T Y(eta) + Y(zeta)^T U(eta)
leaves such a form with middle blocks A^T Sigma + Sigma A, B^T Sigma - C
and D + D^T, which therefore vanish.

For a state/effort structure with boundary rows W, let E = diag(+-1) with
-1 on the swapped ports.  The factorization (zeta + eta) W(zeta)^T J_p
W(eta) = N_e(zeta)^T N_x(eta) - N_x(zeta)^T N_e(eta) reads

    (zeta + eta) W(zeta)^T J_p W(eta) = Y(zeta)^T E U(eta) - U(zeta)^T E Y(eta),

as a swapped port exchanges u_i and y_i, which flips the sign of its
term.  Substituting the realization leaves the middle blocks
A^T J_p + J_p A, J_p B - C^T E and D^T E - E D, so A^T J_p + J_p A = 0,
B^T J_p = -E C and E D = D^T E.  The middle -J_p therefore passes exactly
when E C = C and D = D^T, and +J_p exactly when E C = -C and D = D^T:
the nonzero rows of C must all belong to kept ports, or all to swapped
ones.  When both pass (C = 0), -J_p is taken.  Neither passing is a
failure, as for a swap that splits a symplectic port pair.  So no
realization is re-checked; :func:`verify_realization_structure` reports
the exact residuals, and reports the aggregate A Sigma^{-1} residual as
zero without inverting Sigma whenever A^T Sigma + Sigma A is zero, which
implies it.

The same uniqueness drives :func:`partition_search`.  A swap set can only
be realized when the coefficient rows of [Z; U] are linearly independent,
so the search row-reduces Z once, grows an echelon basis port by port and
cuts every branch whose rows are already dependent.  It visits the swap
sets in the order of an exhaustive search and calls :func:`realize` only
on candidates with independent rows: once, when the first one succeeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .algebra import (
    InconsistentSystemError,
    Poly,
    PolyMatrix,
    RatMatrix,
    UnderdeterminedSystemError,
    _rref,
    _unique_solution,
)
from .dirac import BoundaryStructure
from .lagrange import LagrangeBoundary
from .twovar import _j_matrix

__all__ = [
    "SwapIndexError",
    "UnsolvableError",
    "NonUniqueSolutionError",
    "NoneFoundError",
    "Realization",
    "IdentityCheck",
    "StructureIdentityReport",
    "realize",
    "partition_search",
    "verify_realization_structure",
]


class SwapIndexError(ValueError):
    """A requested swap names a port outside 1..m."""


class UnsolvableError(ValueError):
    """The coefficient-matching systems have no solution for this swap."""

    def __init__(self, message: str, witness: str = ""):
        super().__init__(message if not witness else f"{message}: {witness}")
        self.witness = witness


class NonUniqueSolutionError(ValueError):
    """The systems are solvable but not uniquely; surfaced, never resolved
    by an arbitrary pick."""

    def __init__(self, message: str, dof: int = 0):
        super().__init__(message)
        self.dof = dof


class NoneFoundError(ValueError):
    """No swap set realizes the structure; carries all per-subset witnesses."""

    def __init__(self, witnesses: tuple[tuple[tuple[int, ...], str], ...]):
        lines = "; ".join(f"swap {list(s)}: {w}" for s, w in witnesses)
        super().__init__(f"no input/output partition admits a realization ({lines})")
        self.witnesses = witnesses


@dataclass(frozen=True)
class Realization:
    """State realization of a boundary map with its structure data.

    `Sigma` is the constant middle matrix of the boundary pairing: the
    symmetric pairing matrix for a flow/effort structure, the skew middle
    matrix for a state/effort structure.  `swap` lists 1-based port indices
    whose input/output roles were exchanged.
    """

    A: RatMatrix
    B: RatMatrix
    C: RatMatrix
    D: RatMatrix
    Sigma: RatMatrix
    swap: tuple[int, ...]
    kind: str
    Z: PolyMatrix
    U: PolyMatrix
    Y: PolyMatrix

    @property
    def n(self) -> int:
        return self.A.rows

    @property
    def m(self) -> int:
        return self.U.rows

    def describe(self) -> str:
        return f"{self.kind} realization n={self.n} m={self.m} swap={list(self.swap)}"


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    residual: Fraction
    passed: bool

    def __str__(self):
        tag = "pass" if self.passed else "FAIL"
        return f"[{tag}] {self.name} (max residual {self.residual})"


@dataclass(frozen=True)
class StructureIdentityReport:
    kind: str
    checks: tuple[IdentityCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self):
        return "\n".join(str(c) for c in self.checks)


def _io_rows(first: PolyMatrix, second: PolyMatrix,
             swap: tuple[int, ...]) -> tuple[PolyMatrix, PolyMatrix]:
    """Input/output matrices: row i comes from `first`/`second` unless the
    1-based index i is swapped."""
    swapped = set(swap)
    rows = [(b, a) if i + 1 in swapped else (a, b)
            for i, (a, b) in enumerate(zip(first.entries, second.entries))]
    return (PolyMatrix.from_rows([a for a, _ in rows]),
            PolyMatrix.from_rows([b for _, b in rows]))


def _state_and_input_rows(structure) -> tuple[str, PolyMatrix, PolyMatrix]:
    """Kind, state rows (Z or W) and unswapped input rows (N_f or N_x)."""
    if isinstance(structure, BoundaryStructure):
        return "dirac", structure.Z, structure.rep.N_f
    if isinstance(structure, LagrangeBoundary):
        return "lagrange", structure.W, structure.rep.N_x
    raise TypeError(f"cannot realize {type(structure).__name__}")


def _validate_swap(swap, m: int) -> tuple[int, ...]:
    swap = tuple(sorted(set(int(i) for i in swap)))
    for i in swap:
        if not 1 <= i <= m:
            raise SwapIndexError(f"swap index {i} outside 1..{m}")
    return swap


def realize(structure, swap=()) -> Realization:
    """Realize a boundary structure as (A, B, C, D) by exact coefficient
    matching, with the given set of role-swapped ports.

    Accepts the output of the flow/effort pipeline or the state/effort
    pipeline.  Raises :class:`UnsolvableError` or
    :class:`NonUniqueSolutionError` with witnesses: first for the state
    equation (no solution, then no unique one), then for the output
    equation, and for a state/effort structure when no middle fits.  Both
    equations are solved from one reduction of the coefficients of [Z; U].
    The structure identities are implied by the uniqueness of the solution
    and are not re-checked (see the module docstring);
    :func:`verify_realization_structure` reports them exactly.
    """
    kind, z, first = _state_and_input_rows(structure)
    swap = _validate_swap(swap, structure.m)
    u, y = _io_rows(first, structure.rep.N_e, swap)
    n, m = z.rows, u.rows
    # X [Z; U] = [s Z; Y] coefficient by coefficient: one equation per
    # coefficient of each column, unknowns then both right-hand sides
    rows = PolyMatrix.vstack([z, u, Poly.variable() * z, y])
    coeffs = rows.coeff_rows(rows.span)
    reduced, pivots = _rref([list(r) for r in coeffs.transpose().entries],
                            n + m)

    def match(start: int, stop: int, label: str) -> RatMatrix:
        try:
            solution = _unique_solution(reduced, pivots, n + m, start, stop)
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
        a = RatMatrix.zero(0, 0)
        b = RatMatrix.zero(0, m)
    else:
        ab = match(n + m, 2 * n + m, "the state equation")
        a = ab.submatrix(range(n), range(n))
        b = ab.submatrix(range(n), range(n, n + m))
    cd = match(2 * n + m, 2 * n + 2 * m, "the output equation")
    c = cd.submatrix(range(m), range(n))
    d = cd.submatrix(range(m), range(n, n + m))
    # the exact solve matched every coefficient up to the top degree of
    # Z, U, s Z and Y, so s Z = A Z + B U and Y = C Z + D U hold exactly

    if kind == "dirac":
        return Realization(a, b, c, d, structure.Sigma, swap, kind, z, u, y)
    # -J_p fits iff E C = C and +J_p iff E C = -C, each with D = D^T; the
    # nonzero rows of C tell which ports they belong to, swapped or not
    swapped = {i + 1 in swap for i, row in enumerate(c.entries) if any(row)}
    if d.is_symmetric() and len(swapped) < 2:
        j_p = _j_matrix(structure.p)
        return Realization(a, b, c, d, j_p if True in swapped else -j_p,
                           swap, kind, z, u, y)
    raise UnsolvableError(
        f"no constant skew middle matrix validates the structure identities "
        f"with swap {list(swap)}; exchanging only part of a symplectic port "
        f"pairing has no realization in this form")


class _SwapSet(tuple):
    """A found swap set with its accepted `realization`, so that a caller
    needs not solve the same systems again."""


def _independent_swaps(structure):
    """Swap sets in `combinations` order (by size, then lexicographic),
    skipping every one whose stacked rows [Z; U] have linearly dependent
    coefficient rows.

    The coefficient rows of Z are row reduced once, and each port's two
    candidate input rows (f_i kept, e_i swapped) are reduced modulo their
    span once.  For each size a depth-first search over the ports tries
    "swap" before "keep" within the size budget, which visits the subsets
    in `combinations` order; it carries the echelon basis of the rows
    chosen so far and grows it by one reduced row per port.  A dependent
    prefix stays dependent under every completion, so its branch is cut.
    """
    _, z, first = _state_and_input_rows(structure)
    second = structure.rep.N_e
    # padding with zero top coefficients changes no linear dependence, so
    # one span serves every swap set
    span = max(z.span, first.span, second.span)

    def reduce(vec: list[Fraction], basis) -> list[Fraction]:
        # each basis row is 1 at its pivot and 0 at the pivots before it
        for p, b in basis:
            c = vec[p]
            if c:
                vec = [x - c * y if y else x for x, y in zip(vec, b)]
        return vec

    def extend(basis, vec):
        """`basis` grown by `vec`, or None when `vec` lies in its span."""
        vec = reduce(vec, basis)
        p = next((i for i, x in enumerate(vec) if x), None)
        if p is None:
            return None
        inv = 1 / vec[p]
        return basis + [(p, [x * inv if x else x for x in vec])]

    z_rows, pivots = _rref([list(r) for r in z.coeff_rows(span).entries],
                           (span + 1) * z.cols)
    if len(pivots) < z.rows:
        return  # [Z; U] is dependent for every U
    z_basis = list(zip(pivots, z_rows))
    ports = [(reduce(f, z_basis), reduce(e, z_basis))
             for f, e in zip(first.coeff_rows(span).entries,
                             second.coeff_rows(span).entries)]
    m = len(ports)

    def search(i: int, budget: int, basis, chosen: tuple[int, ...]):
        if i == m:
            yield chosen
            return
        keep, swap = ports[i]
        branches = []
        if budget:
            branches.append((swap, budget - 1, chosen + (i + 1,)))
        if budget < m - i:
            branches.append((keep, budget, chosen))
        for vec, left, subset in branches:
            grown = extend(basis, vec)
            if grown is not None:
                yield from search(i + 1, left, grown, subset)

    for size in range(m + 1):
        yield from search(0, size, [], ())


def partition_search(structure) -> tuple[int, ...]:
    """Smallest swap set (ties broken lexicographically) for which
    :func:`realize` succeeds with a unique solution.

    The result is the first subset of the ports, in `combinations` order
    (by size, then lexicographic), that :func:`realize` accepts, but the
    subsets that provably fail are skipped without calling it.  `realize`
    needs a unique solution X of X coeff([Z; U]) = rhs, so the coefficient
    rows of [Z; U] must have full row rank n + m; when they are dependent
    the solve is inconsistent or underdetermined and `realize` raises.
    :func:`_independent_swaps` yields only the subsets with independent
    rows, in order, and prunes a port prefix as soon as its rows are
    dependent.  A subset with independent rows is still realized in full,
    and the search goes on if that fails.  Where the answer is the full
    set, as for U (sI, I), this is one `realize` call instead of 2^m.

    Raises :class:`NoneFoundError` carrying every witness when no subset
    works, which would contradict the existence claim for these structures
    and is worth surfacing loudly; to collect the witnesses this error path
    realizes every subset.  The returned tuple also carries the accepted
    :class:`Realization` as `.realization`.
    """
    if not isinstance(structure, (BoundaryStructure, LagrangeBoundary)):
        raise TypeError(f"cannot realize {type(structure).__name__}")
    m = structure.m
    everything = (subset for size in range(m + 1)
                  for subset in combinations(range(1, m + 1), size))
    for subsets in (_independent_swaps(structure), everything):
        witnesses = []
        for subset in subsets:
            try:
                realization = realize(structure, swap=subset)
            except (UnsolvableError, NonUniqueSolutionError) as exc:
                witnesses.append((subset, str(exc)))
                continue
            found = _SwapSet(subset)
            found.realization = realization
            return found
    raise NoneFoundError(tuple(witnesses))


def verify_realization_structure(r: Realization) -> StructureIdentityReport:
    """Exact residuals of the port-Hamiltonian structure identities.

    Checks A^T Sigma + Sigma A = 0 and B^T Sigma = C always; the feedthrough
    must be skew (D + D^T = 0) when Sigma is symmetric and symmetric
    (D - D^T = 0) when Sigma is skew, and the aggregated operator
    A Sigma^{-1} must be skew respectively symmetric.  All arithmetic is
    rational; every residual reported is exact.
    """
    # a symmetric middle makes D and A Sigma^-1 skew, a skew middle symmetric
    sign, kind, op = (1, "skew", "+") if r.kind == "dirac" else (-1, "symmetric", "-")

    def check(name: str, residual: RatMatrix) -> IdentityCheck:
        value = residual.max_abs()
        return IdentityCheck(name, value, value == 0)

    pairing = check("pairing_invariance (A^T Sigma + Sigma A)",
                    r.A.transpose() * r.Sigma + r.Sigma * r.A)
    checks = [
        pairing,
        check("output_adjointness (B^T Sigma - C)", r.B.transpose() * r.Sigma - r.C),
        check(f"feedthrough_{kind} (D {op} D^T)", r.D + sign * r.D.transpose()),
    ]
    if r.n > 0:
        aggregate = f"aggregate_{kind} (A Sigma^-1 {op} transpose)"
        # With R = A^T Sigma + Sigma A and Sigma^T = sign * Sigma, also
        # Sigma^-T = sign * Sigma^-1, so
        #   A Sigma^-1 + sign * (A Sigma^-1)^T
        #     = A Sigma^-1 + Sigma^-1 A^T = Sigma^-1 R Sigma^-1.
        # A zero pairing residual therefore makes the aggregate residual
        # zero, and the invertible Sigma (the pairing of a structure is
        # non-degenerate) need not be inverted.
        if pairing.passed:
            checks.append(IdentityCheck(aggregate, Fraction(0), True))
        else:
            j = r.A * r.Sigma.inverse()
            checks.append(check(aggregate, j + sign * j.transpose()))
    else:
        checks.append(IdentityCheck("aggregate (empty state)", Fraction(0), True))
    return StructureIdentityReport(r.kind, tuple(checks))
