"""Test-only reference implementations, kept slow and obvious on purpose.

`full_rank_by_minors` is the maximal-minor enumeration that
`full_rank_everywhere` used before its column reduction: C(cols, rows)
cofactor determinants and their gcd.  It is exponential in the row count,
so the tests call it on at most five rows.

`partition_search_exhaustive` is the swap-set search that
`partition_search` used before it pruned by linear independence: a full
`realize` on every subset of the ports, in `combinations` order, up to 2^m
calls.  The tests call it on at most six ports.
"""

import itertools
from itertools import combinations

from boundary_forge import BoundaryStructure, LagrangeBoundary, PolyMatrix, poly_gcd
from boundary_forge.realize import (
    NoneFoundError,
    NonUniqueSolutionError,
    UnsolvableError,
    _SwapSet,
    realize,
)


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
