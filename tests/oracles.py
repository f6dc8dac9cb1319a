"""Test-only reference implementations, kept slow and obvious on purpose.

`full_rank_by_minors` is the maximal-minor enumeration that
`full_rank_everywhere` used before its column reduction: C(cols, rows)
cofactor determinants and their gcd.  It is exponential in the row count,
so the tests call it on at most five rows.
"""

import itertools

from boundary_forge import PolyMatrix, poly_gcd


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
