"""Exact linear algebra over the rationals.

Two independent routes are kept deliberately, and share no elimination code:

- The production path (`bareiss_echelon`, `rank`, `nullspace`,
  `image_dim_within`) is sparse fraction-free Bareiss elimination.  Each
  rational row is cleared once to coprime integers and held as a
  `{column: int}` dict of its nonzeros.  Pivots are taken in the order of
  the dense algorithm (leftmost column, then first row), and an entry is
  updated as (p*m_ij - a*m_rj) // prev.  By Sylvester's identity every
  entry of the dense elimination is an integer minor, so the division is
  exact entry by entry and a zero entry never has to be touched: a row
  with a nonzero in the pivot column is updated over the union of the two
  supports, and a row without one is scaled by p / prev over its own
  nonzeros.  The echelon, the pivots and the kernel vectors are exactly
  those of the dense algorithm, and the matrices of the truncated
  cohomology (about 2% filled) cost work in proportion to their nonzeros.
  Only `nullspace` back-substitutes, over Fractions; `image_dim_within` is
  the difference of two ranks, so the coboundary dimensions of the
  truncated cohomology never leave the integers.
- The oracle (`rank_dense`, `nullspace_dense`) is plain Gaussian
  elimination over dense Fraction rows.  It lives in `tests/oracles.py`,
  which the tests compare against and which imports nothing from here.
  Keeping it separate from the production path is what makes the
  comparison a check rather than a tautology.

The production path takes sparse vectors, `{index: int | Fraction}` dicts
that may hold zeros, and returns kernel vectors in the same form, holding
Fraction nonzeros only.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _clear_row(row: dict) -> dict:
    """The nonzeros of a sparse rational row, scaled to coprime integers."""
    nz = {j: x for j, x in row.items() if x}
    den = lcm(*(x.denominator for x in nz.values()))
    ints = {j: x.numerator * (den // x.denominator) for j, x in nz.items()}
    g = gcd(*ints.values())
    if g > 1:
        ints = {j: v // g for j, v in ints.items()}
    return ints


def bareiss_echelon(rows):
    """Fraction-free row echelon form of a sparse rational matrix.

    Returns (echelon rows as {column: int} dicts of their nonzeros, pivot
    column list).  Zero rows are dropped up front.  Division steps are exact
    by the Bareiss identity, so intermediate entries stay integral.
    """
    m = [ints for ints in map(_clear_row, rows) if ints]
    lead = [min(row) for row in m]
    pivots = []
    prev = 1
    r = 0
    while r < len(m):
        c = min((c for c in lead[r:] if c is not None), default=None)
        if c is None:
            break
        piv = lead.index(c, r)
        m[r], m[piv] = m[piv], m[r]
        lead[r], lead[piv] = lead[piv], lead[r]
        prow = m[r]
        p = prow[c]
        for i in range(r + 1, len(m)):
            row = m[i]
            if lead[i] == c:
                a = row.pop(c)
                new = {j: p * v for j, v in row.items()}
                for j, w in prow.items():
                    if j != c:
                        new[j] = new.get(j, 0) - a * w
                m[i] = {j: v // prev for j, v in new.items() if v}
                lead[i] = min(m[i], default=None)
            elif p != prev:
                m[i] = {j: p * v // prev for j, v in row.items()}
        prev = p
        pivots.append(c)
        r += 1
    return m[:r], pivots


def rank(rows) -> int:
    return len(bareiss_echelon(rows)[1])


def nullspace(rows, ncols):
    """Basis of the right kernel, as sparse Fraction vectors (production path).

    The basis vector of free column fc has 1 there and 0 in every other
    free column; back-substitution runs over the echelon nonzeros only.
    """
    ech, pivots = bareiss_echelon(rows)
    pivot_set = set(pivots)
    back = list(zip(reversed(ech), reversed(pivots)))
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        sol = {fc: Fraction(1)}
        for row, pc in back:
            s = sum(w * sol[j] for j, w in row.items() if j in sol)
            if s:
                sol[pc] = -s / row[pc]
        basis.append(sol)
    return basis


def image_dim_within(cols, inside_idx) -> int:
    """dim { v in column-span(cols) : v supported on inside_idx }.

    That subspace is the kernel of the projection of the span onto the
    outside coordinates, so by rank-nullity it has dimension
    rank(cols) - rank(outside parts of cols).
    """
    inside = set(inside_idx)
    outside = [{i: x for i, x in col.items() if i not in inside} for col in cols]
    return rank(cols) - rank(outside)
