"""Exact linear algebra over the rationals.

Two independent routes are kept deliberately, and share no elimination code:

- The production path (`bareiss_echelon`, `rank`, `nullspace`,
  `image_dim_within`) is incremental fraction-free elimination.  Each
  rational row is cleared to coprime integers and held as a `{column: int}`
  dict of its nonzeros.  A row is reduced only against the stored row whose
  pivot is its leading column, as p*row - a*prow cleared again, until no
  stored row leads there; it is then stored as that column's pivot row.  No
  other row is touched, so the matrices of the truncated cohomology (about
  2% filled) cost work in proportion to the rows that actually collide.
  The pivots, and the kernel basis normalised on the free columns, depend
  only on the row space, so they do not depend on the order of
  elimination.  Only `nullspace` back-substitutes, over Fractions;
  `image_dim_within` is the difference of two ranks, so the coboundary
  dimensions of the truncated cohomology never leave the integers.
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


# The name is kept: perfbench/run.py traces `linalg.bareiss_echelon` by name.
def bareiss_echelon(rows):
    """Fraction-free row echelon form of a sparse rational matrix.

    Returns (echelon rows as {column: int} dicts of their nonzeros, pivot
    column list), in increasing pivot order.  Each row leads at its pivot;
    zero rows and rows that reduce to zero are dropped.
    """
    stored = {}
    for row in map(_clear_row, rows):
        while row:
            c = min(row)
            prow = stored.get(c)
            if prow is None:
                stored[c] = row
                break
            p, a = prow[c], row[c]
            new = {j: p * v for j, v in row.items()}
            for j, w in prow.items():
                new[j] = new.get(j, 0) - a * w
            row = _clear_row(new)
    pivots = sorted(stored)
    return [stored[c] for c in pivots], pivots


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
