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
- The oracle (`rank_dense`, `nullspace_dense`) is plain Gaussian
  elimination over dense Fraction rows, which the tests compare against.
  Keeping it separate from the production path is what makes the
  comparison a check rather than a tautology.

Callers pass dense rational rows (int or Fraction entries) and get
Fraction kernel vectors back.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _clear_row(row) -> dict:
    """The nonzeros of a rational row, scaled to coprime integers."""
    nz = {j: x for j, x in enumerate(row) if x}
    den = lcm(*(x.denominator for x in nz.values()))
    ints = {j: x.numerator * (den // x.denominator) for j, x in nz.items()}
    g = gcd(*ints.values())
    if g > 1:
        ints = {j: v // g for j, v in ints.items()}
    return ints


def bareiss_echelon(rows):
    """Fraction-free row echelon form of a rational matrix.

    Returns (echelon rows as {column: int} dicts of their nonzeros, pivot
    column list).  Division steps are exact by the Bareiss identity, so
    intermediate entries stay integral.
    """
    m = [_clear_row(row) for row in rows]
    lead = [min(row, default=None) for row in m]
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
    if not rows:
        return 0
    _ech, pivots = bareiss_echelon(rows)
    return len(pivots)


def nullspace(rows, ncols=None):
    """Basis of the right kernel, as Fraction vectors (production path).

    The basis vector of free column fc has 1 there and 0 in every other
    free column; back-substitution runs over the echelon nonzeros only.
    """
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    if not rows or ncols == 0:
        return [_unit(ncols, i) for i in range(ncols)]
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
        vec = [Fraction(0)] * ncols
        for j, x in sol.items():
            vec[j] = x
        basis.append(vec)
    return basis


def _unit(n, i):
    v = [Fraction(0)] * n
    v[i] = Fraction(1)
    return v


def rank_dense(rows) -> int:
    """Plain Gaussian elimination over Fraction; the independent oracle."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c] / inv
                for j in range(c, ncols):
                    m[i][j] -= f * m[r][j]
        r += 1
        if r == nrows:
            break
    return r


def nullspace_dense(rows, ncols=None):
    """Kernel basis via reduced row echelon over Fraction (oracle)."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    if not rows or ncols == 0:
        return [_unit(ncols, i) for i in range(ncols)]
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            vec[pc] = -m[ri][fc]
        basis.append(vec)
    return basis


def image_dim_within(cols, inside_idx) -> int:
    """dim { v in column-span(cols) : v supported on inside_idx }.

    cols are rational column vectors.  Solve for the kernel of the outside
    block, then take the rank of the inside block on that kernel; each
    inside product sums over the nonzeros of a kernel vector and a column.
    """
    if not cols:
        return 0
    n = len(cols[0])
    inside = sorted(inside_idx)
    inside_set = set(inside)
    outside = [i for i in range(n) if i not in inside_set]
    out_rows = [[col[i] for col in cols] for i in outside]
    out_rows = [row for row in out_rows if any(row)]
    if out_rows:
        ker = nullspace(out_rows, ncols=len(cols))
    else:
        ker = [_unit(len(cols), i) for i in range(len(cols))]
    if not ker:
        return 0
    col_inside = [
        [(pos, col[i]) for pos, i in enumerate(inside) if col[i]] for col in cols
    ]
    inside_rows = []
    for vec in ker:
        img = [Fraction(0)] * len(inside)
        for j, x in enumerate(vec):
            if x:
                for pos, y in col_inside[j]:
                    img[pos] += x * y
        inside_rows.append(img)
    return rank(inside_rows)
