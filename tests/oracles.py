"""Independent oracles the tests compare the production code against.

The dense linear algebra here is plain Gaussian elimination over dense
Fraction rows.  It shares no code with the sparse Bareiss path in
`pseudoalg.linalg` (a hygiene test checks that it imports nothing from
there), so agreement between the two is a check rather than a tautology.
It takes dense lists and returns dense Fraction lists.
"""

from fractions import Fraction


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
