"""Chevalley-Eilenberg differentials for both deformation-map types.

A handle fixes the kind, the induced semidirect structure (its bracket pi
and action rho, `induced_structure`) and the sign convention.  On C^p the
shifted differential is (-1)^{p-1} times the classical one:

    classical:  sum_i (-1)^{i+1} action-term + sum_{i<j} (-1)^{i+j} bracket-term
    shifted:    (-1)^{p-1} * classical

so the convention is one global sign, and d is one `cochains.shuffle_sum`
over the (1, p)- and (2, p-1)-shuffles, like the NR bracket [mu, f]_NR.
Both conventions square to zero whenever either does; the discriminating
test is the operator identity l1(f) = (-1)^{p-1} d(f), which the suite runs
at p = 1, 2.  That check, the closed-form cocycle conditions, the
matched-pair d^T and the printed per-term sum are independent routes kept in
`tests/oracles.py`.  Every report names the convention in force.

Cohomology groups are computed on degree-truncated subcomplexes: exact kernel
ranks, and image dimensions within the truncation window (caveat flagged).
No target window is built: each d image enters `linalg` as a sparse
{position: coefficient} vector, each (tuple, key) numbered when first seen.
dim B is rank(C) - rank(C_out), C the images of C^{p-1} and C_out their parts
outside the window.  The budget is counted once, before any work, on the
largest space touched: the one d maps C^p into, (p + 1, cap + growth).

The one cache is `handle.d_blocks` (`CEComplexHandle.d_block`): d on the
skew basis of each (arity, cap), built on first use and shared by Z at that
arity and B one arity above, within `COORD_BUDGET`; callers must not mutate
it.  Skew bases are solved afresh on each call, and the ranks that answer a
query are taken on every call.
"""

from __future__ import annotations

import itertools
import random
from math import comb

from .hopf import InputError, ResourceError, mi_degree
from .ptensor import FreeModule, PTElem, permute, swap_dest
from .cochains import (
    Cochain,
    HModuleMap,
    MixedMap,
    head_insertion,
    insert_value,
    random_cochain,
    shuffle_sum,
    sorted_tuples,
)
from .structures import (
    CLASSICAL,
    SHIFTED,
    TYPE_I,
    TYPE_II,
    QuasiTwilled,
    require_pc,
)
from .deformation import twist1_components, twist2_components
from . import linalg

COORD_BUDGET = 60000


def _global_sign(convention: str, p: int) -> int:
    """The sign of the degree-p differential: 1 classical, (-1)^{p-1} shifted."""
    if convention == CLASSICAL:
        return 1
    if convention == SHIFTED:
        return -1 if p % 2 == 0 else 1
    raise InputError(f"unknown sign convention {convention!r}")


def ce_differential(bracket: Cochain, action: MixedMap, f: Cochain, convention=CLASSICAL) -> Cochain:
    """The CE coboundary of f: C^p(A, M) -> C^{p+1}(A, M), as one shuffle sum.

    bracket is the pseudobracket on A, action the A (x) M -> M map.  The
    action term action(x_i, f(rest)) runs over the (1, p)-shuffles with
    coefficient s, the bracket term f([x_i x_j], rest) over the (2, p-1)-
    shuffles with coefficient -s, s the convention's global sign.  A
    (1, p)-shuffle's sign is the printed (-1)^{i+1}, and minus a
    (2, p-1)-shuffle's sign is the printed (-1)^{i+j}.
    """
    A = bracket.source
    M = action.hmod
    if f.source != A or f.target != M:
        raise InputError("cochain has the wrong block signature for this complex")
    p = f.arity
    s = _global_sign(convention, p)

    def act_on_rest(args):
        inner = f.terms.get(args[1:])
        return inner and insert_value(action, args[:1], inner, ())

    plans = [(1, s, act_on_rest), (2, -s, head_insertion(f, bracket))]
    return Cochain(p + 1, A, M, shuffle_sum(M, p + 1, sorted_tuples(A.rank, p + 1), plans))


def ce_differential0(bracket: Cochain, action: MixedMap, u: PTElem, convention=CLASSICAL) -> dict:
    """The coboundary of a 0-cochain (a module element).

    d(u)(x) = +- action(x (x) u) has a free coefficient on the x-slot, so it
    lives in the extended space Hom_H(A, H^2 (x)_H M), not in Hom_H(A, M);
    the value is returned as a table {i: arity-2 value}.  Its vanishing is
    the printed 1-cocycle condition.
    """
    A = bracket.source
    M = action.hmod
    if u.module != M:
        raise InputError("0-cochain must be a module element")
    table = {}
    for i in range(A.rank):
        v = action.eval([A.elem(i), u]).scale(_global_sign(convention, 0))
        if not v.is_zero():
            table[(i,)] = v
    return table


class CEComplexHandle:
    """A validated CE complex for one deformation map.

    Construction verifies d o d = 0 at p = 1 on seeded random cochains under
    the active convention; a violation invalidates the handle immediately.
    `d_blocks` memoises d on the truncated skew bases (`d_block`); it lives
    and dies with the handle.
    """

    def __init__(self, kind, bracket, action, convention=CLASSICAL):
        self.kind = kind
        self.bracket = bracket
        self.action = action
        self.convention = convention
        self.d_blocks = {}
        rng = random.Random(20240801)
        for _ in range(2):
            f = random_cochain(rng, bracket.source, action.hmod, 1, max_deg=2)
            if not self.diff(self.diff(f)).is_zero():
                raise InputError(f"d o d != 0 at p=1 under convention {convention!r}")

    def diff(self, f: Cochain) -> Cochain:
        return ce_differential(self.bracket, self.action, f, self.convention)

    def diff0(self, u: PTElem) -> dict:
        return ce_differential0(self.bracket, self.action, u, self.convention)

    def max_growth(self) -> int:
        return max(self.bracket.max_degree(), self.action.max_degree(), 0)

    def d_block(self, arity: int, cap: int) -> tuple:
        """(sparse images, positions) of d on the degree <= cap cochains of `arity`.

        Arity p >= 1 takes d of `skew_basis(A, M, p, cap)`; arity 0 takes the
        `diff0` tables of the module elements of degree <= cap.  Built once per
        (arity, cap) and kept in `d_blocks`; callers check the budget first
        and must not mutate what is returned.
        """
        if (arity, cap) not in self.d_blocks:
            A, M = self.bracket.source, self.action.hmod
            if arity == 0:
                tables = [
                    self.diff0(M.elem(k, M.alg.mono(K)))
                    for k in range(M.rank)
                    for K in _multiindices(M.alg.dim, cap)
                ]
            else:
                tables = [self.diff(f).terms for f in skew_basis(A, M, arity, cap)]
            self.d_blocks[arity, cap] = _sparse_vectors(tables)
        return self.d_blocks[arity, cap]


def induced_structure(Q: QuasiTwilled, M: HModuleMap, kind: str) -> QuasiTwilled:
    """The Lie pseudoalgebra and representation a deformation map M induces,
    as the semidirect quasi-twilled structure (A, V, pi = bracket, rho = action).

    Type I gives (g, h, pi^D, rho^D); type II gives (h, g, mu^T, zeta), zeta
    the matched-pair reorientation zeta(v (x) x) = -(12) eta^T(x (x) v).
    With the other components zero, SKEW-pi and PC2 are skew-symmetry and
    Jacobi, and PC5 is the module axiom, so `require_pc` checks them all.
    """
    if kind == TYPE_I:
        Qt = twist1_components(Q, M)  # its theta is the defining residual of M
        resid, S = Qt.theta, QuasiTwilled(Q.g, Q.h, pi=Qt.pi, rho=Qt.rho)
    elif kind == TYPE_II:
        Qt, resid = twist2_components(Q, M)  # xi is the defining residual of M
        S = QuasiTwilled(Q.h, Q.g, pi=Qt.mu, rho=Qt.eta.swapped())
    else:
        raise InputError("kind must be 'I' or 'II'")
    if not resid.is_zero():
        raise InputError(f"induced structures need a valid type {kind} map")
    return require_pc(S, f"the structure induced by a type {kind} map violates the axioms")


def handle_for(kind, Q, M, convention=CLASSICAL):
    """Build the CE handle of a type I or type II deformation map M of Q."""
    S = induced_structure(Q, M, kind)
    return CEComplexHandle(kind, S.pi, S.rho, convention)


# -- truncated cohomology ----------------------------------------------------------


def _multiindices(dim: int, max_deg: int):
    for total in range(max_deg + 1):
        for cuts in itertools.combinations(range(total + dim - 1), dim - 1):
            mi = []
            prev = -1
            for c in cuts:
                mi.append(c - prev - 1)
                prev = c
            mi.append(total + dim - 2 - prev)
            yield tuple(mi)


def ptelem_coords(module: FreeModule, arity: int, cap: int):
    """All canonical term keys of total PBW degree <= cap."""
    alg = module.alg
    mis = list(_multiindices(alg.dim, cap))
    out = []
    for slots in itertools.product(mis, repeat=arity - 1):
        used = sum(mi_degree(s) for s in slots)
        if used > cap:
            continue
        for K in mis:
            if used + mi_degree(K) > cap:
                continue
            for k in range(module.rank):
                out.append((slots, K, k))
    return out


def _check_budget(source: FreeModule, target: FreeModule, arity: int, cap: int):
    """Refuse a raw truncated space over `COORD_BUDGET`, counted before anything is built."""
    # sorted tuples times keys: monomials of degree <= cap in arity * dim
    # variables, one per basis element
    dim = target.alg.dim
    size = comb(source.rank + arity - 1, arity) * target.rank * comb(cap + arity * dim, arity * dim)
    if size > COORD_BUDGET:
        raise ResourceError(f"truncated space needs {size} coordinates (budget {COORD_BUDGET})")


def cochain_coords(source: FreeModule, target: FreeModule, arity: int, cap: int) -> dict:
    """Positions {(tuple, key): n} of the raw truncated space, in a fresh dict."""
    _check_budget(source, target, arity, cap)
    keys = ptelem_coords(target, arity, cap)
    cks = itertools.product(sorted_tuples(source.rank, arity), keys)
    return {ck: n for n, ck in enumerate(cks)}


# The name is kept: perfbench/run.py traces `cohomology.skew_basis` by name.
def skew_basis(source: FreeModule, target: FreeModule, arity: int, cap: int) -> list:
    """Basis cochains of the truncated skew subspace, fresh on every call.

    Skewness only constrains tuples with repeated entries, through the
    stabilizer transpositions; permuting preserves the total degree so the
    constraints close up within the window.  Each constraint is the row
    (1 + sigma) e_c, so the kernel solved for is that of (1 + sigma)^T, not
    of (1 + sigma): a known open fault (ROADMAP.md, first open item), kept
    until its fix can regenerate the reference values that pin it.
    """
    index = cochain_coords(source, target, arity, cap)
    keys = dict.fromkeys(key for _t, key in index)  # the window's keys, in their order
    rows = []
    for t in sorted_tuples(source.rank, arity):
        for i in range(arity - 1):
            if t[i] != t[i + 1]:
                continue
            for key in keys:
                moved = permute(PTElem(target, arity, {key: 1}), swap_dest(arity, i, i + 1))
                row = {index[(t, key)]: 1}
                for mkey, c in moved.terms.items():
                    pos = index[(t, mkey)]
                    row[pos] = row.get(pos, 0) + c
                rows.append(row)
    coords = list(index)
    basis = []
    for vec in linalg.nullspace(rows, len(coords)):
        table = {}
        for pos, c in sorted(vec.items()):
            t, key = coords[pos]
            table.setdefault(t, {})[key] = c
        terms = {t: PTElem(target, arity, d) for t, d in table.items()}
        basis.append(Cochain(arity, source, target, terms))
    return basis


def _sparse_vectors(tables) -> tuple:
    """(sparse vectors, positions) of cochain tables, each (tuple, key) numbered when first seen."""
    positions = {}
    vecs = [
        {
            positions.setdefault((t, key), len(positions)): c
            for t, v in table.items()
            for key, c in v.terms.items()
        }
        for table in tables
    ]
    return vecs, positions


def truncated_cohomology(handle: CEComplexHandle, p: int, cap: int) -> dict:
    """(dim Z, dim B, dim H) of the degree-truncated subcomplex at arity p.

    Kernels are exact on the truncated domain; the image is computed within
    the truncation (flagged) since a coboundary may have higher-degree
    preimages outside the window.  d comes from the handle's blocks p
    (for Z) and p - 1 (for B), built on first use; the ranks are taken on
    every call.
    """
    if p < 1:
        raise InputError("cochain arity must be >= 1")
    if cap < 0:
        raise InputError("degree cap must be >= 0")
    M = handle.action.hmod
    # d maps C^p into arity p + 1 and degree cap + growth, the largest space
    # touched below, so counting it refuses an over-budget call before any work
    _check_budget(handle.bracket.source, M, p + 1, cap + handle.max_growth())
    # rank of d on the basis = rank of its images taken as rows
    images, _ = handle.d_block(p, cap)
    dim_z = len(images) - linalg.rank(images)

    # coboundaries: image of d from one arity below, within the window; at p = 1
    # d has arity-2 values, and only their trivial-slot part meets C^1
    cols, positions = handle.d_block(p - 1, cap)
    inside = [
        n
        for (_t, (slots, K, _k)), n in positions.items()
        if sum(mi_degree(s) for s in slots) + mi_degree(K) <= cap
        and (p > 1 or slots == (M.alg.zero_index,))
    ]
    dim_b = linalg.image_dim_within(cols, inside)
    return {
        "arity": p,
        "cap": cap,
        "dim_cochains": len(images),
        "dim_Z": dim_z,
        "dim_B": dim_b,
        "dim_H": dim_z - dim_b,
        "caveat": "image computed within truncation",
        "convention": handle.convention,
    }
