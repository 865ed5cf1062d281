"""Independent oracles the tests compare the production code against.

Each oracle reaches its answer by a route that shares no code with the
production route it checks, so agreement between the two is a check rather
than a tautology.  `tests/test_hygiene.py` keeps them apart.

- `rank_dense`, `nullspace_dense`: plain Gaussian elimination over dense
  Fraction rows, against the sparse Bareiss path of `pseudoalg.linalg`
  (`rank`, `nullspace`).  They import nothing from `linalg`.
- `consistency_l1_vs_d`: the twisted L-infinity l1 of
  `deformation.TwistedLinfOps`, against the CE differential of the
  `cohomology` handle, l1(f) = (-1)^{p-1} d(f) under each sign convention.
- `_ce_reference`: the CE coboundary as the printed per-term sum, each
  composite placed by its own placement array and signed by its printed
  sign, against `cochains.shuffle_sum`, which `ce_differential` runs.
- `cocycle_check_type1`, `cocycle_check_type2` (with `_cocycle_report`): the
  closed-form 1- and 2-cocycle conditions, expanded from the structure maps,
  against `CEComplexHandle.diff0` and `diff`.
- `zeta_value`, `ce_diff_matched_type2`: the matched-pair d^T expanded from
  the Def-4.23 closed forms, against the generic handle built from
  `twist2_components`.  They call neither of them.
- `lie_ce_cohomology`: the Chevalley-Eilenberg cohomology of a
  finite-dimensional Lie algebra with a module, from dense Fraction matrices
  of the classical differential, against `cohomology.truncated_cohomology`
  on the cap-0 window of Cur_H g, which is that complex for any H.
- `_interpolate_quadratics`: the rank-2 PC residual polynomials rebuilt from
  rational point evaluations, against the one ring evaluation of
  `rank2.Rank2Problem.residual_polynomials`.
- `graph_check`: closure of the graph of a type I map under Omega, against
  the defining residual `deformation.dmap1_residual` (`_type1_tables`).
- `mc_bullet_components`: the paper's bullet list, [Omega, Omega] as sums
  of brackets of the lifted components, against the PC residuals that
  `structures.check_mc_omega` matches to the blocks of [Omega, Omega].

Beside them sit the Hopf-axiom helpers the tests alone use: the iterated
coproduct `coproduct_iter`, the antipode of an element `antipode` and the
componentwise product `tensor_mul` of H^{(x) n}.
"""

import itertools
from fractions import Fraction

import sympy

from pseudoalg.hopf import HElem, HTensor, InputError, exact_div, mi_splits
from pseudoalg.ptensor import PTElem, permute
from pseudoalg.cochains import (
    Cochain,
    HModuleMap,
    circle,
    coerce_to_sum,
    insert_raw,
    insert_value,
    lift,
    nr_bracket,
    sorted_tuples,
)
from pseudoalg.structures import CLASSICAL, SHIFTED, TYPE_I, TYPE_II, QuasiTwilled
from pseudoalg.deformation import SWAP2, TwistedLinfOps, _check_orientation, twist2_components
from pseudoalg.cohomology import handle_for

CONVENTIONS = (CLASSICAL, SHIFTED)


# -- Hopf-axiom helpers --------------------------------------------------------------


def coproduct_iter(a: HElem, p: int) -> HTensor:
    """Delta^p(a) as an HTensor of arity p+1: sum over all splits of each K."""
    if p < 1:
        raise InputError("iterated coproduct needs p >= 1")
    out = {}
    for K, c in a.terms.items():
        for split in mi_splits(K, p + 1):
            v = out.get(split, 0) + c
            if v:
                out[split] = v
            else:
                out.pop(split, None)
    return HTensor(a.alg, p + 1, out)


def antipode(a: HElem) -> HElem:
    out = {}
    for K, c in a.terms.items():
        for L, c2 in a.alg.antipode_mono(K).items():
            v = out.get(L, 0) + c * c2
            if v:
                out[L] = v
            else:
                out.pop(L, None)
    return HElem(a.alg, out)


def tensor_mul(a: HTensor, b: HTensor) -> HTensor:
    """Componentwise product in H^{(x) n}; exercises straightening."""
    a._check(b)
    out = {}
    for I, ci in a.terms.items():
        for J, cj in b.terms.items():
            legs = [HElem(a.alg, a.alg.mul_mono(x, y)) for x, y in zip(I, J)]
            for tup, c in HTensor.from_legs(legs).terms.items():
                v = out.get(tup, 0) + ci * cj * c
                if v:
                    out[tup] = v
                else:
                    out.pop(tup, None)
    return HTensor(a.alg, a.arity, out)


# -- dense linear algebra (against pseudoalg.linalg) --------------------------------



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


def lie_ce_cohomology(bracket: dict, action: list, max_p: int) -> list:
    """[dim H^p(g, V) for p = 1..max_p] of a finite-dimensional Lie algebra g.

    bracket maps (i, j) to {k: c}: [e_i, e_j] = sum c e_k, one of (i, j) and
    (j, i) given, or neither when the bracket is zero.  action[i]
    is the matrix of e_i on V: e_i . v_b = sum_a action[i][a][b] v_a.  A
    p-cochain is a skew map g^p -> V, with coordinates (I, a): the v_a
    coefficient of its value on e_I, I strictly increasing.  The classical
    differential, with 0-based positions,

        df(x_0..x_p) = sum_i (-1)^i x_i . f(..^x_i..)
                       + sum_{i<k} (-1)^(i+k) f([x_i, x_k], ..^x_i..^x_k..),

    is built as a dense matrix per degree and ranked by `rank_dense`:
    dim H^p = dim C^p - rank d_p - rank d_(p-1).
    """
    dim, nv = len(action), len(action[0])
    full = {}
    for (i, j), row in bracket.items():
        full[(i, j)] = row
        full[(j, i)] = {k: -c for k, c in row.items()}

    def basis(p):
        return [(I, a) for I in itertools.combinations(range(dim), p) for a in range(nv)]

    def d_rank(p):
        cols = {ia: n for n, ia in enumerate(basis(p))}
        rows = []
        for J in itertools.combinations(range(dim), p + 1):
            block = [[Fraction(0)] * len(cols) for _ in range(nv)]
            for i, x in enumerate(J):
                I = J[:i] + J[i + 1:]
                for a in range(nv):
                    for b in range(nv):
                        block[a][cols[(I, b)]] += (-1) ** i * action[x][a][b]
            for i, k in itertools.combinations(range(p + 1), 2):
                rest = [y for n, y in enumerate(J) if n not in (i, k)]
                for m, c in full.get((J[i], J[k]), {}).items():
                    if m in rest:
                        continue
                    # moving e_m from the front to its sorted place
                    sign = (-1) ** (i + k + sum(y < m for y in rest))
                    I = tuple(sorted(rest + [m]))
                    for a in range(nv):
                        block[a][cols[(I, a)]] += sign * c
            rows += block
        return rank_dense(rows)

    ranks = [d_rank(p) for p in range(max_p + 1)]
    return [len(basis(p)) - ranks[p] - ranks[p - 1] for p in range(1, max_p + 1)]


# -- graph closure and the bullet list (against deformation and structures) --------


def graph_check(Q: QuasiTwilled, D: HModuleMap) -> dict:
    """Closure of Gr(D) under Omega, via the kernel map (x,u) -> D(x) - u.

    Independent of dmap1_residual: evaluates the assembled bracket on graph
    elements and tests membership in H^2 (x)_H Gr(D) by exactness of
    tensoring the defining short exact sequence with the flat module H^2.
    """
    _check_orientation(Q, D, TYPE_I)
    om = Q.omega()
    G, cut = Q.G, Q.G.split

    def phi(k: int) -> PTElem:
        # Phi(x, u) = u - D(x), valued in h; Gr(D) = ker Phi and H^2 is
        # flat, so membership is exactly the vanishing of the pushforward.
        if k < cut:
            return -D.apply_basis(k)
        return Q.h.elem(k - cut)

    residuals = {}
    for i, j in sorted_tuples(Q.g.rank, 2):
        # graph elements (x_i, D x_i) in G
        gi = G.elem(i) + coerce_to_sum(D.apply_basis(i), G, "h")
        gj = G.elem(j) + coerce_to_sum(D.apply_basis(j), G, "h")
        resid = om.eval([gi, gj]).map_module(phi, Q.h)
        if not resid.is_zero():
            residuals[(i, j)] = resid
    return {"ok": not residuals, "residuals": residuals}


def mc_bullet_components(Q: QuasiTwilled) -> dict:
    """The paper's component decomposition of [Omega, Omega] by bidegree.

    Returns {label: Cochain on G} for the seven bullet equations, e.g.
    PC2 -> [pi,pi] + 2 eta o theta, each supported on its predicted block.
    """
    pi, rho, mu, eta, th = (lift(c, Q.G) for c in Q.components)
    return {
        "PC2": nr_bracket(pi, pi) + circle(eta, th).scale(2),
        "PC3": nr_bracket(rho, th) + nr_bracket(pi, th),
        "PC4": nr_bracket(pi, eta) + circle(eta, rho),
        "PC5": nr_bracket(rho, rho).scale(Fraction(1, 2))
        + circle(th, eta)
        + nr_bracket(mu, th)
        + nr_bracket(pi, rho),
        "PC6": nr_bracket(mu, eta).scale(2) + nr_bracket(eta, eta),
        "PC7": nr_bracket(rho, mu) + circle(rho, eta),
        "PC8": nr_bracket(mu, mu),
    }


# -- twisted l1 against the CE differential ----------------------------------------


def consistency_l1_vs_d(kind, Q, M, f: Cochain) -> dict:
    """Prop-check: l1^M(f) = (-1)^{p-1} d(f); reports per sign convention."""
    tw = TwistedLinfOps(Q, M, kind)
    l1f = tw.l1(f)
    sign = (-1) ** (f.arity - 1)
    out = {"arity": f.arity}
    for conv in CONVENTIONS:
        h = handle_for(kind, Q, M, convention=conv)
        out[conv] = l1f == h.diff(f).scale(sign)
    out["validated"] = [c for c in CONVENTIONS if out[c]]
    return out


# -- the printed CE sum (against the shuffle sum of the handle) ----------------------


def _ce_reference(bracket, action, f, convention):
    """The CE coboundary of f as the printed per-term sum.

    Each composite is placed by its own placement array through `permute`,
    scaled by its printed sign, and added as a value.
    """
    A, M, p = bracket.source, action.hmod, f.arity
    if convention == CLASSICAL:
        s1, s2 = (lambda i: (-1) ** (i + 1)), (lambda i, j: (-1) ** (i + j))
    else:
        s1, s2 = (lambda i: (-1) ** (p + i)), (lambda i, j: (-1) ** (p + i + j - 1))
    table = {}
    for t in sorted_tuples(A.rank, p + 1):
        acc = PTElem.zero(M, p + 1)
        for i in range(1, p + 2):
            inner = f.value(t[: i - 1] + t[i:])
            if inner.is_zero():
                continue
            comp = insert_raw(
                lambda k, _i=t[i - 1]: action.eval([A.elem(_i), M.elem(k)]), 2, M, 1, inner
            )
            dest = [i - 1] + [s - 1 if s < i else s for s in range(1, p + 1)]
            acc = acc + permute(comp, dest).scale(s1(i))
        for i, j in itertools.combinations(range(1, p + 2), 2):
            inner = bracket.value((t[i - 1], t[j - 1]))
            if inner.is_zero():
                continue
            spots = [s for s in range(p + 1) if s not in (i - 1, j - 1)]
            comp = insert_value(f, (), inner, tuple(t[s] for s in spots))
            acc = acc + permute(comp, [i - 1, j - 1] + spots).scale(s2(i, j))
        table[t] = acc
    return Cochain(p + 1, A, M, table)


# -- explicit low-degree cocycle conditions ---------------------------------------


def _cocycle_report(direct: dict, differential: dict, convention: str) -> dict:
    """Verdicts of the direct expansion and the differential route, with both residuals."""
    dr = {t: v for t, v in differential.items() if not v.is_zero()}
    return {
        "ok": not direct and not dr,
        "agree": (not direct) == (not dr),
        "direct": direct,
        "differential": dr,
        "convention": convention,
    }


def cocycle_check_type1(Q: QuasiTwilled, D: HModuleMap, f, n: int, convention=CLASSICAL) -> dict:
    """Closed-form 1-/2-cocycle conditions vs the differential route.

    n = 1: f is an element of h; closed iff
        rho(x, u) + mu(D x, u) - D(eta(x, u)) = 0 for all basis x.
    n = 2: f in C^1(g, h); the expanded rho^D/pi^D condition.
    Both the direct expansion and the ce_diff route are computed; the report
    carries their residuals and the agreement verdict.
    """
    handle = handle_for(TYPE_I, Q, D, convention=convention)
    direct = {}
    if n == 1:
        u = f
        for i in range(Q.g.rank):
            x = Q.g.elem(i)
            r = (
                Q.rho.eval([x, u])
                + Q.mu.eval([D(x), u])
                - Q.eta.eval([x, u]).map_module(D.apply_basis, D.dst)
            )
            if not r.is_zero():
                direct[(i,)] = r
        differential = handle.diff0(u)
    elif n == 2:
        for i, j in sorted_tuples(Q.g.rank, 2):
            x, y = Q.g.elem(i), Q.g.elem(j)

            def rho_D(a_idx, b_elem):
                a = Q.g.elem(a_idx)
                return (
                    Q.rho.eval([a, b_elem])
                    + Q.mu.eval([D(a), b_elem])
                    - Q.eta.eval([a, b_elem]).map_module(D.apply_basis, D.dst)
                )

            fy = f.value((j,))
            fx = f.value((i,))
            pi_D = (
                Q.pi.value((i, j))
                + Q.eta.eval([x, D(y)])
                - permute(Q.eta.eval([y, D(x)]), SWAP2)
            )
            r = (
                rho_D(i, fy)
                - permute(rho_D(j, fx), SWAP2)
                - insert_value(f, (), pi_D, ())
            )
            if not r.is_zero():
                direct[(i, j)] = r
        differential = handle.diff(f).terms
    else:
        raise InputError("cocycle certificates cover n in {1, 2}")
    return _cocycle_report(direct, differential, convention)


def cocycle_check_type2(Q: QuasiTwilled, T: HModuleMap, f, n: int, convention=CLASSICAL) -> dict:
    """Type II cocycle certificates via zeta/mu^T, direct and differential routes."""
    handle = handle_for(TYPE_II, Q, T, convention=convention)
    Qt, _xi = twist2_components(Q, T)
    direct = {}
    if n == 1:
        x = f  # an element of g
        for j in range(Q.h.rank):
            u = Q.h.elem(j)
            r = zeta_value(Q, T, u, x)
            if not r.is_zero():
                direct[(j,)] = r
        differential = handle.diff0(x)
    elif n == 2:
        for i, j in sorted_tuples(Q.h.rank, 2):
            u, v = Q.h.elem(i), Q.h.elem(j)
            fv = f.value((j,))
            fu = f.value((i,))
            mu_T = Qt.mu.value((i, j))
            r = (
                zeta_value(Q, T, u, fv)
                - permute(zeta_value(Q, T, v, fu), SWAP2)
                - insert_value(f, (), mu_T, ())
            )
            if not r.is_zero():
                direct[(i, j)] = r
        differential = handle.diff(f).terms
    else:
        raise InputError("cocycle certificates cover n in {1, 2}")
    return _cocycle_report(direct, differential, convention)


def zeta_value(Q: QuasiTwilled, T: HModuleMap, u: PTElem, x: PTElem) -> PTElem:
    """zeta(u (x) x) by direct expansion of the matched-pair reorientation."""
    nat = (
        Q.eta.eval([x, u])
        + Q.pi.eval([x, T(u)])
        - Q.rho.eval([x, u]).map_module(T.apply_basis, T.dst)
        - Q.theta.eval([x, T(u)]).map_module(T.apply_basis, T.dst)
    )
    return permute(nat, SWAP2).scale(-1)


def ce_diff_matched_type2(Q: QuasiTwilled, T: HModuleMap, f: Cochain) -> Cochain:
    """The matched-pair d^T, expanded from the Def-4.23 closed forms directly.

    Independent of the twist machinery: mu^T and zeta are rebuilt inline from
    mu, rho, eta, pi and T (theta must vanish), then the classical CE sum is
    expanded without going through the generic handle.
    """
    if not Q.theta.is_zero():
        raise InputError("matched-pair specialization needs theta = 0")
    h, g = Q.h, Q.g
    p = f.arity
    table = {}
    for t in sorted_tuples(h.rank, p + 1):
        acc = PTElem.zero(g, p + 1)
        for i in range(1, p + 2):
            rest = t[: i - 1] + t[i:]
            inner = f.value(rest)
            if inner.is_zero():
                continue
            ui = Q.h.elem(t[i - 1])

            def zeta_at(k):
                x = g.elem(k)
                nat = (
                    Q.eta.eval([x, ui])
                    + Q.pi.eval([x, T(ui)])
                    - Q.rho.eval([x, ui]).map_module(T.apply_basis, T.dst)
                )
                return permute(nat, SWAP2).scale(-1)

            comp = insert_raw(zeta_at, 2, g, 1, inner)
            dest = [0] * (p + 1)
            dest[0] = i - 1
            for s in range(1, p + 1):
                dest[s] = s - 1 if s - 1 < i - 1 else s
            acc = acc + permute(comp, dest).scale((-1) ** (i + 1))
        for i in range(1, p + 1):
            for j in range(i + 1, p + 2):
                ui, uj = Q.h.elem(t[i - 1]), Q.h.elem(t[j - 1])
                rest = tuple(t[k] for k in range(p + 1) if k not in (i - 1, j - 1))
                mu_T = (
                    Q.mu.value((t[i - 1], t[j - 1]))
                    + Q.rho.eval([T(ui), uj])
                    - permute(Q.rho.eval([T(uj), ui]), SWAP2)
                )
                if mu_T.is_zero():
                    continue
                comp = insert_value(f, (), mu_T, rest)
                dest = [0] * (p + 1)
                dest[0], dest[1] = i - 1, j - 1
                spots = [s for s in range(p + 1) if s not in (i - 1, j - 1)]
                for s, spot in enumerate(spots):
                    dest[2 + s] = spot
                acc = acc + permute(comp, dest).scale((-1) ** (i + j))
        if not acc.is_zero():
            table[t] = acc
    return Cochain(p + 1, h, g, table)


# -- rank-2 residual polynomials (against the ring evaluation) ---------------------


def _interpolate_quadratics(ev, n: int, symbols) -> list:
    """Exact polynomials of degree <= 2 from their values at sample points.

    ev(vec) maps an assignment of the n unknowns to {coordinate key: value}.
    Each coordinate is a polynomial of total degree <= 2 in the unknowns, so
    its values at 0, e_i, 2 e_i and e_i + e_j determine it.  Returns the
    nonzero polynomials, ordered by the repr of their keys.

    This is the independent route to `Rank2Problem.residual_polynomials`:
    1 + 2n + n(n-1)/2 rational evaluations instead of one ring evaluation.
    """
    zero = [0] * n
    f0 = ev(zero)
    f1, f2 = [], []
    for i in range(n):
        v = list(zero)
        v[i] = 1
        f1.append(ev(v))
        v[i] = 2
        f2.append(ev(v))
    fx = {}
    for i, j in itertools.combinations(range(n), 2):
        v = list(zero)
        v[i] = v[j] = 1
        fx[(i, j)] = ev(v)
    keys = set(f0)
    for d in f1 + f2 + list(fx.values()):
        keys |= set(d)
    polys = []
    for key in sorted(keys, key=repr):
        c0 = f0.get(key, 0)
        terms = [sympy.Rational(c0)]
        lin, quad = {}, {}
        for i in range(n):
            a1 = f1[i].get(key, 0) - c0
            a2 = f2[i].get(key, 0) - c0
            qii = exact_div(a2 - 2 * a1, 2)
            li = a1 - qii
            lin[i], quad[(i, i)] = li, qii
            if li:
                terms.append(sympy.Rational(li) * symbols[i])
            if qii:
                terms.append(sympy.Rational(qii) * symbols[i] ** 2)
        for (i, j), d in fx.items():
            qij = d.get(key, 0) - c0 - lin[i] - lin[j] - quad[(i, i)] - quad[(j, j)]
            if qij:
                terms.append(sympy.Rational(qij) * symbols[i] * symbols[j])
        expr = sympy.Add(*terms)
        if expr != 0:
            polys.append(sympy.expand(expr))
    return polys
