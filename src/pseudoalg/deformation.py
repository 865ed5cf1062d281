"""Deformation maps of both types, twisting, and the controlling operators.

Type I maps D: g -> h deform along the graph construction; type II maps
T: h -> g solve a quadratic-cubic identity.  `structures.orientation` and
`dmap_residual` are where a type's direction and defining residual are
looked up.  Each residual is computed three independent ways and the routes
are asserted against each other:

  * the defining identity, expanded componentwise;
  * the twisted bracket e^{[., M]_NR} Omega (series, with termination bound);
  * the conjugated bracket e^{-M} o Omega o (e^M (x) e^M).

The type I twist is again quasi-twilled.  The type II twist has a sixth
component xi: h (x) h -> g, which is the defining residual of T, so
`twist2_components` returns the pair (five components as a QuasiTwilled, xi)
and the twisted bracket is that QuasiTwilled's Omega plus the lift of xi.

Both types are controlled by one curved L-infinity algebra of higher derived
brackets (Voronov): l_k nests the NR bracket of a generator Gamma_k, built
from Omega's components, with the lifted arguments and extracts the block
(exactly: the bidegree bookkeeping discards nothing, and `extract_pure`
refuses a component outside the block).  Only the table of l0 and the
generators depends on the type (`LinfOps`).  Twisting by a deformation map M gives
l_k^M = sum_n l_{n+k}(M, ..., M, -)/n! (`TwistedLinfOps`).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .hopf import InputError, InternalInvariantError
from .ptensor import PTElem, permute
from .cochains import (
    Cochain,
    HModuleMap,
    MixedMap,
    _part_name,
    extract_pure,
    lift,
    nr_bracket,
    random_cochain,
    shuffles,
    sorted_tuples,
)
from .structures import TYPE_I, TYPE_II, QuasiTwilled, orientation

SWAP2 = (1, 0)  # transposition of the two slots of an arity-2 value


def _check_orientation(Q: QuasiTwilled, M: HModuleMap, kind: str):
    src, dst = orientation(Q, kind)
    if (M.src, M.dst) != (src, dst):
        raise InputError(f"type {kind} maps go {src.name} -> {dst.name}")


def dmap_residual(Q: QuasiTwilled, M: HModuleMap, kind: str) -> Cochain:
    """The defining residual of a map of the given type (dmap1 or dmap2)."""
    return dmap1_residual(Q, M) if kind == TYPE_I else dmap2_residual(Q, M)


# -- defining residuals ---------------------------------------------------------


def dmap1_residual(Q: QuasiTwilled, D: HModuleMap) -> Cochain:
    """Defining residual of a type I map: (h-side) - D(g-side), per basis pair."""
    return _type1_tables(Q, D)[1]


def _type1_tables(Q: QuasiTwilled, D: HModuleMap) -> tuple:
    """(pi^D table, defining residual) of a type I map.

    pi^D(x, y) = pi(x, y) + eta(x, Dy) - (12) eta(y, Dx) is the g-side of the
    residual, so the twist takes both from one evaluation.
    """
    _check_orientation(Q, D, TYPE_I)
    pi_d, table = {}, {}
    for i, j in sorted_tuples(Q.g.rank, 2):
        x, y = Q.g.elem(i), Q.g.elem(j)
        Dx, Dy = D(x), D(y)
        gside = pi_d[(i, j)] = (
            Q.pi.value((i, j))
            + Q.eta.eval([x, Dy])
            - permute(Q.eta.eval([y, Dx]), SWAP2)
        )
        hside = (
            Q.mu.eval([Dx, Dy])
            + Q.rho.eval([x, Dy])
            - permute(Q.rho.eval([y, Dx]), SWAP2)
            + Q.theta.value((i, j))
        )
        table[(i, j)] = hside - gside.map_module(D.apply_basis, D.dst)
    return pi_d, Cochain(2, Q.g, Q.h, table)


def dmap2_residual(Q: QuasiTwilled, T: HModuleMap) -> Cochain:
    """Defining residual of a type II map: (g-side) - T(h-side), per basis pair."""
    return _type2_tables(Q, T)[1]


def _type2_tables(Q: QuasiTwilled, T: HModuleMap) -> tuple:
    """(mu^T table, defining residual) of a type II map.

    mu^T(u, v) = mu(u, v) + rho(Tu, v) - (12) rho(Tv, u) + theta(Tu, Tv) is
    the h-side of the residual, so the twist takes both from one evaluation.
    """
    _check_orientation(Q, T, TYPE_II)
    mu_t, table = {}, {}
    for i, j in sorted_tuples(Q.h.rank, 2):
        u, v = Q.h.elem(i), Q.h.elem(j)
        Tu, Tv = T(u), T(v)
        rho_uv, rho_vu = Q.rho.eval([Tu, v]), permute(Q.rho.eval([Tv, u]), SWAP2)
        mu, theta = Q.mu.value((i, j)), Q.theta.eval([Tu, Tv])
        mu_t[(i, j)] = mu + rho_uv - rho_vu + theta
        gside = (
            Q.pi.eval([Tu, Tv])
            + Q.eta.eval([Tu, v])
            - permute(Q.eta.eval([Tv, u]), SWAP2)
        )
        hside = rho_uv - rho_vu + mu + theta
        table[(i, j)] = gside - hside.map_module(T.apply_basis, T.dst)
    return mu_t, Cochain(2, Q.h, Q.g, table)


def exp_twist(Q: QuasiTwilled, M: HModuleMap, kind: str) -> Cochain:
    """e^{[., M]_NR} Omega, summed until the next term vanishes (bound 4 terms).

    The bidegree shift of ad_M makes the series nilpotent on arity-2 cochains;
    a nonzero fifth term would violate that invariant and aborts.
    """
    _check_orientation(Q, M, kind)
    mhat = lift(M.as_cochain(), Q.G)  # bidegree 1|-1 or -1|1
    acc = Q.omega()
    term = acc
    k = 0
    while True:
        term = nr_bracket(term, mhat)
        k += 1
        if term.is_zero():
            break
        if k >= 4:
            raise InternalInvariantError("twist series failed to terminate in 4 terms")
        acc = acc + term.scale(Fraction(1, factorial(k)))
    return acc


def conjugate_twist(Q: QuasiTwilled, M: HModuleMap) -> Cochain:
    """e^{-M} o Omega o (e^M (x) e^M), computed on basis pairs of G."""
    om = Q.omega()
    G = Q.G
    endo = lift(M.as_cochain(), G)  # the square-zero endomorphism of G

    def exp_plus(k: int) -> PTElem:
        return G.elem(k) + endo.value((k,))

    def exp_minus(k: int) -> PTElem:
        return G.elem(k) - endo.value((k,))

    table = {
        t: om.eval([exp_plus(t[0]), exp_plus(t[1])]).map_module(exp_minus, G)
        for t in sorted_tuples(G.rank, 2)
    }
    return Cochain(2, G, G, table)


def twist1_components(Q: QuasiTwilled, D: HModuleMap) -> QuasiTwilled:
    """Closed-form components of the type I twist (five substructures).

    Always quasi-twilled: mu and eta are untouched; the twisted theta is the
    defining residual, so D is a deformation map iff it vanishes.
    """
    g, h = Q.g, Q.h
    pi_t, theta = _type1_tables(Q, D)
    rho_t = {}
    for i in range(g.rank):
        for j in range(h.rank):
            rho_t[(i, j)] = (
                Q.rho.value((i, j))
                + Q.mu.eval([D(g.elem(i)), h.elem(j)])
                - Q.eta.value((i, j)).map_module(D.apply_basis, D.dst)
            )
    return QuasiTwilled(
        g,
        h,
        pi=Cochain(2, g, g, pi_t),
        rho=MixedMap(g, h, h, rho_t),
        mu=Q.mu,
        eta=Q.eta,
        theta=theta,
        G=Q.G,
    )


def _twist_routes(Q: QuasiTwilled, M: HModuleMap, kind: str, closed: Cochain, is_dmap: bool) -> dict:
    """Cross-check a closed-form twisted Omega against the bracket series and the conjugation."""
    series = exp_twist(Q, M, kind)
    conj = conjugate_twist(Q, M)
    return {
        "closed_form_equals_series": closed == series,
        "series_equals_conjugation": series == conj,
        "is_dmap": is_dmap,
    }


def twist1(Q: QuasiTwilled, D: HModuleMap) -> tuple:
    """Type I twist with the closed form cross-checked against both the
    bracket series and the conjugated bracket."""
    out = twist1_components(Q, D)
    return out, _twist_routes(Q, D, TYPE_I, out.omega(), out.theta.is_zero())


def twist2_components(Q: QuasiTwilled, T: HModuleMap) -> tuple:
    """Closed-form type II twist as (Qt, xi): Qt holds the other five, PC iff xi = 0.

    xi, the type II defining residual (g-side) - T(h-side), comes from the
    same pass over h pairs as mu^T.
    """
    mu_t, xi = _type2_tables(Q, T)
    g, h = Q.g, Q.h
    pi_t, theta_t = {}, {}
    for i, j in sorted_tuples(g.rank, 2):
        pi_t[(i, j)] = Q.pi.value((i, j)) - Q.theta.value((i, j)).map_module(T.apply_basis, T.dst)
        theta_t[(i, j)] = Q.theta.value((i, j))
    rho_t, eta_t = {}, {}
    for i in range(g.rank):
        for j in range(h.rank):
            x, Tv = g.elem(i), T(h.elem(j))
            theta_xTv = Q.theta.eval([x, Tv])
            rho_t[(i, j)] = Q.rho.value((i, j)) + theta_xTv
            eta_t[(i, j)] = (
                Q.eta.value((i, j))
                + Q.pi.eval([x, Tv])
                - Q.rho.value((i, j)).map_module(T.apply_basis, T.dst)
                - theta_xTv.map_module(T.apply_basis, T.dst)
            )
    Qt = QuasiTwilled(
        g,
        h,
        pi=Cochain(2, g, g, pi_t),
        rho=MixedMap(g, h, h, rho_t),
        mu=Cochain(2, h, h, mu_t),
        eta=MixedMap(g, h, g, eta_t),
        theta=Cochain(2, g, h, theta_t),
        G=Q.G,
    )
    return Qt, xi


def twist2(Q: QuasiTwilled, T: HModuleMap) -> tuple:
    """Type II twist as ((Qt, xi), routes): the closed form cross-checked against both routes."""
    Qt, xi = twist2_components(Q, T)
    closed = Qt.omega() + lift(xi, Q.G)
    return (Qt, xi), _twist_routes(Q, T, TYPE_II, closed, xi.is_zero())


# -- derived controlling operators ----------------------------------------------


class LinfOps:
    """The curved L-infinity algebra controlling one deformation-map type.

    Both types take the higher derived brackets of Omega's components
    (Voronov): l0 is a fixed block cochain and, for k >= 1,

        l_k(f_1, ..., f_k) = P [...[[Gamma_k, f_1]_NR, f_2]_NR, ..., f_k]_NR,

    where the f_i are lifted to G, Gamma_k is the lifted generator of the
    type and P extracts the block, asserting that nothing leaks outside it.
    Only the table differs between the types:

        type I  on C^*(g, h): l0 = theta, Gamma_1 = pi + rho, Gamma_2 = mu + eta;
        type II on C^*(h, g): l0 = 0, Gamma_1 = mu + eta, Gamma_2 = pi + rho,
                              Gamma_3 = theta.

    The table keeps l0 itself under 0.  A bracket with no entry is the zero
    cochain.
    """

    def __init__(self, Q: QuasiTwilled, kind: str):
        self.Q = Q
        G = Q.G
        pr = lift(Q.pi, G) + lift(Q.rho, G)
        me = lift(Q.mu, G) + lift(Q.eta, G)
        self.src, self.tgt = orientation(Q, kind)
        self.parts = (_part_name(G, self.src), _part_name(G, self.tgt))
        if kind == TYPE_I:
            self.gens = {0: Q.theta, 1: pr, 2: me}
        else:
            self.gens = {1: me, 2: pr, 3: lift(Q.theta, G)}

    def bracket(self, k: int, args) -> Cochain:
        """l_k(args), of arity 2 + sum of the argument arities - k."""
        for f in args:
            if (f.source, f.target) != (self.src, self.tgt):
                raise InputError("argument cochain has the wrong block signature")
        arity = 2 + sum(f.arity for f in args) - k
        out = self.gens.get(k)
        if out is None:
            return Cochain.zero(arity, self.src, self.tgt)
        if k == 0:
            return out
        for f in args:
            out = nr_bracket(out, lift(f, self.Q.G))
        return extract_pure(out, *self.parts)

    def l0(self) -> Cochain:
        return self.bracket(0, ())

    def l1(self, f: Cochain) -> Cochain:
        return self.bracket(1, (f,))

    def l2(self, f: Cochain, g: Cochain) -> Cochain:
        return self.bracket(2, (f, g))

    def l3(self, f: Cochain, g: Cochain, h: Cochain) -> Cochain:
        return self.bracket(3, (f, g, h))

    def mc_terms(self, M: HModuleMap) -> list:
        """[l_k(M, ..., M) / k! for k = 0..3], the terms of the MC residual."""
        Mc = M.as_cochain()
        return [self.bracket(k, (Mc,) * k).scale(Fraction(1, factorial(k))) for k in range(4)]

    def mc_residual(self, M: HModuleMap) -> Cochain:
        """Sum of the MC terms; equals the defining residual of M (asserted in tests)."""
        terms = self.mc_terms(M)
        return sum(terms[1:], terms[0])


def curved_l_type1(Q: QuasiTwilled) -> LinfOps:
    return LinfOps(Q, TYPE_I)


def curved_l_type2(Q: QuasiTwilled) -> LinfOps:
    return LinfOps(Q, TYPE_II)


class TwistedLinfOps(LinfOps):
    """The operators twisted by a valid deformation map M (Theorems on M + M').

    l_k^M(f_1, ..., f_k) = sum_{n >= 0} l_{n+k}(M, ..., M, f_1, ..., f_k) / n!
    with n copies of M, and l_0^M = 0 because M solves the MC equation; so
    the twisted MC residual of M' is the MC residual of M + M'.
    """

    def __init__(self, Q: QuasiTwilled, M: HModuleMap, kind: str):
        if not dmap_residual(Q, M, kind).is_zero():
            raise InputError("twisting requires a valid deformation map")
        super().__init__(Q, kind)
        self.Mc = M.as_cochain()

    def bracket(self, k: int, args) -> Cochain:
        if k == 0:
            return Cochain.zero(2, self.src, self.tgt)
        out = super().bracket(k, args)
        for n in range(1, max(self.gens) - k + 1):
            term = super().bracket(n + k, (self.Mc,) * n + tuple(args))
            out = out + term.scale(Fraction(1, factorial(n)))
        return out


# -- higher Jacobi identities ----------------------------------------------------


def _koszul_sign(order, degrees) -> int:
    """Koszul sign for rearranging graded objects into the given order."""
    sign = 1
    for a in range(len(order)):
        for b in range(a + 1, len(order)):
            if order[a] > order[b] and degrees[order[a]] % 2 and degrees[order[b]] % 2:
                sign = -sign
    return sign


def linf_identity_residual(ops, n: int, args) -> Cochain:
    """Residual of the n-th curved higher-Jacobi identity on given arguments.

    sum_{i=0..n} sum_{(i, n-i)-shuffles} eps(sigma)
        l_{n-i+1}(l_i(x_{sigma(1..i)}), x_{sigma(i+1..n)});
    graded symmetric convention, Koszul signs from degrees arity-1.
    """
    if len(args) != n:
        raise InputError("argument count must equal the identity arity")
    degrees = [f.arity - 1 for f in args]
    acc = None
    for i in range(0, n + 1):
        for order, _sign in shuffles(i, n - i):
            head = [args[k] for k in order[:i]]
            tail = [args[k] for k in order[i:]]
            inner = ops.bracket(i, head)
            term = ops.bracket(1 + len(tail), [inner] + tail)
            sign = _koszul_sign(order, degrees)
            term = term.scale(sign)
            acc = term if acc is None else acc + term
    return acc


def linf_jacobi_check(ops, max_arity: int, rng, samples: int = 2) -> dict:
    """Higher-Jacobi identities for n = 1..max_arity on seeded random cochains.

    Curvature identities included: n=1 is l1(l1 x) + l2(l0, x) = 0 for curved
    type I.  Returns per-n verdicts with any nonzero residual kept.
    """
    if max_arity < 1:
        raise InputError("max_arity must be at least 1")
    if max_arity > 4:
        raise InputError("max_arity is capped at 4")
    out = {"ok": True, "identities": {}}
    # n = 0 identity: l1(l0) = 0
    l0 = ops.l0()
    if not l0.is_zero():
        r0 = ops.l1(l0)
        out["identities"][0] = r0.is_zero()
        out["ok"] &= r0.is_zero()
    for n in range(1, max_arity + 1):
        good = True
        for s in range(samples):
            args = []
            for _ in range(n):
                ar = rng.choice([1, 2]) if n <= 3 else 1
                args.append(random_cochain(rng, ops.src, ops.tgt, ar, max_deg=1))
            resid = linf_identity_residual(ops, n, args)
            if not resid.is_zero():
                good = False
                out.setdefault("failures", []).append((n, s))
        out["identities"][n] = good
        out["ok"] &= good
    return out
