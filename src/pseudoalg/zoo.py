"""Builders for the named example structures and operator-identity residuals.

The ten operator kinds share one recipe.  KIND_INGREDIENTS lists the
classical ingredients each kind has besides its Lie pseudoalgebra g: a
coefficient algebra h or a module, an action of g, a 2-cocycle, a coaction
and a weight; an algebra is its bracket `Cochain`.  `build` places them in
a quasi-twilled structure (pi = g's bracket, rho = the action, mu = weight *
h's bracket, eta = the coaction, theta = the cocycle, or +-g's bracket for
the two Reynolds kinds), checked by PC1-PC8, which check the algebras too;
`ingredients_from_structure` reads the same keys back off Q.
modified_r alone is placed apart: pi = 0, h is a copy of g with mu its
bracket, eta is g's bracket read on g (x) h and theta = weight * g's bracket.

`operator_residual` expands the printed identity of a kind directly from
brackets and actions, WITHOUT the quasi-twilled machinery, in one of three
shapes, skipping the terms of absent ingredients:

    modified r-matrix   [Dx,Dy] - D([Dx,y] + [x,Dy]) + p[x,y]
    crossed hom (I)     D[x,y] - rho(x)Dy + rho(y)Dx - p[Dx,Dy]_h
    Rota-Baxter (II)    [Tu,Tv] + eta(Tu)v - eta(Tv)u
                            - T(rho(Tu)v - rho(Tv)u + p[u,v]_h + omega(Tu,Tv))

dictionary_check crosses the two sides: the operator residual equals the
deformation-map residual of the same map, term by term up to a sign per
shape.  map_type names a kind's map type; structures.orientation and
deformation.dmap_residual give each type's direction and residual.

The curated structures run over one H = Q[d]: `builtin` and `demo_bundle`
take it as `alg`, and `zoo_structures` makes one per call, so its structures
share that algebra's kernel memos (`tests/test_zoo.py` checks that sharing
them changes no value).  A kind's demo is data, not a branch: its weight,
the scalar of its map c * id and the shape of its ingredients.
"""

from __future__ import annotations

from fractions import Fraction

from .hopf import InputError, LieAlgebra, exact_div
from .ptensor import FreeModule, PTElem, canonicalize, permute
from .cochains import Cochain, HModuleMap, MixedMap, sorted_tuples
from .structures import (
    ALL_KINDS,
    CLASSICAL,
    CROSSED_HOM,
    DERIVATION,
    HOMOMORPHISM,
    MATCHED_PAIR_DEF,
    MODIFIED_R,
    O_OPERATOR,
    RELATIVE_RB,
    REYNOLDS,
    REYNOLDS_CLASSICAL,
    TWISTED_RB,
    TYPE_I,
    TYPE_I_KINDS,
    TYPE_II,
    QuasiTwilled,
    orientation,
    require_pc,
)
from .deformation import SWAP2, dmap_residual
from .cohomology import ce_differential


def map_type(kind: str) -> str:
    """The deformation-map type (I or II) of the maps an operator kind is about."""
    return TYPE_I if kind in TYPE_I_KINDS else TYPE_II


# -- base ingredients -------------------------------------------------------------


def polynomial_hopf() -> LieAlgebra:
    """H = Q[d], the enveloping algebra of the abelian line."""
    return LieAlgebra.abelian(["d"])


def nonabelian_2dim() -> LieAlgebra:
    """The 2-dim solvable algebra [a1, a2] = a2."""
    return LieAlgebra(["a1", "a2"], {(0, 1): {1: Fraction(1)}})


def sl2_constants() -> dict:
    """sl2 with basis (e, f, h): [e,f]=h, [h,e]=2e, [h,f]=-2f."""
    return {
        (0, 1): {2: Fraction(1)},
        (2, 0): {0: Fraction(2)},
        (2, 1): {1: Fraction(-2)},
    }


def virasoro(name="g", basis="x", alg=None) -> Cochain:
    """Rank-1 pseudoalgebra over Q[d] with [x*x] = (d(x)1 - 1(x)d) (x)_H x."""
    alg = alg or polynomial_hopf()
    m = FreeModule(name, [basis], alg)
    val = canonicalize(
        m,
        2,
        [(((1,), (0,)), (0,), 0, Fraction(1)), (((0,), (1,)), (0,), 0, Fraction(-1))],
    )
    return Cochain(2, m, m, {(0, 0): val})


def current(base: LieAlgebra, alg: LieAlgebra, name="cur") -> Cochain:
    """Cur(b) = H (x) b with [e_i * e_j] = (1 (x) 1) (x)_H [b-bracket]."""
    m = FreeModule(name, [f"e_{n}" for n in base.names], alg)
    zero2 = (alg.zero_index, alg.zero_index)
    table = {}
    for i, j in sorted_tuples(base.dim, 2):
        row = base.bracket(i, j)
        if not row:
            continue
        terms = {((alg.zero_index,), alg.zero_index, k): c for k, c in row.items()}
        table[(i, j)] = PTElem(m, 2, terms)
    return Cochain(2, m, m, table)


def clone_bracket(P: Cochain, name: str) -> Cochain:
    """A fresh module carrying the same bracket table."""
    m = FreeModule(name, [f"{b}'" for b in P.source.basis], P.source.alg)
    return Cochain(2, m, m, {t: v.coerce(m) for t, v in P.terms.items()})


def direct_sum_algebras(P1: Cochain, P2: Cochain, name="gg") -> Cochain:
    """Commuting sum of two pseudoalgebras as one rank-(r1+r2) algebra."""
    m = FreeModule(
        name,
        [f"{b}.1" for b in P1.source.basis] + [f"{b}.2" for b in P2.source.basis],
        P1.source.alg,
    )
    r1 = P1.source.rank
    table = {}
    for t, v in P1.terms.items():
        table[t] = v.coerce(m)
    for t, v in P2.terms.items():
        table[tuple(i + r1 for i in t)] = v.coerce(m, lambda k: k + r1)
    return Cochain(2, m, m, table)


def adjoint_action(P: Cochain, hmod: FreeModule) -> MixedMap:
    """ad (+) ... (+) ad: P acting by its bracket on each copy of itself in hmod.

    hmod is a direct sum of copies of P's module, in blocks of P's rank; one
    copy is the adjoint action on a same-rank module.
    """
    r = P.source.rank
    if hmod.rank % r:
        raise InputError("module rank must be a multiple of the algebra rank")
    table = {}
    for i in range(r):
        for block in range(hmod.rank // r):
            for j in range(r):
                v = P.value((i, j))
                if not v.is_zero():
                    table[(i, block * r + j)] = v.coerce(hmod, lambda k, b=block: b * r + k)
    return MixedMap(P.source, hmod, hmod, table)


# -- structure builders -----------------------------------------------------------

# The classical ingredients of each operator kind besides its "algebra", the
# bracket of the Lie pseudoalgebra g.  Its h is the source of the bracket
# "coefficients" or a bare "module" (modified_r's h is a copy of g);
# "action" is a map g (x) h -> h, "cocycle" a 2-cochain g (x) g -> h,
# "coaction" a map g (x) h -> g and "weight" an exact scalar.
KIND_INGREDIENTS = {
    MODIFIED_R: ("weight",),
    CROSSED_HOM: ("coefficients", "action", "weight"),
    DERIVATION: ("module", "action"),
    HOMOMORPHISM: ("coefficients",),
    RELATIVE_RB: ("coefficients", "action", "weight"),
    O_OPERATOR: ("module", "action"),
    TWISTED_RB: ("module", "action", "cocycle"),
    REYNOLDS: ("module", "action"),
    REYNOLDS_CLASSICAL: ("module", "action"),
    MATCHED_PAIR_DEF: ("coefficients", "action", "coaction"),
}
# A Reynolds kind's cocycle is g's bracket read in its module, with this sign.
REYNOLDS_SIGNS = {REYNOLDS: 1, REYNOLDS_CLASSICAL: -1}


def _kind_ingredients(kind: str) -> tuple:
    if kind not in KIND_INGREDIENTS:
        raise InputError(f"unknown operator kind {kind!r}")
    return KIND_INGREDIENTS[kind]


def _bracket_into(P: Cochain, M: FreeModule, c) -> Cochain:
    """c times the bracket P, read as a 2-cochain on P's module into M (same rank)."""
    return Cochain(2, P.source, M, {t: v.coerce(M).scale(c) for t, v in P.terms.items()})


def _h_side(ingredients: dict) -> FreeModule:
    hP = ingredients.get("coefficients")
    return ingredients["module"] if hP is None else hP.source


def _cocycle(kind: str, ingredients: dict, h: FreeModule):
    """The twisting 2-cocycle g (x) g -> h, or None when the kind has none."""
    if kind in REYNOLDS_SIGNS:
        return _bracket_into(ingredients["algebra"], h, REYNOLDS_SIGNS[kind])
    return ingredients.get("cocycle")


def build(kind: str, ingredients: dict) -> QuasiTwilled:
    """Assemble the quasi-twilled structure of the given kind; PC-validated.

    Ingredient axioms (Lie, action, cocycle) are what check_pc verifies on the
    assembled tuple, so a bad ingredient surfaces as a labeled residual; a
    twisting term that is not a 2-cocycle fails PC3.  An ingredient the kind
    does not have is refused.
    """
    extra = set(ingredients) - {"algebra", *_kind_ingredients(kind)}
    if extra:
        raise InputError(f"{kind} takes no {', '.join(sorted(extra))}")
    gP = ingredients["algebra"]
    p = ingredients.get("weight", 1)
    if kind == MODIFIED_R:
        g = gP.source
        hP = clone_bracket(gP, g.name + "_h")
        eta = MixedMap(g, hP.source, g,
                       {(i, j): gP.value((i, j)) for i in range(g.rank) for j in range(g.rank)})
        Q = QuasiTwilled(g, hP.source, eta=eta, mu=hP, theta=_bracket_into(gP, hP.source, p))
    else:
        hP, h = ingredients.get("coefficients"), _h_side(ingredients)
        Q = QuasiTwilled(
            gP.source,
            h,
            pi=gP,
            rho=ingredients.get("action"),
            mu=None if hP is None else hP.scale(p),
            eta=ingredients.get("coaction"),
            theta=_cocycle(kind, ingredients, h),
        )
    return require_pc(Q, "ingredients violate the structure axioms")


def ingredients_from_structure(kind: str, Q: QuasiTwilled, weight=None) -> dict:
    """Invert `build`: read the kind's ingredients off the components of Q.

    `weight` is the exact scalar of the kinds whose KIND_INGREDIENTS has one
    (modified_r, crossed_hom, relative_rb); the others refuse one.
    """
    have = _kind_ingredients(kind)
    if "weight" in have and weight is None:
        raise InputError(f"a weight is required for {kind}")
    if "weight" not in have and weight is not None:
        raise InputError(f"{kind} takes no weight")
    if kind == MODIFIED_R:
        table = {(i, j): Q.eta.value((i, j)) for i in range(Q.g.rank) for j in range(i, Q.g.rank)}
        return {"algebra": Cochain(2, Q.g, Q.g, table), "weight": weight}
    ing = {"algebra": Q.pi, "module": Q.h, "action": Q.rho,
           "cocycle": Q.theta, "coaction": Q.eta, "weight": weight}
    if "coefficients" in have:
        ing["coefficients"] = Q.mu.scale(exact_div(1, weight)) if weight else Q.mu
    return {key: ing[key] for key in ("algebra", *have)}


# -- operator residuals (independent expansions) ------------------------------------


def operator_residual(kind: str, ingredients: dict, m: HModuleMap) -> Cochain:
    """The printed operator identity's residual, expanded without Q machinery.

    One expansion per printed shape (module docstring); an absent
    ingredient's terms are skipped, and a kind without a weight has p = 1.
    """
    br = ingredients["algebra"]
    g = br.source
    if kind == MODIFIED_R:
        p = ingredients["weight"]
        if (m.src, m.dst) != (g, g):
            # a map between same-rank copies of the module, read on the module
            m = HModuleMap(g, g, {i: row.coerce(g) for i, row in m.terms.items()})
        table = {}
        for t in sorted_tuples(g.rank, 2):
            x, y = g.elem(t[0]), g.elem(t[1])
            table[t] = (
                br.eval([m(x), m(y)])
                - (br.eval([m(x), y]) + br.eval([x, m(y)])).map_module(m.apply_basis, m.dst)
                + br.value(t).scale(p)
            )
        return Cochain(2, g, g, table)
    rho, hP = ingredients.get("action"), ingredients.get("coefficients")
    p = ingredients.get("weight", 1)
    h = _h_side(ingredients)
    table = {}
    if map_type(kind) == TYPE_I:  # the crossed-homomorphism shape
        for t in sorted_tuples(g.rank, 2):
            x, y = g.elem(t[0]), g.elem(t[1])
            r = br.value(t).map_module(m.apply_basis, m.dst)
            if rho is not None:
                r = r - rho.eval([x, m(y)]) + permute(rho.eval([y, m(x)]), SWAP2)
            if hP is not None:
                r = r - hP.eval([m(x), m(y)]).scale(p)
            table[t] = r
        return Cochain(2, g, h, table)
    eta, cocycle = ingredients.get("coaction"), _cocycle(kind, ingredients, h)
    for t in sorted_tuples(h.rank, 2):  # the Rota-Baxter shape
        u, v = h.elem(t[0]), h.elem(t[1])
        Tu, Tv = m(u), m(v)
        inner = PTElem.zero(h, 2)
        if rho is not None:
            inner = rho.eval([Tu, v]) - permute(rho.eval([Tv, u]), SWAP2)
        if hP is not None:
            inner = inner + hP.value(t).scale(p)
        if cocycle is not None:
            inner = inner + cocycle.eval([Tu, Tv])
        r = br.eval([Tu, Tv]) - inner.map_module(m.apply_basis, m.dst)
        if eta is not None:
            r = r + eta.eval([Tu, v]) - permute(eta.eval([Tv, u]), SWAP2)
        table[t] = r
    return Cochain(2, h, g, table)


def random_hmap(rng, src: FreeModule, dst: FreeModule, max_deg=2) -> HModuleMap:
    """Seeded random H-linear map with small integral coefficients."""
    alg = src.alg
    rows = {}
    for i in range(src.rank):
        row = {}
        for j in range(dst.rank):
            for _ in range(2):
                deg = rng.randint(0, max_deg)
                mi = [0] * alg.dim
                for _k in range(deg):
                    mi[rng.randrange(alg.dim)] += 1
                c = rng.choice([-2, -1, 0, 1, 2])
                if c:
                    key = ((), tuple(mi), j)
                    row[key] = row.get(key, 0) + c
        rows[i] = PTElem(dst, 1, row)
    return HModuleMap(src, dst, rows)


def dictionary_check(kind: str, ingredients: dict, m: HModuleMap, rng=None, trials=0, Q=None) -> dict:
    """operator identity residual = sign * deformation-map residual, term by term.

    sign is -1 for the crossed-homomorphism shape and +1 for the other two;
    modified_r's residual, a cochain on g, is read on the deformation
    residual's target, a copy of g.  Checked on the given map; with an rng,
    also on `trials` seeded random maps of the right orientation.
    """
    if Q is None:
        Q = build(kind, ingredients)
    mtype = map_type(kind)
    sign = -1 if mtype == TYPE_I and kind != MODIFIED_R else 1
    src, dst = orientation(Q, mtype)

    def one(mp):
        op = operator_residual(kind, ingredients, mp)
        df = dmap_residual(Q, mp, mtype)
        read = {t: v.coerce(df.target).scale(sign) for t, v in op.terms.items()}
        return Cochain(2, op.source, df.target, read) == df, op, df

    ok, op, df = one(m)
    for _ in range(trials):
        ok = one(random_hmap(rng, src, dst))[0] and ok
    return {"ok": ok, "operator_residual": op, "deformation_residual": df}


# -- curated instances --------------------------------------------------------------

# The weight p of each weighted kind's demo.
DEMO_WEIGHTS = {MODIFIED_R: 4, CROSSED_HOM: 1, RELATIVE_RB: 2}
# The demo map c * id in orientation(Q, map_type(kind)), a root of the kind's
# identity on Virasoro; relative_rb's diag(-p, 0) is the one map built apart.
DEMO_SCALARS = {
    MODIFIED_R: 2,  # c^2 = p
    CROSSED_HOM: -1,  # c (1 + p c) = 0
    DERIVATION: 0,
    HOMOMORPHISM: 1,  # c^2 = c
    O_OPERATOR: 0,
    TWISTED_RB: 1,  # the cocycle is -d_CE(id)
    REYNOLDS: -1,  # c^2 (1 + c) = 0
    REYNOLDS_CLASSICAL: 1,  # c^2 (1 - c) = 0
    MATCHED_PAIR_DEF: 1,  # c^2 = c
}
DEMO_ALIASES = {"modified_r_demo": MODIFIED_R, "reynolds_demo": REYNOLDS}


def builtin(name: str, alg=None):
    """Deterministic named structures: an algebra's bracket, which check_lie
    passes, a quasi-twilled structure, or a kind's PC-checked demo_bundle.

    Those over Q[d] are built over alg (a fresh Q[d] by default).  A kind
    name, or an alias in DEMO_ALIASES, gives that kind's demo_bundle.
    """
    alg = alg or polynomial_hopf()
    if name in ALL_KINDS or name in DEMO_ALIASES:
        return demo_bundle(DEMO_ALIASES.get(name, name), alg)
    if name == "virasoro":
        return virasoro(alg=alg)
    if name == "cur_sl2":
        return current(LieAlgebra(["e", "f", "h"], sl2_constants()), alg, name="cur_sl2")
    if name == "cur_2dim_nonabelian":
        b2 = nonabelian_2dim()
        return current(b2, b2, name="cur_b2")
    h = FreeModule("h", ["x"], alg)
    if name == "rank2_type_i":
        g = virasoro("g", "u", alg)
        return QuasiTwilled(g.source, h, pi=g)
    if name in ("rank2_type_ii", "rank2_type_iii"):
        g = FreeModule("g", ["u"], alg)
        C_u = PTElem(g, 2, {(((0,),), (0,), 0): Fraction(1)})
        eta = MixedMap(g, h, g, {(0, 0): C_u})
        if name == "rank2_type_ii":
            return QuasiTwilled(g, h, eta=eta)
        # the derived instance b = 1, C = 1(x)1 (so pi = b(C - (12)C) = 0)
        return QuasiTwilled(g, h, rho=MixedMap(g, h, h, {(0, 0): C_u.coerce(h)}), eta=eta)
    raise InputError(f"unknown builtin {name!r}")


def _demo_ingredients(kind: str, alg: LieAlgebra) -> dict:
    """A kind's ingredients before its weight: Virasoro g alone, with a clone of
    itself, with a direct sum of two copies, or with a module (a module kind)."""
    g = virasoro(alg=alg)
    if kind == MODIFIED_R:
        return {"algebra": g}
    if kind == RELATIVE_RB:
        hh = direct_sum_algebras(virasoro("v1", "x1", alg), virasoro("v2", "x2", alg), name="h2")
        return {"algebra": g, "coefficients": hh, "action": adjoint_action(g, hh.source)}
    if kind in (CROSSED_HOM, HOMOMORPHISM, MATCHED_PAIR_DEF):
        h = clone_bracket(g, "h")
        ing = {"algebra": g, "coefficients": h}
        if kind == CROSSED_HOM:
            ing["action"] = adjoint_action(g, h.source)
        return ing
    M = FreeModule("m", ["xm"], alg)
    ing = {"algebra": g, "module": M, "action": adjoint_action(g, M)}
    if kind == TWISTED_RB:
        # omega = -d_CE(id): makes the identity map a type I deformation map
        # and T = id a twisted Rota-Baxter operator.
        ident = HModuleMap.scalar(g.source, M, 1).as_cochain()
        ing["cocycle"] = ce_differential(g, ing["action"], ident, CLASSICAL).scale(-1)
    return ing


def demo_bundle(kind: str, alg=None) -> dict:
    """Canonical (ingredients, Q, valid map) bundle for each operator kind, over alg = Q[d]."""
    ing = _demo_ingredients(kind, alg or polynomial_hopf())
    if kind in DEMO_WEIGHTS:
        ing["weight"] = DEMO_WEIGHTS[kind]
    Q = build(kind, ing)
    if kind == RELATIVE_RB:
        # T = diag(-p, 0): c^2 + pc = 0 on the supported block, cross terms die
        m = HModuleMap(Q.h, Q.g, {0: Q.g.elem(0).scale(-ing["weight"])})
    else:
        m = HModuleMap.scalar(*orientation(Q, map_type(kind)), DEMO_SCALARS[kind])
    return {"kind": kind, "ingredients": ing, "Q": Q, "map": m}


ZOO_NAMES = ("rank2_type_i", "rank2_type_ii", "rank2_type_iii") + ALL_KINDS


def zoo_structures():
    """Every curated quasi-twilled structure with its canonical maps, over one Q[d].

    Returns a list of dicts {name, Q, type1 map or None, type2 map or None}.
    A kind's own map fills its type; the zero map fills any type it solves.
    """
    alg = polynomial_hopf()
    out = []
    for name in ZOO_NAMES:
        obj = builtin(name, alg)
        Q = obj["Q"] if name in ALL_KINDS else obj
        entry = {"name": name, "Q": Q}
        for key, mtype in (("type1", TYPE_I), ("type2", TYPE_II)):
            if name in ALL_KINDS and map_type(name) == mtype:
                entry[key] = obj["map"]
            else:
                zero = HModuleMap.zero(*orientation(Q, mtype))
                entry[key] = zero if dmap_residual(Q, zero, mtype).is_zero() else None
        out.append(entry)
    return out
