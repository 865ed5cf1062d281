"""Builders for the named example structures and operator-identity residuals.

Each operator kind comes with (a) a quasi-twilled builder whose output passes
check_pc, with its inverse ingredients_from_structure, and (b) an operator
residual computed by expanding the printed identity directly from brackets
and actions, WITHOUT the quasi-twilled machinery.  dictionary_check crosses
the two: the named identity holds iff the corresponding deformation-map
residual vanishes.  map_type names a kind's map type; structures.orientation
and deformation.dmap_residual give each type's direction and residual.

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
    LiePseudoalgebra,
    QuasiTwilled,
    Representation,
    orientation,
    require_pc,
)
from .deformation import SWAP2, dmap_residual
from .cohomology import PLAIN, ce_differential, handle_for


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


def virasoro(name="g", basis="x", alg=None) -> LiePseudoalgebra:
    """Rank-1 pseudoalgebra over Q[d] with [x*x] = (d(x)1 - 1(x)d) (x)_H x."""
    alg = alg or polynomial_hopf()
    m = FreeModule(name, [basis], alg)
    val = canonicalize(
        m,
        2,
        [(((1,), (0,)), (0,), 0, Fraction(1)), (((0,), (1,)), (0,), 0, Fraction(-1))],
    )
    return LiePseudoalgebra(m, Cochain(2, m, m, {(0, 0): val}))


def current(base: LieAlgebra, alg: LieAlgebra, name="cur") -> LiePseudoalgebra:
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
    return LiePseudoalgebra(m, Cochain(2, m, m, table))


def clone_bracket(P: LiePseudoalgebra, name: str) -> LiePseudoalgebra:
    """A fresh module carrying the same bracket table."""
    m = FreeModule(name, [f"{b}'" for b in P.module.basis], P.module.alg)
    table = {t: v.coerce(m) for t, v in P.bracket.terms.items()}
    return LiePseudoalgebra(m, Cochain(2, m, m, table), validate=False)


def direct_sum_algebras(P1: LiePseudoalgebra, P2: LiePseudoalgebra, name="gg") -> LiePseudoalgebra:
    """Commuting sum of two pseudoalgebras as one rank-(r1+r2) algebra."""
    m = FreeModule(
        name,
        [f"{b}.1" for b in P1.module.basis] + [f"{b}.2" for b in P2.module.basis],
        P1.module.alg,
    )
    r1 = P1.module.rank
    table = {}
    for t, v in P1.bracket.terms.items():
        table[t] = v.coerce(m)
    for t, v in P2.bracket.terms.items():
        table[tuple(i + r1 for i in t)] = v.coerce(m, lambda k: k + r1)
    return LiePseudoalgebra(m, Cochain(2, m, m, table), validate=False)


def adjoint_action(P: LiePseudoalgebra, hmod: FreeModule) -> MixedMap:
    """The bracket of P reinterpreted as an action on a same-rank module."""
    if hmod.rank != P.module.rank:
        raise InputError("adjoint action needs a same-rank module")
    table = {}
    for i in range(P.module.rank):
        for j in range(P.module.rank):
            v = P.bracket.value((i, j))
            if not v.is_zero():
                table[(i, j)] = v.coerce(hmod)
    return MixedMap(P.module, hmod, hmod, table)


def diagonal_action(P: LiePseudoalgebra, copies: LiePseudoalgebra) -> MixedMap:
    """ad (+) ad: P acting componentwise on a direct sum of copies of itself."""
    hmod = copies.module
    r = P.module.rank
    if hmod.rank % r:
        raise InputError("module rank must be a multiple of the algebra rank")
    table = {}
    for i in range(r):
        for block in range(hmod.rank // r):
            for j in range(r):
                v = P.bracket.value((i, j))
                if not v.is_zero():
                    table[(i, block * r + j)] = v.coerce(
                        hmod, lambda k, b=block: b * r + k
                    )
    return MixedMap(P.module, hmod, hmod, table)


# -- structure builders -----------------------------------------------------------


def build(kind: str, ingredients: dict) -> QuasiTwilled:
    """Assemble the quasi-twilled structure of the given kind; PC-validated.

    Ingredient axioms (Lie, action, cocycle) are what check_pc verifies on the
    assembled tuple, so a bad ingredient surfaces as a labeled residual.
    """
    if kind == MODIFIED_R:
        P = ingredients["algebra"]
        p = Fraction(ingredients["weight"])
        hP = clone_bracket(P, P.module.name + "_h")
        eta = MixedMap(
            P.module,
            hP.module,
            P.module,
            {
                (i, j): P.bracket.value((i, j))
                for i in range(P.module.rank)
                for j in range(P.module.rank)
                if not P.bracket.value((i, j)).is_zero()
            },
        )
        theta = Cochain(
            2,
            P.module,
            hP.module,
            {t: v.coerce(hP.module).scale(p) for t, v in P.bracket.terms.items()},
        )
        Q = QuasiTwilled(P.module, hP.module, eta=eta, mu=hP.bracket, theta=theta)
    elif kind in (CROSSED_HOM, RELATIVE_RB):
        gP, hP = ingredients["algebra"], ingredients["coefficients"]
        rho = ingredients["action"]
        p = Fraction(ingredients["weight"])
        Q = QuasiTwilled(
            gP.module,
            hP.module,
            pi=gP.bracket,
            rho=rho,
            mu=hP.bracket.scale(p),
        )
    elif kind in (DERIVATION, O_OPERATOR):
        gP, M, rho = ingredients["algebra"], ingredients["module"], ingredients["action"]
        Q = QuasiTwilled(gP.module, M, pi=gP.bracket, rho=rho)
    elif kind == HOMOMORPHISM:
        gP, hP = ingredients["algebra"], ingredients["coefficients"]
        Q = QuasiTwilled(gP.module, hP.module, pi=gP.bracket, mu=hP.bracket)
    elif kind in (TWISTED_RB, REYNOLDS, REYNOLDS_CLASSICAL):
        gP, M, rho = ingredients["algebra"], ingredients["module"], ingredients["action"]
        if kind == REYNOLDS:
            omega = Cochain(
                2, gP.module, M, {t: v.coerce(M) for t, v in gP.bracket.terms.items()}
            )
        elif kind == REYNOLDS_CLASSICAL:
            omega = Cochain(
                2,
                gP.module,
                M,
                {t: v.coerce(M).scale(-1) for t, v in gP.bracket.terms.items()},
            )
        else:
            omega = ingredients["cocycle"]
        _validate_cocycle(gP, M, rho, omega)
        Q = QuasiTwilled(gP.module, M, pi=gP.bracket, rho=rho, theta=omega)
    elif kind == MATCHED_PAIR_DEF:
        gP, hP = ingredients["algebra"], ingredients["coefficients"]
        rho = ingredients.get("action") or MixedMap.zero(gP.module, hP.module, hP.module)
        eta = ingredients.get("coaction") or MixedMap.zero(gP.module, hP.module, gP.module)
        Q = QuasiTwilled(gP.module, hP.module, pi=gP.bracket, rho=rho, mu=hP.bracket, eta=eta)
    else:
        raise InputError(f"unknown operator kind {kind!r}")
    return require_pc(Q, "ingredients violate the structure axioms")


def ingredients_from_structure(kind: str, Q: QuasiTwilled, weight=None) -> dict:
    """Invert `build`: recover the kind's ingredients from the components of Q.

    `weight` is the exact scalar the weighted kinds (modified_r, crossed_hom,
    relative_rb) need; the others refuse one.
    """
    weighted = kind in (MODIFIED_R, CROSSED_HOM, RELATIVE_RB)
    if weighted and weight is None:
        raise InputError(f"a weight is required for {kind}")
    if not weighted and weight is not None:
        raise InputError(f"{kind} takes no weight")
    if kind == MODIFIED_R:
        table = {
            t: v
            for t, v in (
                ((i, j), Q.eta.value((i, j)))
                for i in range(Q.g.rank)
                for j in range(Q.h.rank)
                if i <= j
            )
            if not v.is_zero()
        }
        bracket = Cochain(2, Q.g, Q.g, table)
        return {"algebra": LiePseudoalgebra(Q.g, bracket), "weight": weight}
    if kind in (CROSSED_HOM, RELATIVE_RB):
        gP = LiePseudoalgebra(Q.g, Q.pi)
        mu = Q.mu if weight == 0 else Q.mu.scale(exact_div(1, weight))
        hP = LiePseudoalgebra(Q.h, mu)
        return {"algebra": gP, "coefficients": hP, "action": Q.rho, "weight": weight}
    if kind in (DERIVATION, O_OPERATOR):
        gP = LiePseudoalgebra(Q.g, Q.pi)
        return {"algebra": gP, "module": Q.h, "action": Q.rho}
    if kind == HOMOMORPHISM:
        return {
            "algebra": LiePseudoalgebra(Q.g, Q.pi),
            "coefficients": LiePseudoalgebra(Q.h, Q.mu),
        }
    if kind in (TWISTED_RB, REYNOLDS, REYNOLDS_CLASSICAL):
        gP = LiePseudoalgebra(Q.g, Q.pi)
        return {
            "algebra": gP,
            "module": Q.h,
            "action": Q.rho,
            "cocycle": Q.theta,
        }
    if kind == MATCHED_PAIR_DEF:
        return {
            "algebra": LiePseudoalgebra(Q.g, Q.pi),
            "coefficients": LiePseudoalgebra(Q.h, Q.mu),
            "action": Q.rho,
            "coaction": Q.eta,
        }
    raise InputError(f"unknown operator kind {kind!r}")


def _validate_cocycle(gP, M, rho, omega):
    alg = LiePseudoalgebra(gP.module, gP.bracket, validate=False)
    rep = Representation(alg, M, rho)
    handle = handle_for(PLAIN, algebra=alg, rep=rep, convention=CLASSICAL, verify=False)
    if not handle.diff(omega).is_zero():
        raise InputError("the twisting term is not a 2-cocycle of the representation")


# -- operator residuals (independent expansions) ------------------------------------


def operator_residual(kind: str, ingredients: dict, m: HModuleMap) -> Cochain:
    """The printed operator identity's residual, expanded without Q machinery."""
    if kind == MODIFIED_R:
        P = ingredients["algebra"]
        p = Fraction(ingredients["weight"])
        br = P.bracket
        if (m.src, m.dst) != (P.module, P.module):
            # a map between same-rank copies of the module, read on the module
            rows = {i: row.coerce(P.module) for i, row in m.terms.items()}
            m = HModuleMap(P.module, P.module, rows)
        table = {}
        for t in sorted_tuples(P.module.rank, 2):
            x, y = P.module.elem(t[0]), P.module.elem(t[1])
            r = (
                br.eval([m(x), m(y)])
                - (br.eval([m(x), y]) + br.eval([x, m(y)])).map_module(m.apply_basis, m.dst)
                + br.value(t).scale(p)
            )
            table[t] = r
        return Cochain(2, P.module, P.module, table)
    if kind in (CROSSED_HOM, DERIVATION):
        gP = ingredients["algebra"]
        rho = ingredients["action"]
        hmod = rho.hmod
        br_h = ingredients.get("coefficients")
        p = Fraction(ingredients.get("weight", 0))
        table = {}
        for t in sorted_tuples(gP.module.rank, 2):
            x, y = gP.module.elem(t[0]), gP.module.elem(t[1])
            r = (
                gP.bracket.value(t).map_module(m.apply_basis, m.dst)
                - rho.eval([x, m(y)])
                + permute(rho.eval([y, m(x)]), SWAP2)
            )
            if kind == CROSSED_HOM:
                r = r - br_h.bracket.eval([m(x), m(y)]).scale(p)
            table[t] = r
        return Cochain(2, gP.module, hmod, table)
    if kind == HOMOMORPHISM:
        gP, hP = ingredients["algebra"], ingredients["coefficients"]
        table = {}
        for t in sorted_tuples(gP.module.rank, 2):
            x, y = gP.module.elem(t[0]), gP.module.elem(t[1])
            table[t] = (
                gP.bracket.value(t).map_module(m.apply_basis, m.dst)
                - hP.bracket.eval([m(x), m(y)])
            )
        return Cochain(2, gP.module, hP.module, table)
    if kind in (RELATIVE_RB, O_OPERATOR):
        gP = ingredients["algebra"]
        rho = ingredients["action"]
        hmod = rho.hmod
        p = Fraction(ingredients.get("weight", 0))
        mu = ingredients["coefficients"].bracket if kind == RELATIVE_RB else None
        table = {}
        for t in sorted_tuples(hmod.rank, 2):
            u, v = hmod.elem(t[0]), hmod.elem(t[1])
            inner = rho.eval([m(u), v]) - permute(rho.eval([m(v), u]), SWAP2)
            if mu is not None:
                inner = inner + mu.value(t).scale(p)
            table[t] = gP.bracket.eval([m(u), m(v)]) - inner.map_module(m.apply_basis, m.dst)
        return Cochain(2, hmod, gP.module, table)
    if kind in (TWISTED_RB, REYNOLDS, REYNOLDS_CLASSICAL):
        gP = ingredients["algebra"]
        rho = ingredients["action"]
        hmod = rho.hmod
        if kind == TWISTED_RB:
            omega = ingredients["cocycle"]
        else:
            sign = 1 if kind == REYNOLDS else -1
            omega = Cochain(
                2,
                gP.module,
                hmod,
                {t: v.coerce(hmod).scale(sign) for t, v in gP.bracket.terms.items()},
            )
        table = {}
        for t in sorted_tuples(hmod.rank, 2):
            u, v = hmod.elem(t[0]), hmod.elem(t[1])
            inner = (
                rho.eval([m(u), v])
                - permute(rho.eval([m(v), u]), SWAP2)
                + omega.eval([m(u), m(v)])
            )
            table[t] = gP.bracket.eval([m(u), m(v)]) - inner.map_module(m.apply_basis, m.dst)
        return Cochain(2, hmod, gP.module, table)
    if kind == MATCHED_PAIR_DEF:
        gP, hP = ingredients["algebra"], ingredients["coefficients"]
        rho = ingredients.get("action") or MixedMap.zero(gP.module, hP.module, hP.module)
        eta = ingredients.get("coaction") or MixedMap.zero(gP.module, hP.module, gP.module)
        table = {}
        for t in sorted_tuples(hP.module.rank, 2):
            u, v = hP.module.elem(t[0]), hP.module.elem(t[1])
            # the matched-pair coaction enters through its orientation
            # relation eta_mp(u (x) y) = -(12) eta(y (x) u)
            eta_u_Tv = permute(eta.eval([m(v), u]), SWAP2).scale(-1)
            eta_v_Tu = permute(eta.eval([m(u), v]), SWAP2).scale(-1)
            lhs = gP.bracket.eval([m(u), m(v)]) + eta_u_Tv - permute(eta_v_Tu, SWAP2)
            rhs = (
                hP.bracket.value(t)
                + rho.eval([m(u), v])
                - permute(rho.eval([m(v), u]), SWAP2)
            )
            table[t] = lhs - rhs.map_module(m.apply_basis, m.dst)
        return Cochain(2, hP.module, gP.module, table)
    raise InputError(f"unknown operator kind {kind!r}")


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
    """operator identity residual = 0 <=> deformation-map residual = 0.

    Checked on the given map; with an rng, also on `trials` seeded random
    maps of the right orientation.  The residual VALUES are also compared
    termwise (the dictionary is an equality, not just a verdict match).
    """
    if Q is None:
        Q = build(kind, ingredients)
    src, dst = orientation(Q, map_type(kind))

    def one(mp):
        op = operator_residual(kind, ingredients, mp)
        df = dmap_residual(Q, mp, map_type(kind))
        same_verdict = op.is_zero() == df.is_zero()
        return same_verdict, op, df

    ok, op, df = one(m)
    agree_all = ok
    for _ in range(trials):
        mp = random_hmap(rng, src, dst)
        okk, _, _ = one(mp)
        agree_all = agree_all and okk
    return {"ok": agree_all, "operator_residual": op, "deformation_residual": df}


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
    """Deterministic named structures; every validity check passes at load.

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
        return QuasiTwilled(g.module, h, pi=g.bracket)
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
        return {"algebra": g, "coefficients": hh, "action": diagonal_action(g, hh)}
    if kind in (CROSSED_HOM, HOMOMORPHISM, MATCHED_PAIR_DEF):
        h = clone_bracket(g, "h")
        ing = {"algebra": g, "coefficients": h}
        if kind == CROSSED_HOM:
            ing["action"] = adjoint_action(g, h.module)
        return ing
    M = FreeModule("m", ["xm"], alg)
    ing = {"algebra": g, "module": M, "action": adjoint_action(g, M)}
    if kind == TWISTED_RB:
        # omega = -d_CE(id): makes the identity map a type I deformation map
        # and T = id a twisted Rota-Baxter operator.
        ident = HModuleMap.scalar(g.module, M, 1).as_cochain()
        ing["cocycle"] = ce_differential(g.bracket, ing["action"], ident, CLASSICAL).scale(-1)
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
