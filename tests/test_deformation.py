"""Deformation maps, twisting routes, controlling operators, MC dictionary."""

import random
from fractions import Fraction

import pytest

from pseudoalg.hopf import InputError, InternalInvariantError
from pseudoalg.ptensor import FreeModule, permute
from pseudoalg.cochains import Cochain, MixedMap, random_cochain, skew_check
from pseudoalg.structures import QuasiTwilled, check_pc
from pseudoalg.deformation import (
    SWAP2,
    TYPE_I,
    TYPE_II,
    HModuleMap,
    LinfOps,
    TwistedLinfOps,
    conjugate_twist,
    curved_l_type1,
    curved_l_type2,
    dmap1_residual,
    dmap2_residual,
    exp_twist,
    linf_identity_residual,
    linf_jacobi_check,
    twist1,
    twist1_components,
    twist2,
    twist2_components,
)
from pseudoalg import zoo

from conftest import pt, random_structure, term_order_digest, vir_value
from oracles import graph_check


def cid(Q, c, kind=TYPE_I):
    src, dst = (Q.g, Q.h) if kind == TYPE_I else (Q.h, Q.g)
    return HModuleMap.scalar(src, dst, Fraction(c))


# -- defining residuals ---------------------------------------------------------------


def test_modified_r_residual_closed_form(modified_r_q):
    Q = modified_r_q
    for c in (-3, -2, 0, 1, 2, 5):
        r = dmap1_residual(Q, cid(Q, c))
        assert r.value((0, 0)) == vir_value(Q.h, scale=Fraction(4) - Fraction(c) ** 2)
    assert dmap1_residual(Q, cid(Q, 2)).is_zero() and dmap1_residual(Q, cid(Q, -2)).is_zero()


def test_dmap_zero_map(qd):
    # D = 0 is a deformation map exactly when theta = 0
    b = zoo.demo_bundle(zoo.DERIVATION)
    assert dmap1_residual(b["Q"], HModuleMap.zero(b["Q"].g, b["Q"].h)).is_zero()
    assert dmap2_residual(b["Q"], HModuleMap.zero(b["Q"].h, b["Q"].g)).is_zero()
    r = zoo.demo_bundle(zoo.REYNOLDS)
    assert not dmap1_residual(r["Q"], HModuleMap.zero(r["Q"].g, r["Q"].h)).is_zero()


def test_cocycle_structure_admits_dmap_iff_exact(qd):
    # twisted_rb demo has omega = -d_CE(id), so D = id is a deformation map
    b = zoo.demo_bundle(zoo.TWISTED_RB)
    Q = b["Q"]
    assert dmap1_residual(Q, cid(Q, 1)).is_zero()
    assert not dmap1_residual(Q, cid(Q, 2)).is_zero()


def test_reynolds_residual_closed_form(reynolds_q):
    Q = reynolds_q
    for c in (-2, -1, 0, 1, 3):
        r = dmap2_residual(Q, cid(Q, c, TYPE_II))
        cc = Fraction(c)
        assert r.value((0, 0)) == vir_value(Q.g, scale=-(cc**2) * (1 + cc))
    for c in (-1, 0):
        assert dmap2_residual(Q, cid(Q, c, TYPE_II)).is_zero()


def test_residuals_are_skew_cochains(modified_r_q, reynolds_q, rng):
    D = zoo.random_hmap(rng, modified_r_q.g, modified_r_q.h)
    assert skew_check(dmap1_residual(modified_r_q, D)) == []
    T = zoo.random_hmap(rng, reynolds_q.h, reynolds_q.g)
    assert skew_check(dmap2_residual(reynolds_q, T)) == []


def test_wrong_orientation_rejected(modified_r_q):
    with pytest.raises(InputError):
        dmap1_residual(modified_r_q, cid(modified_r_q, 1, TYPE_II))
    with pytest.raises(InputError):
        dmap2_residual(modified_r_q, cid(modified_r_q, 1, TYPE_I))


# -- graph criterion -------------------------------------------------------------------


def test_graph_check_examples(modified_r_q):
    Q = modified_r_q
    assert graph_check(Q, cid(Q, 2))["ok"]
    g1 = graph_check(Q, cid(Q, 1))
    assert not g1["ok"]
    assert g1["residuals"][(0, 0)] == dmap1_residual(Q, cid(Q, 1)).value((0, 0))


def test_graph_check_agrees_on_randoms(rng):
    for entry in zoo.zoo_structures():
        Q = entry["Q"]
        for _ in range(3):
            D = zoo.random_hmap(rng, Q.g, Q.h)
            gr = graph_check(Q, D)
            resid = dmap1_residual(Q, D)
            assert gr["ok"] == resid.is_zero()
            for key, v in gr["residuals"].items():
                assert v == resid.value(key)


# sha256 (see conftest.term_order_digest) of the nested term order of every
# deformation-route value: both defining residuals, the closed-form twist
# tables, both conjugated brackets and the graph-check residuals, on each zoo
# structure under its own maps and two seeded random maps per type, and on
# seeded random structures over U(b2), where the order depends on how
# map_module adds its products.  These routes push module elements
# through HModuleMap, map_module and eval on non-basis arguments, which the
# bracket and CE digests never reach.
ROUTE_TERM_ORDER_ZOO = "7452dcf45a150056023742e66a31229d76b012ba8a1a02ac970b604276925134"
ROUTE_TERM_ORDER_B2 = "3e587e7665f410722f87baf8d557996bfd7c30f455331a3afb9df1f1b470fcac"


def _route_values(Q, seed, maps=()):
    rng = random.Random(seed)
    maps = list(maps) + [
        (zoo.random_hmap(rng, Q.g, Q.h), zoo.random_hmap(rng, Q.h, Q.g)) for _ in range(2)
    ]
    out = []
    for D, T in maps:
        t1, (t2, xi) = twist1_components(Q, D), twist2_components(Q, T)
        out += [dmap1_residual(Q, D), dmap2_residual(Q, T), t1.pi, t1.rho]
        out += [t2.pi, t2.rho, t2.mu, t2.eta, xi]
        out += [conjugate_twist(Q, D), conjugate_twist(Q, T)]
        out.append(Cochain(2, Q.g, Q.h, graph_check(Q, D)["residuals"]))
    return out


def test_deformation_route_term_order_is_pinned():
    values = []
    for entry in zoo.zoo_structures():
        Q = entry["Q"]
        D = entry["type1"] or HModuleMap.zero(Q.g, Q.h)
        T = entry["type2"] or HModuleMap.zero(Q.h, Q.g)
        values += _route_values(Q, 7, [(D, T)])
    assert term_order_digest(values) == ROUTE_TERM_ORDER_ZOO
    values = []
    for seed in (1, 2, 3):
        Q = random_structure(random.Random(seed), zoo.nonabelian_2dim(), max_deg=3)
        values += _route_values(Q, seed)
    assert term_order_digest(values) == ROUTE_TERM_ORDER_B2


# -- twisting ---------------------------------------------------------------------------


def test_twist1_closed_forms(modified_r_q):
    Q = modified_r_q
    Qt, rep = twist1(Q, cid(Q, 1))
    assert rep["closed_form_equals_series"] and rep["series_equals_conjugation"]
    assert not rep["is_dmap"]
    assert Qt.mu == Q.mu and Qt.eta == Q.eta
    assert Qt.theta == dmap1_residual(Q, cid(Q, 1))
    Qt2, rep2 = twist1(Q, cid(Q, 2))
    assert rep2["is_dmap"] and Qt2.theta.is_zero()
    assert check_pc(Qt2)["ok"]
    # D = 0 leaves everything unchanged
    Qt0, _ = twist1(Q, HModuleMap.zero(Q.g, Q.h))
    assert Qt0.omega() == Q.omega()


def test_twist2_closed_forms(reynolds_q):
    Q = reynolds_q
    (Qt, xi), rep = twist2(Q, cid(Q, -1, TYPE_II))
    assert rep["is_dmap"] and xi.is_zero()
    assert rep["closed_form_equals_series"] and rep["series_equals_conjugation"]
    assert Qt.theta == Q.theta
    assert check_pc(Qt)["ok"]
    (_Qt1, xi1), rep1 = twist2(Q, cid(Q, 1, TYPE_II))
    assert not rep1["is_dmap"]
    assert xi1 == dmap2_residual(Q, cid(Q, 1, TYPE_II))
    # T = 0: unchanged, xi = 0
    (Qt0, xi0), _ = twist2(Q, HModuleMap.zero(Q.h, Q.g))
    assert xi0.is_zero() and Qt0.omega() == Q.omega()


def test_twist_routes_on_random_maps(rng):
    for entry in zoo.zoo_structures():
        Q = entry["Q"]
        for _ in range(2):
            D = zoo.random_hmap(rng, Q.g, Q.h, max_deg=2)
            _, rep = twist1(Q, D)
            assert rep["closed_form_equals_series"] and rep["series_equals_conjugation"]
            T = zoo.random_hmap(rng, Q.h, Q.g, max_deg=2)
            _, rep2 = twist2(Q, T)
            assert rep2["closed_form_equals_series"] and rep2["series_equals_conjugation"]


def test_twist_series_terminates_within_four_terms(modified_r_q, rng):
    # the series itself is exercised by exp_twist; beyond the bound it aborts
    Q = modified_r_q
    D = zoo.random_hmap(rng, Q.g, Q.h, max_deg=3)
    out = exp_twist(Q, D, TYPE_I)
    assert out == conjugate_twist(Q, D)


# -- controlling operators -----------------------------------------------------------------


def test_curved_ops_type1_examples(modified_r_q):
    Q = modified_r_q
    ops = curved_l_type1(Q)
    assert ops.l0() == Q.theta  # l0 = theta = p [.*.]
    Dc = cid(Q, 1).as_cochain()
    assert ops.l1(Dc).is_zero()  # paper: l1 = 0 for the doubled structure
    # closed form of l2 on an arity-1 map: mu(Dx, Dy) - D eta(x, Dy) + ...
    D = cid(Q, 1)
    expect = {}
    for (i, j) in ((0, 0),):
        x, y = Q.g.elem(i), Q.g.elem(j)
        expect[(i, j)] = (
            Q.mu.eval([D(x), D(y)])
            - Q.eta.eval([x, D(y)]).map_module(D.apply_basis, D.dst)
            + permute(Q.eta.eval([y, D(x)]).map_module(D.apply_basis, D.dst), SWAP2)
        )
    half_l2 = ops.l2(Dc, Dc).scale(Fraction(1, 2))
    assert half_l2 == Cochain(2, Q.g, Q.h, expect)


def test_mc_equals_defining_residual_everywhere(rng):
    for entry in zoo.zoo_structures():
        Q = entry["Q"]
        for _ in range(2):
            D = zoo.random_hmap(rng, Q.g, Q.h)
            assert curved_l_type1(Q).mc_residual(D) == dmap1_residual(Q, D)
            T = zoo.random_hmap(rng, Q.h, Q.g)
            assert curved_l_type2(Q).mc_residual(T) == dmap2_residual(Q, T)


def test_mc_strict_mode(modified_r_q):
    # the MC terms l_k(x,...,x)/k! are reported separately; their sum is the
    # summed MC residual of the theorems
    Q = modified_r_q
    parts = LinfOps(Q, TYPE_I).mc_terms(cid(Q, 2))
    total = parts[0] + parts[1] + parts[2] + parts[3]
    assert total == curved_l_type1(Q).mc_residual(cid(Q, 2))
    # a valid strict MC element is in particular a summed MC element, but the
    # converse fails: here the summed residual vanishes while l0 alone does not
    assert total.is_zero() and not parts[0].is_zero()


def test_twisted_theorem_type1(modified_r_q):
    Q = modified_r_q
    tw = TwistedLinfOps(Q, cid(Q, 2), TYPE_I)
    assert tw.mc_residual(cid(Q, -4)).is_zero()  # D + D' = -2 id passes
    r = tw.mc_residual(cid(Q, 1))
    assert r.value((0, 0)) == vir_value(Q.h, scale=-5)  # (4 - 9)
    assert r == curved_l_type1(Q).mc_residual(cid(Q, 3))
    with pytest.raises(InputError):
        TwistedLinfOps(Q, cid(Q, 1), TYPE_I)


def test_twisted_theorem_type2(reynolds_q):
    Q = reynolds_q
    tw = TwistedLinfOps(Q, cid(Q, -1, TYPE_II), TYPE_II)
    assert tw.mc_residual(cid(Q, 1, TYPE_II)).is_zero()  # T + T' = 0 passes
    r = tw.mc_residual(cid(Q, -1, TYPE_II))
    assert r == curved_l_type2(Q).mc_residual(cid(Q, -2, TYPE_II))
    # residual orientation is -c^2(1+c); at c = -2 that is +4 (spec quotes
    # the c^2(1+c) = -4 form; both are nonzero, the map fails)
    assert r.value((0, 0)) == vir_value(Q.g, scale=4)


def test_twisted_theorems_random(rng):
    # for valid maps M and random perturbations M', the twisted residual of
    # M' equals the direct residual of M + M'
    for entry in zoo.zoo_structures():
        Q = entry["Q"]
        if entry["type1"] is not None:
            tw = TwistedLinfOps(Q, entry["type1"], TYPE_I)
            for _ in range(2):
                D2 = zoo.random_hmap(rng, Q.g, Q.h)
                assert tw.mc_residual(D2) == dmap1_residual(Q, entry["type1"] + D2)
        if entry["type2"] is not None:
            tw = TwistedLinfOps(Q, entry["type2"], TYPE_II)
            for _ in range(2):
                T2 = zoo.random_hmap(rng, Q.h, Q.g)
                assert tw.mc_residual(T2) == dmap2_residual(Q, entry["type2"] + T2)


def _twisted_reference(Q, M, kind):
    """The twisted l1, l2, l3 written out per type from the untwisted l_k."""
    base, Mc = LinfOps(Q, kind), M.as_cochain()

    def l1(f):
        out = base.l1(f) + base.l2(Mc, f)
        if kind == TYPE_II:
            out = out + base.l3(Mc, Mc, f).scale(Fraction(1, 2))
        return out

    def l2(f, g):
        out = base.l2(f, g)
        if kind == TYPE_II:
            out = out + base.l3(Mc, f, g)
        return out

    return l1, l2, base.l3


def test_twisted_brackets_match_the_per_type_reference(rng):
    # l_k^M = sum_n l_{n+k}(M^n, ...)/n! against the closed per-type sums, on
    # every zoo structure with a valid map of the type
    for entry in zoo.zoo_structures():
        Q = entry["Q"]
        for kind, M in ((TYPE_I, entry["type1"]), (TYPE_II, entry["type2"])):
            if M is None:
                continue
            tw = TwistedLinfOps(Q, M, kind)
            l1, l2, l3 = _twisted_reference(Q, M, kind)
            assert tw.l0().is_zero()
            for ar in (1, 2):
                f, g, h = (random_cochain(rng, M.src, M.dst, a, max_deg=1) for a in (ar, 1, 2))
                assert tw.l1(f) == l1(f), (entry["name"], kind, ar)
                assert tw.l2(f, g) == l2(f, g), (entry["name"], kind, ar)
                assert tw.l3(f, g, h) == l3(f, g, h), (entry["name"], kind, ar)


def test_invertible_duality(modified_r_q):
    # D = c id invertible with inverse T = id/c: type I residual vanishes
    # iff the type II residual of the inverse vanishes
    Q = modified_r_q
    for c in (1, 2, -2, 3):
        D = cid(Q, c)
        T = cid(Q, Fraction(1, c), TYPE_II)
        assert dmap1_residual(Q, D).is_zero() == dmap2_residual(Q, T).is_zero()


def test_linf_identities_zoo(rng):
    for entry in zoo.zoo_structures():
        Q = entry["Q"]
        for ops in (curved_l_type1(Q), curved_l_type2(Q)):
            res = linf_jacobi_check(ops, 3, random.Random(11), samples=1)
            assert res["ok"], (entry["name"], res)


@pytest.mark.parametrize("max_arity", [1, 2, 3])
def test_linf_jacobi_check_reports_each_arity(reynolds_q, max_arity):
    # one verdict per identity n = 1..max_arity, plus n = 0 (l1(l0) = 0)
    # exactly when l0 != 0: type I of Reynolds is curved, type II is not
    for ops, curved in ((curved_l_type1(reynolds_q), True), (curved_l_type2(reynolds_q), False)):
        assert ops.l0().is_zero() != curved
        res = linf_jacobi_check(ops, max_arity, random.Random(3), samples=1)
        assert sorted(res["identities"]) == [0] * curved + list(range(1, max_arity + 1))
        assert res["ok"]


def test_linf_identity_n4_type2(reynolds_q):
    # the cubic bracket makes n = 4 a genuine identity for type II
    ops = curved_l_type2(reynolds_q)
    rng = random.Random(5)
    args = [random_cochain(rng, reynolds_q.h, reynolds_q.g, a, max_deg=1) for a in (2, 1, 1, 1)]
    assert linf_identity_residual(ops, 4, args).is_zero()


def test_l2_graded_symmetry_nonzero(qd, rng):
    # on a rank-2 block the symmetry of the binary bracket is visible on
    # nonzero values: even-even symmetric, odd-odd antisymmetric
    g2 = zoo.direct_sum_algebras(zoo.virasoro("v1", "x1"), zoo.virasoro("v2", "x2"), name="g2")
    Q = zoo.build(zoo.MODIFIED_R, {"algebra": g2, "weight": Fraction(1)})
    ops = curved_l_type1(Q)
    seen_even = seen_odd = False
    for _ in range(60):
        fa = random_cochain(rng, Q.g, Q.h, 1, max_deg=1)
        fb = random_cochain(rng, Q.g, Q.h, 2, max_deg=1)
        v = ops.l2(fa, fb)
        if not v.is_zero():
            assert v == ops.l2(fb, fa)
            seen_even = True
        fc = random_cochain(rng, Q.g, Q.h, 2, max_deg=1)
        w = ops.l2(fb, fc)
        if not w.is_zero():
            assert w == ops.l2(fc, fb).scale(-1)
            seen_odd = True
        if seen_even and seen_odd:
            break
    assert seen_even and seen_odd
