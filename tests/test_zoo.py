"""Example builders, operator identities, and the residual dictionary."""

import gc
import os
import random
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

from pseudoalg.hopf import InputError, LieAlgebra
from pseudoalg.ptensor import FreeModule
from pseudoalg.cochains import Cochain, MixedMap, nr_bracket, random_cochain
from pseudoalg.structures import QuasiTwilled, check_mc_omega, check_pc, pc_residuals
from pseudoalg.deformation import TYPE_II, HModuleMap, dmap1_residual, orientation
from pseudoalg import zoo

from conftest import pt, vir_value


def test_builtin_algebras():
    vir = zoo.builtin("virasoro")
    assert vir.value((0, 0)) == vir_value(vir.source)
    sl2 = zoo.builtin("cur_sl2")
    assert sl2.source.rank == 3
    b2 = zoo.builtin("cur_2dim_nonabelian")
    assert b2.source.rank == 2 and b2.source.alg.dim == 2


def test_builtin_rank2_instances():
    for name in ("rank2_type_i", "rank2_type_ii", "rank2_type_iii"):
        Q = zoo.builtin(name)
        assert check_pc(Q)["ok"], name


def test_every_builder_passes_pc_and_mc():
    for entry in zoo.zoo_structures():
        Q = entry["Q"]
        assert check_pc(Q)["ok"], entry["name"]
        m = check_mc_omega(Q)
        assert m["ok"], entry["name"]


def test_builders_reject_bad_ingredients(qd):
    g = zoo.virasoro()
    M = FreeModule("m", ["e"], qd)
    # a twisting term that is not a 2-cocycle fails PC3 of the assembled tuple
    bad_omega = Cochain(2, g.source, M, {(0, 0): pt(M, [(2, 0, 0, 0, 1), (0, 2, 0, 0, -1)])})
    with pytest.raises(InputError):
        zoo.build(
            zoo.TWISTED_RB,
            {"algebra": g, "module": M, "action": zoo.adjoint_action(g, M), "cocycle": bad_omega},
        )
    # a non-action rho fails the assembled PC check
    bad_rho = MixedMap(g.source, M, M, {(0, 0): pt(M, [(0, 0, 0, 0, 1)])})
    with pytest.raises(InputError):
        zoo.build(zoo.DERIVATION, {"algebra": g, "module": M, "action": bad_rho})


def test_modified_r_operator_residual():
    b = zoo.demo_bundle(zoo.MODIFIED_R)
    Q = b["Q"]
    for c in (0, 1, 2, -2, 3):
        m = HModuleMap.scalar(Q.g, Q.h, Fraction(c))
        r = zoo.operator_residual(zoo.MODIFIED_R, b["ingredients"], m)
        # [Dx*Dy] - D([Dx*y] + [x*Dy]) + p[x*y] = (p - c^2con) ... = (c^2-2c^2+p)
        assert r.value((0, 0)) == vir_value(Q.g, scale=Fraction(4) - Fraction(c) ** 2)


def test_derivation_operator_residual():
    b = zoo.demo_bundle(zoo.DERIVATION)
    Q = b["Q"]
    for c in (0, 1, -3):
        m = HModuleMap.scalar(Q.g, Q.h, Fraction(c))
        r = zoo.operator_residual(zoo.DERIVATION, b["ingredients"], m)
        # D[x*x] - (rho(x, Dx) - (12) rho(x, Dx)) = (c - 2c) [x*x]
        assert r.value((0, 0)) == vir_value(Q.h, scale=-Fraction(c))


def test_reynolds_operator_residual():
    for kind, roots in ((zoo.REYNOLDS, (0, -1)), (zoo.REYNOLDS_CLASSICAL, (0, 1))):
        b = zoo.demo_bundle(kind)
        Q = b["Q"]
        for c in (-2, -1, 0, 1, 2):
            m = HModuleMap.scalar(Q.h, Q.g, Fraction(c))
            r = zoo.operator_residual(kind, b["ingredients"], m)
            sign = 1 if kind == zoo.REYNOLDS else -1
            cc = Fraction(c)
            assert r.value((0, 0)) == vir_value(Q.g, scale=-(cc**2) * (1 + sign * cc))
            assert r.is_zero() == (c in roots)


def test_crossed_hom_residual_roots():
    b = zoo.demo_bundle(zoo.CROSSED_HOM)
    Q = b["Q"]
    # weight 1: residual proportional to c(1 + c); roots c = 0, -1
    for c, zero in ((0, True), (-1, True), (1, False), (2, False)):
        m = HModuleMap.scalar(Q.g, Q.h, Fraction(c))
        assert zoo.operator_residual(zoo.CROSSED_HOM, b["ingredients"], m).is_zero() == zero


def test_zero_map_on_theta_free_structures():
    for kind in zoo.ALL_KINDS:
        b = zoo.demo_bundle(kind)
        Q = b["Q"]
        src, dst = orientation(Q, zoo.map_type(kind))
        r = zoo.operator_residual(kind, b["ingredients"], HModuleMap.zero(src, dst))
        if Q.theta.is_zero() or kind not in zoo.TYPE_I_KINDS:
            assert r.is_zero(), kind
        else:
            assert not r.is_zero(), kind


def test_dictionary_all_kinds(rng):
    for kind in zoo.ALL_KINDS:
        b = zoo.demo_bundle(kind)
        res = zoo.dictionary_check(kind, b["ingredients"], b["map"], rng=rng, trials=4)
        assert res["ok"], kind
        assert res["operator_residual"].is_zero() and res["deformation_residual"].is_zero()


def _non_root(rng, kind, bundle):
    """A seeded random map of the kind's orientation that fails its identity."""
    src, dst = orientation(bundle["Q"], zoo.map_type(kind))
    while True:
        m = zoo.random_hmap(rng, src, dst)
        if not zoo.operator_residual(kind, bundle["ingredients"], m).is_zero():
            return m


def test_dictionary_compares_residual_values(rng, monkeypatch):
    # a residual scaled by 2 keeps every verdict and still fails the dictionary
    cases = [(kind, zoo.demo_bundle(kind)) for kind in zoo.ALL_KINDS]
    maps = [_non_root(rng, kind, b) for kind, b in cases]
    for (kind, b), m in zip(cases, maps):
        assert zoo.dictionary_check(kind, b["ingredients"], m)["ok"], kind
    residual = zoo.operator_residual
    monkeypatch.setattr(zoo, "operator_residual", lambda *a: residual(*a).scale(2))
    for (kind, b), m in zip(cases, maps):
        assert zoo.dictionary_check(kind, b["ingredients"], b["map"])["ok"], kind
        assert not zoo.dictionary_check(kind, b["ingredients"], m)["ok"], kind


def test_ingredients_from_structure_inverts_build():
    for kind in zoo.ALL_KINDS:
        b = zoo.demo_bundle(kind)
        Q, ing = b["Q"], b["ingredients"]
        back = zoo.ingredients_from_structure(kind, Q, ing.get("weight"))
        assert set(back) == {"algebra", *zoo.KIND_INGREDIENTS[kind]}, kind
        assert zoo.build(kind, back).components == Q.components, kind


def test_build_refuses_an_ingredient_its_kind_has_not():
    b = zoo.demo_bundle(zoo.REYNOLDS)
    ing = dict(b["ingredients"], cocycle=b["Q"].theta)
    with pytest.raises(InputError, match="reynolds takes no cocycle"):
        zoo.build(zoo.REYNOLDS, ing)


def test_twisted_rb_reduces_to_o_operator():
    # with omega = 0 the twisted-RB structure is the semidirect one
    g = zoo.virasoro()
    M = FreeModule("m", ["e"], g.source.alg)
    rho = zoo.adjoint_action(g, M)
    Q1 = zoo.build(
        zoo.TWISTED_RB,
        {"algebra": g, "module": M, "action": rho, "cocycle": Cochain.zero(2, g.source, M)},
    )
    Q2 = zoo.build(zoo.O_OPERATOR, {"algebra": g, "module": M, "action": rho})
    assert Q1.omega() == Q2.omega()


def test_twisted_rb_exact_cocycle_admits_dmap():
    # omega = -d_CE(D) makes D a type I deformation map of the structure
    b = zoo.demo_bundle(zoo.TWISTED_RB)
    Q = b["Q"]
    D = HModuleMap.scalar(Q.g, Q.h, Fraction(1))
    assert dmap1_residual(Q, D).is_zero()
    assert not dmap1_residual(Q, HModuleMap.scalar(Q.g, Q.h, Fraction(3))).is_zero()


def test_homomorphism_kind_is_direct_product():
    b = zoo.demo_bundle(zoo.HOMOMORPHISM)
    Q = b["Q"]
    assert Q.rho.is_zero() and Q.eta.is_zero() and Q.theta.is_zero()
    assert not Q.pi.is_zero() and not Q.mu.is_zero()


def test_matched_pair_def_residual():
    b = zoo.demo_bundle(zoo.MATCHED_PAIR_DEF)
    Q = b["Q"]
    # direct-product matched pair: [Tu*Tv] = T[u*v]: c^2 = c
    for c, zero in ((0, True), (1, True), (2, False)):
        m = HModuleMap.scalar(Q.h, Q.g, Fraction(c))
        assert zoo.operator_residual(zoo.MATCHED_PAIR_DEF, b["ingredients"], m).is_zero() == zero


def test_relative_rb_demo_and_blocks():
    b = zoo.demo_bundle(zoo.RELATIVE_RB)
    Q = b["Q"]
    assert Q.h.rank == 2
    assert zoo.operator_residual(zoo.RELATIVE_RB, b["ingredients"], b["map"]).is_zero()
    bad = HModuleMap(Q.h, Q.g, {0: Q.g.elem(0).scale(Fraction(-2)), 1: Q.g.elem(0).scale(Fraction(-2))})
    assert not zoo.operator_residual(zoo.RELATIVE_RB, b["ingredients"], bad).is_zero()


def test_diagonal_action_at_rank_2():
    # Cur(b2) acting on Cur(b2) (+) Cur(b2): e_i acts on e_j of copy b as
    # e_i of copy b brackets it in the direct sum; the rank-1 demo cannot
    # see a wrong index within a block
    g = zoo.current(zoo.nonabelian_2dim(), zoo.polynomial_hopf())
    copies = zoo.direct_sum_algebras(g, g)
    act = zoo.adjoint_action(g, copies.source)
    for i in range(2):
        for t in range(4):
            expect = copies.value((2 * (t // 2) + i, t))
            assert act.value((i, t)).terms == expect.terms, (i, t)
    assert not act.value((0, 3)).is_zero()
    # build refuses ingredients that fail PC, so act is an action on the sum
    zoo.build(zoo.RELATIVE_RB, {"algebra": g, "coefficients": copies, "action": act})


def test_unknown_names_rejected():
    with pytest.raises(InputError):
        zoo.builtin("nope")
    with pytest.raises(InputError):
        zoo.build("nope", {})


# -- one Hopf base per zoo ---------------------------------------------------------------

NOT_DATA = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType,
            types.MethodType)


def reachable_algebras(root) -> list:
    """The distinct LieAlgebra objects reachable from root through its values."""
    found, seen, todo = {}, set(), [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, NOT_DATA):
            continue
        seen.add(id(obj))
        if isinstance(obj, LieAlgebra):
            found[id(obj)] = obj  # its memos hold only keys and scalars
            continue
        todo.extend(gc.get_referents(obj))
    return list(found.values())


def test_guard_sees_every_algebra():
    qd, other = zoo.polynomial_hopf(), zoo.polynomial_hopf()
    assert reachable_algebras([qd, {"m": FreeModule("m", ["e"], qd)}]) == [qd]
    found = reachable_algebras(zoo.virasoro("g", "x", other))
    assert len(found) == 1 and found[0] is other


ALIVE = (
    "import gc\n"
    "from pseudoalg import zoo\n"
    "from pseudoalg.hopf import LieAlgebra\n"
    "entries = zoo.zoo_structures()\n"
    "gc.collect()\n"
    "print(sum(isinstance(o, LieAlgebra) for o in gc.get_objects()))\n"
)


def test_zoo_runs_over_one_hopf_base():
    # one Q[d] per zoo, so every structure reads and fills the same kernel memos
    src = str(Path(zoo.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", ALIVE], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120, check=True)
    assert out.stdout.split() == ["1"]
    entries = zoo.zoo_structures()
    (alg,) = reachable_algebras(entries)
    assert alg == zoo.polynomial_hopf()
    bundles = [zoo.builtin(name, alg) for name in zoo.ZOO_NAMES]
    assert reachable_algebras(bundles) == [alg]


def _pc_and_nr(Q, seed) -> list:
    """PC residuals and [Omega, Omega]_NR of Q and of a seeded bent copy, in term order.

    The zoo's own residuals are all zero; the bent copy's are not.
    """
    rng = random.Random(seed)
    bent = QuasiTwilled(Q.g, Q.h, pi=Q.pi + random_cochain(rng, Q.g, Q.g, 2, max_deg=2),
                        rho=Q.rho, mu=Q.mu, eta=Q.eta,
                        theta=Q.theta + random_cochain(rng, Q.g, Q.h, 2, max_deg=2))
    out = []
    for S in (Q, bent):
        om = S.omega()
        tables = list(pc_residuals(S).items()) + [("NR", nr_bracket(om, om).terms)]
        out += [(label, [(t, list(v.terms.items())) for t, v in table.items()])
                for label, table in tables]
    return out


def test_shared_memos_change_no_value():
    # each structure is evaluated after the ones before it have warmed the
    # shared memos, then again alone over a fresh Q[d] with cold memos
    entries = zoo.zoo_structures()
    shared = [_pc_and_nr(e["Q"], 5) for e in entries]
    assert all(any(label == "NR" and table for label, table in v) for v in shared)
    for entry, values in zip(entries, shared):
        alone = zoo.builtin(entry["name"], zoo.polynomial_hopf())
        Q = alone["Q"] if isinstance(alone, dict) else alone
        assert _pc_and_nr(Q, 5) == values, entry["name"]
