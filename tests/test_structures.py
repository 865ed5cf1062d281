"""Quasi-twilled structures: PC1-PC8, Omega assembly, and the NR cross-check."""

import random
from fractions import Fraction

import pytest

from pseudoalg.hopf import HTensor, InputError
from pseudoalg.ptensor import FreeModule, PTElem, act, permute
from pseudoalg.cochains import (
    Cochain,
    MixedMap,
    extract_components,
    insert_raw,
    insert_value,
    nr_bracket,
    random_cochain,
    random_ptelem,
)
from pseudoalg.structures import (
    BLOCK_TO_PC,
    LiePseudoalgebra,
    QuasiTwilled,
    Representation,
    check_lie,
    check_mc_omega,
    check_pc,
    jacobiator,
    pc_residuals,
)
from pseudoalg import cochains, ptensor, zoo

from conftest import count_calls, pt, random_structure, vir_value
from oracles import mc_bullet_components


def test_check_lie_virasoro(vir):
    assert check_lie(vir)["ok"]


def test_check_lie_zero_bracket(qd):
    m = FreeModule("m", ["x"], qd)
    assert check_lie(Cochain.zero(2, m, m))["ok"]


def test_check_lie_rejects_symmetric(qd):
    m = FreeModule("m", ["x"], qd)
    bad = Cochain(2, m, m, {(0, 0): pt(m, [(0, 0, 0, 0, 1)])})
    report = check_lie(bad)
    assert not report["ok"] and report["skew"]
    with pytest.raises(InputError):
        LiePseudoalgebra(m, bad)


def test_current_algebras_satisfy_jacobi():
    for name in ("cur_sl2", "cur_2dim_nonabelian"):
        P = zoo.builtin(name)
        assert check_lie(P)["ok"]


def test_assemble_omega_examples(qd):
    g, h = zoo.virasoro("g", "x"), zoo.clone_bracket(zoo.virasoro("h0", "u0"), "h")
    # direct product: no interaction terms
    Q = QuasiTwilled(g.module, h.module, pi=g.bracket, mu=h.bracket)
    om = Q.omega()
    x0 = Q.G.elem(0, qd.unit())
    v0 = Q.G.elem(1, qd.unit())
    assert om.eval([x0, v0]).is_zero()
    # action structure: Omega((x,0),(0,v)) = (0, rho(x (x) v))
    rho = zoo.adjoint_action(g, h.module)
    Qa = QuasiTwilled(g.module, h.module, pi=g.bracket, rho=rho, mu=h.bracket)
    got = Qa.omega().eval([x0, v0])
    expect = rho.value((0, 0)).coerce(Qa.G, lambda k: k + 1)
    assert got == expect
    # all components zero -> zero cochain
    assert QuasiTwilled(g.module, h.module).omega().is_zero()


def test_check_pc_zoo_structures():
    for entry in zoo.zoo_structures():
        r = check_pc(entry["Q"])
        assert r["ok"], (entry["name"], {k: len(v) for k, v in r["residuals"].items() if v})


# (insert_raw, canonicalize) calls of one check_mc_omega on a fresh zoo
# structure.  Counts catch what timings hide; the NR bracket visits only the
# output tuples the supports of Omega reach.
MC_OMEGA_CALLS = {"modified_r": (40, 61), "reynolds": (37, 56)}


@pytest.mark.parametrize("name", sorted(MC_OMEGA_CALLS))
def test_check_mc_omega_kernel_counts_are_pinned(name, monkeypatch):
    Q = next(e["Q"] for e in zoo.zoo_structures() if e["name"] == name)
    insertions = count_calls(monkeypatch, "insert_raw", cochains)
    canonicalizations = count_calls(monkeypatch, "canonicalize", ptensor, cochains)
    assert check_mc_omega(Q)["agrees_with_pc"]
    assert (len(insertions), len(canonicalizations)) == MC_OMEGA_CALLS[name]


def test_pc_residuals_evaluate_no_module_element(monkeypatch):
    # PC2..PC7 insert into each component at basis indices; none builds a
    # module element only to evaluate a map on it
    Qs = [entry["Q"] for entry in zoo.zoo_structures()]
    evaluations = count_calls(monkeypatch, "evaluate", cochains)
    for Q in Qs:
        assert all(not v for v in pc_residuals(Q).values())
    assert evaluations == []


def test_check_pc_fails_on_non_jacobi_mu(qd):
    g = FreeModule("g", ["x"], qd)
    h = FreeModule("h", ["u"], qd)
    # symmetric mu violates PC1
    bad_mu = Cochain(2, h, h, {(0, 0): pt(h, [(0, 0, 0, 0, 1)])})
    Q = QuasiTwilled(g, h, mu=bad_mu)
    r = check_pc(Q)
    assert not r["ok"] and r["residuals"]["PC1"]


def test_spec_perturbation_localizes(qd):
    # perturb the type (ii) structure by theta(u (x) u) = (1 (x) 1) (x) x:
    # the symmetric theta breaks skewness of Omega, which the report flags
    Q0 = zoo.builtin("rank2_type_ii")
    theta_bad = Cochain(2, Q0.g, Q0.h, {(0, 0): pt(Q0.h, [(0, 0, 0, 0, 1)])})
    Q = QuasiTwilled(Q0.g, Q0.h, eta=Q0.eta, theta=theta_bad)
    r = check_pc(Q)
    assert not r["ok"] and r["residuals"]["SKEW-theta"]
    m = check_mc_omega(Q)
    assert not m["ok"] and not m["pc_ok"]
    # a skew perturbation lands in identifiable PC labels instead
    theta_skew = Cochain(2, Q0.g, Q0.h, {(0, 0): vir_value(Q0.h)})
    Q2 = QuasiTwilled(Q0.g, Q0.h, eta=Q0.eta, theta=theta_skew)
    r2 = check_pc(Q2)
    failing = [k for k, v in r2["residuals"].items() if v]
    assert failing == ["PC5"]
    m2 = check_mc_omega(Q2)
    assert m2["correspondence_ok"] and m2["agrees_with_pc"] and not m2["bracket_zero"]
    assert not m2["labels"]["PC5"]["zero"]


def test_pc_nr_agreement_random(qd, rng):
    g = FreeModule("g", ["x"], qd)
    h = FreeModule("h", ["u"], qd)
    for trial in range(10):
        Q = QuasiTwilled(
            g,
            h,
            pi=random_cochain(rng, g, g, 2, max_deg=2),
            rho=MixedMap(g, h, h, {(0, 0): random_ptelem(rng, h, 2, max_deg=2)}),
            mu=random_cochain(rng, h, h, 2, max_deg=2),
            eta=MixedMap(g, h, g, {(0, 0): random_ptelem(rng, g, 2, max_deg=2)}),
            theta=random_cochain(rng, g, h, 2, max_deg=2),
        )
        r = check_pc(Q)
        m = check_mc_omega(Q)
        assert m["agrees_with_pc"] and m["correspondence_ok"]
        assert r["ok"] == m["bracket_zero"]


def test_bullet_list_decomposition(modified_r_q):
    Q = modified_r_q
    bullets = mc_bullet_components(Q)
    bracket = nr_bracket(Q.omega(), Q.omega())
    comps = extract_components(bracket)
    block_of = {v: k for k, v in BLOCK_TO_PC.items()}
    for label, comb in bullets.items():
        want_block = block_of[label]
        comb_comps = extract_components(comb)
        assert set(comb_comps) <= {want_block}
        got = comps.get(want_block, {})
        cb = comb_comps.get(want_block, {})
        keys = set(got) | set(cb)
        for key in keys:
            l = got.get(key)
            r = cb.get(key)
            if l is None:
                assert r is None or r.is_zero()
            elif r is None:
                assert l.is_zero()
            else:
                assert l == r


def test_variant_flag_discriminates(qd):
    # the aligned reading of the PC6 cycle agrees with the NR bracket; the
    # literal contents reading leaves a residual on eta with a degree-1 leg
    g = FreeModule("g", ["u"], qd)
    h = FreeModule("h", ["x"], qd)
    C = pt(g, [(0, 1, 0, 0, 1)])  # 1 (x) d
    Q = QuasiTwilled(g, h, eta=MixedMap(g, h, g, {(0, 0): C}))
    assert check_pc(Q)["ok"]
    assert check_mc_omega(Q)["ok"]
    # PC6 at (0, 0, 0) with mu = 0 is permute(a, cycle) - a; the aligned
    # cycle is the transposition of the last two slots, the literal contents
    # reading the 3-cycle (1, 2, 0), which fails here
    a = insert_value(Q.eta, (), Q.eta.value((0, 0)), (0,))
    assert (permute(a, (0, 2, 1)) - a).is_zero()
    assert not (permute(a, (1, 2, 0)) - a).is_zero()


def test_jacobiator_h_polylinearity(modified_r_q, qd, rng):
    # residuals on basis tuples suffice: the Jacobiator is H-polylinear, so
    # h-scaled arguments only act on the slots
    Q = modified_r_q
    om = Q.omega()

    def jac_melem(a, b, c):
        t1 = insert_raw(lambda k: om.eval([a, Q.G.elem(k)]), 2, Q.G, 1, om.eval([b, c]))
        t2 = insert_raw(lambda k: om.eval([Q.G.elem(k), c]), 2, Q.G, 0, om.eval([a, b]))
        t3 = insert_raw(lambda k: om.eval([b, Q.G.elem(k)]), 2, Q.G, 1, om.eval([a, c]))
        return t1 - t2 - permute(t3, (1, 0, 2))

    h1 = qd.mono((1,)).scale(2) + qd.unit()
    h2 = qd.mono((2,))
    h3 = qd.unit().scale(-3)
    a, b, c = (Q.G.elem(0, h1), Q.G.elem(1, h2), Q.G.elem(0, h3))
    lhs = jac_melem(a, b, c)
    base = jac_melem(*(Q.G.elem(k, qd.unit()) for k in (0, 1, 0)))
    rhs = act(HTensor.from_legs([h1, h2, h3]), base)
    assert lhs == rhs


def test_matched_pair_builder(qd):
    g = zoo.virasoro("g", "x")
    h = zoo.clone_bracket(zoo.virasoro("h0", "u0"), "h")
    rho = MixedMap.zero(g.module, h.module, h.module)
    eta = MixedMap.zero(g.module, h.module, g.module)
    Q = zoo.build(zoo.MATCHED_PAIR_DEF,
                  {"algebra": g, "coefficients": h, "action": rho, "coaction": eta})
    assert check_pc(Q)["ok"]
    assert check_lie(Q.omega())["ok"]
    # failing matched-pair data is rejected with residuals
    bad_rho = MixedMap(g.module, h.module, h.module, {(0, 0): pt(h.module, [(0, 0, 0, 0, 1)])})
    with pytest.raises(InputError):
        zoo.build(zoo.MATCHED_PAIR_DEF,
                  {"algebra": g, "coefficients": h, "action": bad_rho, "coaction": eta})


def test_matched_pair_action_reduces_to_action_structure(qd):
    # h abelian, eta = 0, rho an action: assembled Omega equals the
    # weight-1 action structure's bracket restricted accordingly
    g = zoo.virasoro("g", "x")
    hm = FreeModule("h", ["u"], qd)
    habel = LiePseudoalgebra(hm, Cochain.zero(2, hm, hm))
    rho = zoo.adjoint_action(g, habel.module)
    eta = MixedMap.zero(g.module, habel.module, g.module)
    Q = zoo.build(zoo.MATCHED_PAIR_DEF,
                  {"algebra": g, "coefficients": habel, "action": rho, "coaction": eta})
    Qact = zoo.build(zoo.DERIVATION, {"algebra": g, "module": habel.module, "action": rho})
    assert Q.omega() == Qact.omega()


def test_eta_orientation_conversion(qd, rng):
    g = FreeModule("g", ["x"], qd)
    h = FreeModule("h", ["u"], qd)
    eta_mp = MixedMap(h, g, g, {(0, 0): random_ptelem(rng, g, 2, max_deg=2)})
    eta_qt = eta_mp.swapped()
    # round trip through the printed relation eta_mp(u,y) = -(12) eta(y,u)
    for (y, u), v in eta_qt.terms.items():
        assert eta_mp.value((u, y)) == permute(v, (1, 0)).scale(-1)


def test_representation_axiom(qd):
    g = zoo.virasoro("g", "x")
    M = FreeModule("m", ["e"], qd)
    Representation(LiePseudoalgebra(g.module, g.bracket, validate=False), M, zoo.adjoint_action(g, M))
    bad = MixedMap(g.module, M, M, {(0, 0): pt(M, [(0, 0, 0, 0, 1)])})
    with pytest.raises(InputError):
        Representation(LiePseudoalgebra(g.module, g.bracket, validate=False), M, bad)


def _tables(table):
    return [(key, list(v.terms.items())) for key, v in sorted(table.items())]


def test_results_do_not_depend_on_kernel_memos():
    # two equal algebras, one with memos warmed by unrelated work: every
    # bracket and residual table is the same, term order included
    warm, cold = zoo.nonabelian_2dim(), zoo.nonabelian_2dim()
    check_pc(random_structure(random.Random(1), warm))
    assert warm.term_expansions and warm.coproduct_spreads
    assert not cold.term_expansions and not cold.coproduct_spreads
    Qw = random_structure(random.Random(2), warm)
    Qc = random_structure(random.Random(2), cold)
    bw = nr_bracket(Qw.omega(), Qw.omega())
    bc = nr_bracket(Qc.omega(), Qc.omega())
    assert _tables(bw.terms) == _tables(bc.terms)
    rw, rc = pc_residuals(Qw), pc_residuals(Qc)
    assert list(rw) == list(rc)
    for label in rw:
        assert _tables(rw[label]) == _tables(rc[label])
    assert any(rw[label] for label in rw)
