"""Acceptance criteria, one test per criterion, exact zero-residual tolerances.

Each criterion prints a single pass/fail line (visible with -v as the test
verdict) and enforces its stated wall-clock budget.  Criterion 10 is expected
to fail honestly: the bounded-degree search finds quasi-twilled structures
outside the three printed classification types (the analysis is in that
test's docstring); the test implements the criterion as stated and reports
the counterexamples.
"""

import random
import time
from fractions import Fraction

import pytest

from pseudoalg.hopf import HElem, HTensor, LieAlgebra
from pseudoalg.ptensor import FreeModule, PTElem
from pseudoalg.cochains import (
    Cochain,
    MixedMap,
    extract_components,
    random_cochain,
    random_ptelem,
    skew_check,
)
from pseudoalg.structures import (
    BLOCK_TO_PC,
    QuasiTwilled,
    check_lie,
    check_mc_omega,
    check_pc,
)
from pseudoalg.deformation import (
    TYPE_I,
    TYPE_II,
    HModuleMap,
    TwistedLinfOps,
    curved_l_type1,
    curved_l_type2,
    dmap1_residual,
    dmap2_residual,
    exp_twist,
    linf_jacobi_check,
    orientation,
    twist1,
    twist2,
)
from pseudoalg.cohomology import CLASSICAL, handle_for
from pseudoalg import io as pio
from pseudoalg import zoo
from pseudoalg.cli import main as cli_main

from oracles import antipode, consistency_l1_vs_d, coproduct_iter, graph_check, tensor_mul


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds
        self.t0 = time.monotonic()

    def done(self, ok, detail=""):
        dt = time.monotonic() - self.t0
        mark = "PASS" if ok else "FAIL"
        print(f"[{mark}] {self.name} ({dt:.2f}s / budget {self.seconds}s) {detail}")
        assert dt <= self.seconds, f"{self.name}: budget exceeded ({dt:.1f}s)"
        assert ok, f"{self.name}: {detail}"


def _rand_helem(rng, alg, max_deg=4):
    out = {}
    for _ in range(3):
        deg = rng.randint(0, max_deg)
        K = [0] * alg.dim
        for _ in range(deg):
            K[rng.randrange(alg.dim)] += 1
        out[tuple(K)] = Fraction(rng.randint(-3, 3))
    return HElem(alg, out)


def test_criterion_01_hopf_axioms():
    b = Budget("criterion 1: Hopf axioms over Q[d] and the 2-dim nonabelian base", 5)
    rng = random.Random(101)
    ok = True
    for alg in (LieAlgebra.abelian(["d"]), zoo.nonabelian_2dim()):
        for _ in range(10):
            x = _rand_helem(rng, alg)
            y = _rand_helem(rng, alg)
            z = _rand_helem(rng, alg)
            ok &= (x * y) * z == x * (y * z)
            ok &= x * (y + z) == x * y + x * z
            # counit law
            acc = alg.zero()
            for (K1, K2), c in coproduct_iter(x, 1).terms.items():
                eps = alg.mono(K1).terms.get(alg.zero_index, 0)  # the counit
                acc = acc + alg.mono(K2).scale(c * eps)
            ok &= acc == x
            # antipode law
            acc = alg.zero()
            for (K1, K2), c in coproduct_iter(x, 1).terms.items():
                acc = acc + (antipode(alg.mono(K1)) * alg.mono(K2)).scale(c)
            ok &= acc == alg.unit().scale(x.terms.get(alg.zero_index, 0))
            # coassociativity via re-expansion of the first leg
            three = coproduct_iter(x, 2)
            left = HTensor(alg, 3, {})
            for (K1, K2), c in coproduct_iter(x, 1).terms.items():
                for (L1, L2), c2 in coproduct_iter(alg.mono(K1), 1).terms.items():
                    left = left + HTensor(alg, 3, {(L1, L2, K2): c * c2})
            ok &= left == three
            # Delta is an algebra map
            ok &= coproduct_iter(x * y, 1) == tensor_mul(coproduct_iter(x, 1), coproduct_iter(y, 1))
    b.done(ok)


def test_criterion_02_virasoro_validity():
    b = Budget("criterion 2: Virasoro skew-symmetry and Jacobi identity", 1)
    vir = zoo.builtin("virasoro")
    report = check_lie(vir)
    b.done(report["ok"] and not skew_check(vir))


def test_criterion_03_pc_iff_nr():
    b = Budget("criterion 3: PC <-> NR on zoo plus 50 random structures", 60)
    ok = True
    detail = ""
    for entry in zoo.zoo_structures():
        r, m = check_pc(entry["Q"]), check_mc_omega(entry["Q"])
        ok &= r["ok"] and m["ok"] and m["agrees_with_pc"]
    rng = random.Random(301)
    alg = LieAlgebra.abelian(["d"])
    g = FreeModule("g", ["u"], alg)
    h = FreeModule("h", ["x"], alg)
    fails_seen = 0
    for trial in range(50):
        Q = QuasiTwilled(
            g,
            h,
            pi=random_cochain(rng, g, g, 2, max_deg=3),
            rho=MixedMap(g, h, h, {(0, 0): random_ptelem(rng, h, 2, max_deg=3)}),
            mu=random_cochain(rng, h, h, 2, max_deg=3),
            eta=MixedMap(g, h, g, {(0, 0): random_ptelem(rng, g, 2, max_deg=3)}),
            theta=random_cochain(rng, g, h, 2, max_deg=3),
        )
        r, m = check_pc(Q), check_mc_omega(Q)
        ok &= m["agrees_with_pc"] and m["correspondence_ok"]
        ok &= r["ok"] == m["bracket_zero"]
        if not r["ok"]:
            fails_seen += 1
            # each nonzero PC residual maps to its predicted bracket component
            from pseudoalg.cochains import nr_bracket

            comps = extract_components(nr_bracket(Q.omega(), Q.omega()))
            block_of = {v: k for k, v in BLOCK_TO_PC.items()}
            for label, table in r["residuals"].items():
                if label not in block_of or not table:
                    continue
                ok &= block_of[label] in comps
    detail = f"({fails_seen}/50 random structures fail PC, as expected)"
    b.done(ok, detail)


def test_criterion_04_twist_closed_forms():
    b = Budget("criterion 4: twist closed forms equal the bracket series", 30)
    rng = random.Random(401)
    ok = True
    for entry in zoo.zoo_structures():
        Q = entry["Q"]
        for _ in range(20):
            D = zoo.random_hmap(rng, Q.g, Q.h, max_deg=2)
            _, rep = twist1(Q, D)
            ok &= rep["closed_form_equals_series"] and rep["series_equals_conjugation"]
            T = zoo.random_hmap(rng, Q.h, Q.g, max_deg=2)
            _, rep2 = twist2(Q, T)
            ok &= rep2["closed_form_equals_series"] and rep2["series_equals_conjugation"]
    b.done(ok)


def test_criterion_05_mc_operator_dictionary():
    b = Budget("criterion 5: operator identities <-> MC residuals, nine kinds", 60)
    rng = random.Random(501)
    ok = True
    for kind in zoo.ALL_KINDS:
        bundle = zoo.demo_bundle(kind)
        Q = bundle["Q"]
        src, dst = orientation(Q, zoo.map_type(kind))

        def mc(mp):
            if kind in zoo.TYPE_I_KINDS:
                return curved_l_type1(Q).mc_residual(mp)
            return curved_l_type2(Q).mc_residual(mp)

        maps = [bundle["map"]] + [zoo.random_hmap(rng, src, dst) for _ in range(20)]
        for mp in maps:
            op = zoo.operator_residual(kind, bundle["ingredients"], mp)
            ok &= op.is_zero() == mc(mp).is_zero()
    # closed forms: D = c id is a modified r-matrix iff c^2 = p (p = 4)
    mr = zoo.demo_bundle(zoo.MODIFIED_R)
    for c in range(-4, 5):
        D = HModuleMap.scalar(mr["Q"].g, mr["Q"].h, Fraction(c))
        ok &= curved_l_type1(mr["Q"]).mc_residual(D).is_zero() == (c * c == 4)
    # T = c id is a Reynolds operator (as printed) iff c in {0, -1}
    ry = zoo.demo_bundle(zoo.REYNOLDS)
    for c in range(-4, 5):
        T = HModuleMap.scalar(ry["Q"].h, ry["Q"].g, Fraction(c))
        ok &= curved_l_type2(ry["Q"]).mc_residual(T).is_zero() == (c in (0, -1))
    b.done(ok)


def test_criterion_06_graph_criterion():
    b = Budget("criterion 6: graph closure agrees with the type I residual", 10)
    rng = random.Random(501)  # same trials as criterion 5's type I kinds
    ok = True
    for kind in zoo.TYPE_I_KINDS:
        bundle = zoo.demo_bundle(kind)
        Q = bundle["Q"]
        maps = [bundle["map"]] + [zoo.random_hmap(rng, Q.g, Q.h) for _ in range(20)]
        for mp in maps:
            ok &= graph_check(Q, mp)["ok"] == dmap1_residual(Q, mp).is_zero()
    b.done(ok)


def test_criterion_07_linf_identities():
    b = Budget("criterion 7: higher Jacobi identities to arity 4, both types", 120)
    ok = True
    for entry in zoo.zoo_structures():
        Q = entry["Q"]
        for ops in (curved_l_type1(Q), curved_l_type2(Q)):
            res = linf_jacobi_check(ops, 4, random.Random(701), samples=2)
            ok &= res["ok"]
    b.done(ok)


def test_criterion_08_cohomology_consistency():
    b = Budget("criterion 8: d o d = 0 and l1 = (-1)^{p-1} d (classical signs)", 60)
    rng = random.Random(801)
    ok = True
    for entry in zoo.zoo_structures():
        Q = entry["Q"]
        for kind, m in (("I", entry["type1"]), ("II", entry["type2"])):
            if m is None:
                continue
            src = Q.g if kind == "I" else Q.h
            tgt = Q.h if kind == "I" else Q.g
            handle = handle_for(kind, Q, m, convention=CLASSICAL)
            f1 = random_cochain(rng, src, tgt, 1, max_deg=2)
            ok &= handle.diff(handle.diff(f1)).is_zero()
            for p in (1, 2):
                f = random_cochain(rng, src, tgt, p, max_deg=2)
                out = consistency_l1_vs_d(kind, Q, m, f)
                ok &= CLASSICAL in out["validated"]
    b.done(ok, "(validated convention: classical)")


def test_criterion_09_twisted_mc():
    b = Budget("criterion 9: twisted MC residual = direct residual of the sum", 30)
    rng = random.Random(901)
    ok = True
    mr = zoo.demo_bundle(zoo.MODIFIED_R)
    tw1 = TwistedLinfOps(mr["Q"], mr["map"], TYPE_I)
    for _ in range(20):
        D2 = zoo.random_hmap(rng, mr["Q"].g, mr["Q"].h)
        lhs = tw1.mc_residual(D2)
        rhs = dmap1_residual(mr["Q"], mr["map"] + D2)
        ok &= lhs.is_zero() == rhs.is_zero() and lhs == rhs
    ry = zoo.demo_bundle(zoo.REYNOLDS)
    tw2 = TwistedLinfOps(ry["Q"], ry["map"], TYPE_II)
    for _ in range(20):
        T2 = zoo.random_hmap(rng, ry["Q"].h, ry["Q"].g)
        lhs = tw2.mc_residual(T2)
        rhs = dmap2_residual(ry["Q"], ry["map"] + T2)
        ok &= lhs.is_zero() == rhs.is_zero() and lhs == rhs
    b.done(ok)


def test_criterion_10_rank2_classification():
    """Expected red: the printed classification misses genuine structures.

    The search is faithful (complete elimination, every family sample
    verified, the alem12 family recovered exactly); the failure is the
    "only types i/ii/iii" clause.  At degree 2, 18 of the 24 families fall
    outside the printed types.  The simplest is the theta-only central
    extension (D_01 = 1, everything else 0).  Three independent routes agree
    it is a genuine structure: check_pc (PC1-PC8), check_mc_omega
    ([Omega,Omega]_NR = 0) and check_lie (skew + Jacobi of the assembled
    bracket).  All three printed types require D = 0, so it is of none of
    them; tests/test_rank2.py::test_classification_counterexample_documented
    pins it.  PAPER.md holds only the abstract, so the repo cannot settle
    whether the printed statement assumes more than this search does (for
    instance a Virasoro Hx instead of the abelian Hx searched here).
    """
    b = Budget("criterion 10: rank-2 search returns only types i/ii/iii", 300)
    from pseudoalg.rank2 import OTHER_TAG, lemma_special_case, rank2_search
    import sympy

    res = rank2_search(2)
    complete = res["unresolved"] == 0 and all(f["sample_ok"] for f in res["families"])
    lemma = lemma_special_case(2)
    lemma_ok = lemma["unresolved"] == 0
    family_shapes = []
    for fam in lemma["families"]:
        exprs = fam["_exprs"]
        if all(e == 0 for e in exprs.values()):
            continue
        lemma_ok &= sympy.expand(exprs[(1, 0)] - 1) == 0
        lemma_ok &= all(
            e == 0 for k, e in exprs.items() if k not in {(0, 0), (0, 1), (1, 0)}
        )
        family_shapes.append(fam["C"])
    lemma_ok &= bool(family_shapes)
    others = [f for f in res["families"] if f["tag"] == OTHER_TAG]
    detail = (
        f"(lemma family recovered: {lemma_ok}; search complete: {complete}; "
        f"{len(others)} families outside the printed types, e.g. "
        f"{others[0]['free'] if others else None} free with subs {others[0]['subs'] if others else None})"
    )
    b.done(complete and lemma_ok and not others, detail)


def test_criterion_11_cli_contract(tmp_path, capsys):
    b = Budget("criterion 11: round trips, exit codes, report determinism", 10)
    ok = True
    # round-trip serialize o parse on all zoo files
    for entry in zoo.zoo_structures():
        blob = pio.dumps(pio.structure_to_json(entry["Q"]))
        blob2 = pio.dumps(pio.structure_to_json(pio.structure_from_json(pio.loads(blob))))
        ok &= blob == blob2
    # exit codes on the documented examples
    mr = zoo.demo_bundle(zoo.MODIFIED_R)
    struct = tmp_path / "mr.json"
    struct.write_text(pio.dumps(pio.structure_to_json(mr["Q"])))
    good = tmp_path / "d2.json"
    good.write_text(pio.dumps(pio.map_to_json(mr["map"], "g", "h")))
    bad = tmp_path / "d1.json"
    bad.write_text(
        pio.dumps(
            pio.map_to_json(HModuleMap.scalar(mr["Q"].g, mr["Q"].h, Fraction(1)), "g", "h")
        )
    )
    broken = tmp_path / "broken.json"
    broken.write_text("{]")
    ok &= cli_main(["dmap", "--type", "I", str(struct), str(good)]) == 0
    ok &= cli_main(["dmap", "--type", "I", str(struct), str(bad)]) == 1
    ok &= cli_main(["check", str(broken)]) == 2
    ok &= cli_main(["cohomology", "--type", "I", str(struct), str(good), "--degree", "4", "--max-pbw", "40"]) == 3
    capsys.readouterr()
    # determinism: identical command and seed give identical structured output
    code1 = cli_main(["--json", "linf", "--type", "I", str(struct), "--max-arity", "2", "--seed", "5"])
    out1 = capsys.readouterr().out
    code2 = cli_main(["--json", "linf", "--type", "I", str(struct), "--max-arity", "2", "--seed", "5"])
    out2 = capsys.readouterr().out
    ok &= code1 == code2 == 0 and out1 == out2
    with capsys.disabled():
        b.done(ok)
