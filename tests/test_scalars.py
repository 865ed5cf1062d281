"""The exact-scalar invariant: int when integral, Fraction otherwise, never float.

The kernel keeps integral scalars as Python ints and only builds a Fraction
when a value is not integral, so most of the suite runs on integer data.  The
property tests here draw non-integral rationals (such as 1/2 and -2/3) so the
Fraction side of every mixed operation is exercised too.  The one other
scalar the kernel admits is a polynomial over QQ or ZZ: an element of a ring
of ``sympy.polys.rings``, or `rank2.SparseZZ`, the light polynomial over ZZ
the rank-2 residual evaluation runs on, which is checked against the ring
here; the kernel itself never imports sympy.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st
from sympy import QQ, RR, ZZ
from sympy.polys.rings import ring

from pseudoalg import hopf
from pseudoalg.hopf import (
    HElem,
    HTensor,
    LieAlgebra,
    coeff,
    exact_div,
)
from pseudoalg.ptensor import FreeModule, PTElem, canonicalize
from pseudoalg.cochains import MixedMap, nr_bracket, random_cochain, random_ptelem
from pseudoalg.structures import QuasiTwilled, check_mc_omega, check_pc
from pseudoalg.deformation import TYPE_I, TYPE_II, exp_twist
from pseudoalg.rank2 import SparseZZ
from pseudoalg import zoo

from oracles import antipode, coproduct_iter

B2 = zoo.nonabelian_2dim()
QD = LieAlgebra.abelian(["d"])

# nonzero rationals with small denominators; integers are drawn as well
scalars = st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool)


def multi_indices(alg, max_part):
    return st.tuples(*[st.integers(0, max_part)] * alg.dim)


def helems(alg, max_part=2):
    return st.dictionaries(multi_indices(alg, max_part), scalars, min_size=1, max_size=3).map(
        lambda terms: HElem(alg, terms)
    )


def raw_terms(alg, arity, rank, max_part=1):
    term = st.tuples(
        st.tuples(*[multi_indices(alg, max_part)] * arity),
        multi_indices(alg, max_part),
        st.integers(0, rank - 1),
        scalars,
    )
    return st.lists(term, min_size=1, max_size=3)


def assert_exact(values):
    for c in values:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


# -- the helpers ----------------------------------------------------------------------


def test_coeff_normalises_and_rejects_floats():
    assert type(coeff(Fraction(6, 3))) is int and coeff(Fraction(6, 3)) == 2
    assert coeff(Fraction(1, 2)) == Fraction(1, 2)
    assert type(coeff(True)) is int
    with pytest.raises(TypeError):
        coeff(0.5)
    with pytest.raises(TypeError):
        coeff(2.0)


def test_coeff_passes_exact_polynomials_and_rejects_inexact_ones():
    for domain in (QQ, ZZ):
        _R, x, y = ring("x y", domain)
        p = 3 * x * y - 2 * x + 1
        assert coeff(p) is p
        assert coeff(x) is x
    _R, x = ring("x", RR)
    with pytest.raises(TypeError):
        coeff(x + 1)
    with pytest.raises(TypeError):
        coeff(0.5)


def test_ring_coefficients_survive_the_kernel():
    _R, x, y = ring("x y", QQ)
    g = FreeModule("g", ["u"], QD)
    e = PTElem(g, 2, {(((1,),), (0,), 0): x, (((0,),), (1,), 0): 0 * y})
    assert e.terms == {(((1,),), (0,), 0): x}
    assert (e.scale(Fraction(1, 2)) + e.scale(y)).terms == {(((1,),), (0,), 0): x / 2 + x * y}
    assert (e - e).is_zero()


# -- the rank-2 evaluation's polynomial scalar against the ring ----------------------

R4 = ring("x0 x1 x2 x3", ZZ)[0]
zz_polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 4),
                           st.integers(-3, 3).filter(bool), min_size=1, max_size=4).map(R4.from_dict)


def light(p):
    """p as a SparseZZ, checked to be one: sorted monomials, nonzero ints."""
    s = SparseZZ.from_ring(p)
    assert type(s) is SparseZZ and s.ring is R4
    assert all(type(c) is int and c and list(mon) == sorted(mon) for mon, c in s.terms.items())
    return s


@given(zz_polys, zz_polys, st.integers(-3, 3))
def test_sparse_zz_matches_the_ring(p, q, k):
    a, b = light(p), light(q)
    assert coeff(a) is a and a.to_ring() == p
    for got, want in (
        (a + b, p + q), (a - b, p - q), (-a, -p), (a * b, p * q),
        (k * a, k * p), (a * k, p * k), (0 + a, p), (a - a, R4.zero), (a * 0, R4.zero),
    ):
        assert type(got) is SparseZZ and got.to_ring() == want
    assert not (a - a) and (a + (b - a) == b) and ((a + b) - b == a)
    assert (a == b) == (p == q) and (a != b) == (p != q)


@given(zz_polys, st.sampled_from([Fraction(1, 2), Fraction(2), Fraction(0), 0.5, 0.0, 1]))
def test_sparse_zz_refuses_inexact_operands(p, x):
    # never rounded: a Fraction, even an integral one, or a float raises on
    # either side, as does an element of the ring itself; an int scales but
    # is never added (the residual evaluation adds only 0 + p)
    a = light(p)
    ops = [lambda u, v: u + v, lambda u, v: u - v]
    for other in (x, p):
        for op in ops if type(other) is int else ops + [lambda u, v: u * v]:
            with pytest.raises(TypeError):
                op(a, other)
            with pytest.raises(TypeError):
                op(other, a)
    assert a != 1 and a != x and a != p


# What a fresh `pa` process loads: `import pseudoalg.cli` (argv None) and one
# command of each kind, run from tests/golden.  The core is the light
# modules every command needs; a command adds only what its body runs, and
# only the rank-2 command imports sympy (its budget refuses degree 4 at once).
CORE = {"cli", "hopf", "ptensor", "cochains", "structures", "io"}
DEFORMATION = CORE | {"deformation"}
COHOMOLOGY = DEFORMATION | {"cohomology", "linalg"}
ZOO = COHOMOLOGY | {"zoo"}
MODULE_SETS = {
    "import": (None, CORE),
    "check": (["check", "modified_r.json"], CORE),
    "check-qt": (["check-qt", "modified_r.json"], CORE),
    "nr": (["nr", "nr_f.json", "nr_g.json"], CORE),
    "dmap": (["dmap", "--type", "I", "modified_r.json", "modified_r_map.json"], DEFORMATION),
    "twist": (["twist", "--type", "I", "modified_r.json", "modified_r_map.json"], DEFORMATION),
    "linf": (["linf", "--type", "I", "modified_r.json", "--max-arity", "2"], DEFORMATION),
    "ce": (["ce", "--type", "I", "modified_r.json", "modified_r_map.json", "ce_I.json"],
           COHOMOLOGY),
    "cohomology": (["cohomology", "--type", "I", "modified_r.json", "modified_r_map.json",
                    "--degree", "1", "--max-pbw", "1"], COHOMOLOGY),
    "dictionary": (["dictionary", "--kind", "modified_r", "--weight", "4", "modified_r.json",
                    "modified_r_map.json"], ZOO),
    "zoo": (["zoo", "modified_r"], ZOO),
    "rank2-search": (["rank2-search", "--max-deg", "4"], CORE | {"rank2"}),
}
LOADED = (
    "import contextlib, io, json, sys\n"
    "code = None\n"
    "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
    "    from pseudoalg.cli import main\n"
    "    if len(sys.argv) > 1:\n"
    "        code = main(sys.argv[1:])\n"
    "names = sorted(m.split('.')[1] for m in sys.modules if m.startswith('pseudoalg.'))\n"
    "print(json.dumps([code, names, 'sympy' in sys.modules]))\n"
)


@pytest.mark.parametrize("name", MODULE_SETS)
def test_cli_command_module_sets(name):
    # start-up compiles every module a process imports, so a command loads
    # only the modules its body runs
    argv, modules = MODULE_SETS[name]
    src = str(Path(hopf.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", LOADED, *(argv or [])],
        capture_output=True,
        text=True,
        cwd=Path(__file__).parent / "golden",
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
        check=True,
    )
    code, loaded, has_sympy = json.loads(out.stdout)
    assert set(loaded) == modules
    assert has_sympy == ("rank2" in modules)
    assert code == (None if argv is None else 3 if has_sympy else 0)


def test_light_workloads_never_load_sympy():
    # every route but the rank-2 search runs on these modules; sympy
    # alone takes about 0.4 s to import, so none of them may pull it in
    probe = (
        "import json, sys\n"
        "import pseudoalg.cli, pseudoalg.zoo, pseudoalg.io, pseudoalg.cohomology\n"
        "import pseudoalg.deformation\n"
        "print(json.dumps([m in sys.modules for m in ('sympy', 'pseudoalg.rank2')]))\n"
    )
    src = str(Path(hopf.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
        check=True,
    )
    assert json.loads(out.stdout) == [False, False]


def test_exact_div_stays_exact():
    assert exact_div(6, 3) == 2 and type(exact_div(6, 3)) is int
    assert exact_div(-3, 2) == Fraction(-3, 2)
    assert exact_div(Fraction(3, 2), Fraction(1, 2)) == 3
    assert type(exact_div(Fraction(3, 2), Fraction(1, 2))) is int
    with pytest.raises(ZeroDivisionError):
        exact_div(1, 0)
    with pytest.raises(TypeError):
        exact_div(1.0, 2)


def test_constructors_reject_floats():
    g = FreeModule("g", ["u"], QD)
    with pytest.raises(TypeError):
        HElem(QD, {(1,): 0.5})
    with pytest.raises(TypeError):
        HTensor(QD, 2, {((0,), (1,)): 1.0})
    with pytest.raises(TypeError):
        PTElem(g, 1, {((), (0,), 0): 2.0})
    with pytest.raises(TypeError):
        PTElem(g, 1, {((), (0,), 0): 1}).scale(0.5)
    with pytest.raises(TypeError):
        QD.unit().scale(0.5)
    with pytest.raises(TypeError):
        HElem(QD, {(1,): 0.0})  # a float zero is rejected, not dropped
    for last in ((1,), (0,)):  # a straightened and a trivial last slot
        with pytest.raises(TypeError):
            canonicalize(g, 2, [(((1,), last), (0,), 0, 0.5)])
        with pytest.raises(TypeError):  # floats that cancel on one key
            canonicalize(g, 2, [(((1,), last), (0,), 0, 0.5), (((1,), last), (0,), 0, -0.5)])
        with pytest.raises(TypeError):  # a lone float zero
            canonicalize(g, 2, [(((1,), last), (0,), 0, 0.0)])
    # the int fast path still normalises a bool and an integral Fraction to int
    for value in (True, Fraction(4, 2)):
        built = (
            HElem(QD, {(1,): value}),
            HTensor(QD, 2, {((0,), (1,)): value}),
            PTElem(g, 1, {((), (0,), 0): value}),
        )
        for e in built:
            assert [type(v) for v in e.terms.values()] == [int], e


def test_kernel_outputs_are_exact_on_zoo_inputs():
    for alg in (QD, B2, zoo.builtin("cur_sl2").source.alg):
        for I in ((0,) * alg.dim, (1,) * alg.dim, (2,) + (1,) * (alg.dim - 1)):
            for J in ((3,) + (0,) * (alg.dim - 1), (1,) * alg.dim, (0,) * (alg.dim - 1) + (2,)):
                assert_exact(alg.mul_mono(I, J).values())
    half = Fraction(1, 2)
    raw = [(((1, 1), (0, 2)), (1, 0), 0, half), (((0, 1), (2, 1)), (0, 1), 0, Fraction(-2, 3))]
    assert_exact(canonicalize(FreeModule("m", ["e"], B2), 2, raw).terms.values())
    for entry in zoo.zoo_structures():
        Q = entry["Q"]
        for om in (Q.omega(), Q.omega().scale(half)):
            for v in nr_bracket(om, om).terms.values():
                assert_exact(v.terms.values())
        for kind in (TYPE_I, TYPE_II):
            M = entry["type1" if kind == TYPE_I else "type2"]
            if M is None:
                continue
            for m in (M, M.scale(half)):
                for v in exp_twist(Q, m, kind).terms.values():
                    assert_exact(v.terms.values())


# -- properties over non-integral data ---------------------------------------------------


@given(helems(B2), helems(B2), helems(B2))
def test_hopf_associativity_nonabelian(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert_exact((x * y).terms.values())


@given(helems(B2))
def test_antipode_law_nonabelian(x):
    acc = B2.zero()
    for (K1, K2), c in coproduct_iter(x, 1).terms.items():
        acc = acc + (antipode(B2.mono(K1)) * B2.mono(K2)).scale(c)
    assert acc == B2.unit().scale(x.terms.get(B2.zero_index, 0))
    assert_exact(antipode(x).terms.values())


@given(st.sampled_from([2, 3]), st.data())
def test_canonicalize_idempotent(arity, data):
    module = FreeModule("m", ["e0", "e1"], B2)
    e = canonicalize(module, arity, data.draw(raw_terms(B2, arity, module.rank)))
    assert_exact(e.terms.values())
    zero = B2.zero_index
    again = canonicalize(
        module, arity, [(slots + (zero,), K, k, c) for (slots, K, k), c in e.terms.items()]
    )
    assert again == e


@given(st.integers(0, 2**16), st.lists(scalars, min_size=5, max_size=5))
def test_pc_agrees_with_nr_on_scaled_random_rank_one_one(seed, scales):
    rng = random.Random(seed)
    g = FreeModule("g", ["u"], QD)
    h = FreeModule("h", ["x"], QD)
    s_pi, s_rho, s_mu, s_eta, s_theta = scales
    Q = QuasiTwilled(
        g,
        h,
        pi=random_cochain(rng, g, g, 2, max_deg=2).scale(s_pi),
        rho=MixedMap(g, h, h, {(0, 0): random_ptelem(rng, h, 2, max_deg=2).scale(s_rho)}),
        mu=random_cochain(rng, h, h, 2, max_deg=2).scale(s_mu),
        eta=MixedMap(g, h, g, {(0, 0): random_ptelem(rng, g, 2, max_deg=2).scale(s_eta)}),
        theta=random_cochain(rng, g, h, 2, max_deg=2).scale(s_theta),
    )
    r, m = check_pc(Q), check_mc_omega(Q)
    assert m["agrees_with_pc"] and m["correspondence_ok"]
    assert r["ok"] == m["bracket_zero"]


@given(st.sampled_from(["rank2_type_i", "rank2_type_ii", "rank2_type_iii"]), scalars)
def test_pc_and_nr_pass_on_uniformly_scaled_rank_one_one(name, s):
    # [s Omega, s Omega]_NR = s^2 [Omega, Omega]_NR, so scaling every component
    # of a structure by one rational gives a structure again
    Q = zoo.builtin(name)
    Qs = QuasiTwilled(
        Q.g,
        Q.h,
        pi=Q.pi.scale(s),
        rho=Q.rho.scale(s),
        mu=Q.mu.scale(s),
        eta=Q.eta.scale(s),
        theta=Q.theta.scale(s),
    )
    r, m = check_pc(Qs), check_mc_omega(Qs)
    assert r["ok"] and m["ok"] and m["agrees_with_pc"]
    for v in Qs.omega().terms.values():
        assert_exact(v.terms.values())
