"""Bounded-degree rank-2 classification and the eta-versus-Virasoro lemma."""

import hashlib
import json
from fractions import Fraction

import pytest
import sympy
from sympy.polys import polytools
from sympy.polys.rings import PolyElement, PolyRing, ring, sring

from pseudoalg import rank2
from pseudoalg.cli import main as cli_main
from pseudoalg.cohomology import ResourceError
from pseudoalg.rank2 import (
    MAX_UNKNOWNS,
    OTHER_TAG,
    Family,
    Rank2Problem,
    TYPE_I_TAG,
    TYPE_II_TAG,
    TYPE_III_TAG,
    classify_family,
    lemma_special_case,
    rank2_search,
    reconstruct_polynomials,
    solve_quadratic_system,
)
from pseudoalg.structures import check_lie, check_mc_omega, check_pc

from oracles import _interpolate_quadratics


def vec(problem, **kw):
    out = []
    for (name, ij) in problem.layout:
        out.append(Fraction(kw.get(f"{name}_{ij[0]}{ij[1]}", 0)))
    return out


def classify_instance(problem: Rank2Problem, assignment) -> str:
    """Tag a single rational instance against the three patterns."""
    field = problem.ring.to_field()
    values = {s: field(v.numerator) / v.denominator for s, v in zip(problem.symbols, assignment)}
    return classify_family(problem, Family(values, [], set(), field))


def test_instance_classification():
    p = Rank2Problem(1)
    assert classify_instance(p, vec(p, A_01=1)) == TYPE_I_TAG
    assert classify_instance(p, vec(p)) == TYPE_I_TAG  # the zero structure
    assert classify_instance(p, vec(p, C_00=1)) == TYPE_II_TAG
    assert classify_instance(p, vec(p, C_01=2)) == TYPE_II_TAG
    assert classify_instance(p, vec(p, C_00=1, B_00=2)) == TYPE_III_TAG
    # the ratio's C coefficient is certified as a nonzero constant, integral or not
    assert classify_instance(p, vec(p, C_00=Fraction(1, 2), B_00=1)) == TYPE_III_TAG
    assert classify_instance(p, vec(p, D_01=1)) == OTHER_TAG
    # eta with a nonzero first leg is outside the printed families
    assert classify_instance(p, vec(p, C_10=1)) == OTHER_TAG


def test_interpolation_reconstructs_quadratics():
    # the reconstructed polynomials vanish exactly on a known solution and
    # not on a known non-solution
    p = Rank2Problem(1)
    polys = [q.as_expr() for q in reconstruct_polynomials(p)]
    assert polys
    point = dict(zip(p.symbols, vec(p, C_00=1, B_00=2)))
    assert all(sympy.expand(q.subs(point)) == 0 for q in polys)
    bad = dict(zip(p.symbols, vec(p, C_10=1, B_01=1)))
    assert any(sympy.expand(q.subs(bad)) != 0 for q in polys)


def test_interpolation_exact_beyond_float_precision():
    # an integer quadratic coefficient above 2**53 and non-integral ones are
    # recovered exactly; a float anywhere in the divide would round the first
    x0, x1 = sympy.symbols("x0 x1")
    big = 2**60 + 1

    def ev(v):
        return {
            "a": big * v[0] ** 2 + 3 * v[1] + 5,
            "b": Fraction(-2, 3) * v[0] * v[1] + Fraction(1, 2) * v[0],
        }

    polys = _interpolate_quadratics(ev, 2, [x0, x1])
    assert polys == [
        sympy.expand(big * x0**2 + 3 * x1 + 5),
        sympy.expand(sympy.Rational(-2, 3) * x0 * x1 + sympy.Rational(1, 2) * x0),
    ]


def _distinct_up_to_scaling(polys, symbols):
    # the sympy.Poly route to the deduplication in reconstruct_polynomials
    seen = {}
    for q in polys:
        prim = sympy.primitive(sympy.Poly(q, *symbols))[1].as_expr()
        if prim not in seen and -prim not in seen:
            seen[prim] = None
    return list(seen)


@pytest.mark.parametrize("max_deg, virasoro", [(1, False), (2, False), (1, True)])
def test_ring_evaluation_matches_interpolation(max_deg, virasoro):
    p = Rank2Problem(max_deg, mu_virasoro=virasoro)
    interpolated = _interpolate_quadratics(p.residual_vector, len(p.layout), p.symbols)
    assert [q.as_expr() for q in p.residual_polynomials(p.gens)] == interpolated
    assert [q.as_expr() for q in reconstruct_polynomials(p)] == _distinct_up_to_scaling(
        interpolated, p.symbols)


def test_lemma_system_matches_interpolation(monkeypatch):
    # the C-only PC6 system the lemma hands its solver, as ring elements,
    # against interpolating PC6 over the C unknowns with every other unknown zero
    seen = []
    solve = rank2.solve_quadratic_system

    def capture(eqs, symbols):
        seen.append((list(eqs), list(symbols)))
        return solve(eqs, symbols)

    monkeypatch.setattr(rank2, "solve_quadratic_system", capture)
    lemma_special_case(2)
    [(eqs, c_symbols)] = seen
    p = Rank2Problem(2, mu_virasoro=True)

    def ev(vec_c):
        values = dict(zip(c_symbols, vec_c))
        return p.residual_vector([values.get(s, 0) for s in p.symbols])

    assert [e.as_expr() for e in eqs] == _interpolate_quadratics(ev, len(c_symbols), c_symbols)


@pytest.mark.parametrize("max_deg, coords", [(1, 8), (2, 32), (3, 80)])
def test_lemma_system_is_pc6_alone(max_deg, coords):
    # with Virasoro mu and only C unknown, every residual coordinate is PC6:
    # the lemma hands its solver the whole residual vector
    p = Rank2Problem(max_deg, mu_virasoro=True)
    c_only = [g if name == "C" else 0 for (name, _ij), g in zip(p.layout, p.gens)]
    labels = [label for label, _args, _key in p.residual_vector(c_only)]
    assert len(labels) == coords and set(labels) == {"PC6"}


@pytest.mark.parametrize("max_deg", [1, 2])
@pytest.mark.parametrize("virasoro", [False, True])
def test_pc_equals_nr_over_the_unknowns(max_deg, virasoro):
    # the structure at the generators of ZZ[unknowns] is every point at once:
    # its PC residuals are nonzero polynomials, and [Omega, Omega]_NR
    # matches them identically, not only at sampled points
    p = Rank2Problem(max_deg, mu_virasoro=virasoro)
    m = check_mc_omega(p.structure(p.gens))
    assert not m["bracket_zero"] and m["correspondence_ok"] and m["agrees_with_pc"]


def test_one_pc_evaluation_per_problem(monkeypatch):
    calls = []
    pc_residuals = rank2.pc_residuals

    def counting(Q):
        calls.append(Q)
        return pc_residuals(Q)

    monkeypatch.setattr(rank2, "pc_residuals", counting)
    reconstruct_polynomials(Rank2Problem(2))
    assert len(calls) == 1
    lemma_special_case(2)
    assert len(calls) == 2


def test_degree3_polynomials_pinned():
    polys = [q.as_expr() for q in reconstruct_polynomials(Rank2Problem(3))]
    assert len(polys) == 234
    assert hashlib.sha256(str(polys).encode()).hexdigest()[:12] == "740b42c81283"


# (a, b) of each block in the torus weight (i + j, a, b) of the unknown X_ij:
# the automorphism d -> t d of Q[d] and the new bases s u, r x rescale X_ij
# by t^(i+j) s^a r^b, and an isomorphism keeps the PC conditions
TORUS_AB = {"A": (1, 0), "B": (1, 0), "C": (0, 1), "D": (2, -1)}


def _torus_weights(problem, ab=TORUS_AB) -> list:
    return [(i + j,) + ab[name] for name, (i, j) in problem.layout]


def _inhomogeneous(polys, weights) -> int:
    """How many of the ring elements mix monomials of different weight."""
    columns = list(zip(*weights))
    return sum(
        len({tuple(sum(e * w for e, w in zip(mon, col)) for col in columns) for mon in q.monoms()}) > 1
        for q in polys
    )


def test_residuals_are_torus_homogeneous():
    # every residual polynomial is homogeneous in the three torus weights: a
    # slip of degree or basis bookkeeping in canonicalize, the coproduct or
    # the antipode would mix weights; a sign slip keeps them
    for max_deg, count, d_plus in ((1, 14, 3), (2, 77, 13), (3, 234, 50)):
        p = Rank2Problem(max_deg)
        polys = reconstruct_polynomials(p)
        assert _inhomogeneous(polys, _torus_weights(p)) == 0
        assert len(polys) == count
        # negative control: D given the b-weight +1
        assert _inhomogeneous(polys, _torus_weights(p, {**TORUS_AB, "D": (2, 1)})) == d_plus
    # Virasoro mu, of weight (1, 0, 1), keeps the 2-torus of the a-weight and
    # (i + j) - b; the lemma's C-only system is homogeneous there, and mixes
    # weights under the full 3-torus
    p = Rank2Problem(2, mu_virasoro=True)
    c_only = [g if name == "C" else 0 for (name, _ij), g in zip(p.layout, p.gens)]
    polys = p.residual_polynomials(c_only)
    assert _inhomogeneous(polys, [(t - b, a) for t, a, b in _torus_weights(p)]) == 0
    assert len(polys) == 32
    assert _inhomogeneous(polys, _torus_weights(p)) == 15


@pytest.mark.parametrize("max_deg, c_only", [(1, False), (2, False), (3, False), (2, True)])
def test_sparse_route_equals_ring_route(max_deg, c_only):
    # the SparseZZ evaluation against the same evaluation with the ring's
    # generators themselves as scalars, term for term in the order of the keys
    p = Rank2Problem(max_deg, mu_virasoro=c_only)
    assignment = [g if name == "C" or not c_only else 0
                  for (name, _ij), g in zip(p.layout, p.gens)]
    coords = p.residual_vector(assignment)
    ring_route = [coords[k] for k in sorted(coords, key=repr)]
    polys = p.residual_polynomials(assignment)
    assert all(isinstance(q, PolyElement) and q.ring is p.ring for q in polys)
    assert [dict(q) for q in polys] == [dict(q) for q in ring_route]


def test_residual_evaluation_runs_no_ring_arithmetic(monkeypatch):
    # the residual evaluation multiplies and adds SparseZZ scalars; the
    # structure at the ring's generators is the control that does run ring
    # arithmetic
    calls = []
    for name in ("__mul__", "__add__"):
        op = getattr(PolyElement, name)
        monkeypatch.setattr(PolyElement, name,
                            lambda a, b, op=op, name=name: calls.append(name) or op(a, b))
    reconstruct_polynomials(Rank2Problem(2))
    assert calls == []
    p = Rank2Problem(1)
    check_mc_omega(p.structure(p.gens))
    assert {"__mul__", "__add__"} <= set(calls)


def _search_with_families(max_deg):
    """rank2_search(max_deg), the solver's Family objects in its order, and
    each (arguments, result) of its substitution kernel `_substitute`."""
    families, substitutions = [], []
    solve, substitute = rank2.solve_quadratic_system, rank2._substitute

    def logged_solve(eqs, symbols):
        found, unresolved = solve(eqs, symbols)
        families.extend(found)
        return found, unresolved

    def logged_substitute(*args):
        out = substitute(*args)
        substitutions.append((args, out))
        return out

    with pytest.MonkeyPatch.context() as m:
        m.setattr(rank2, "solve_quadratic_system", logged_solve)
        m.setattr(rank2, "_substitute", logged_substitute)
        # degree 2 visits exactly 192 nodes
        m.setattr(rank2, "MAX_SOLVER_NODES", 192)
        return rank2_search(max_deg), families, substitutions


@pytest.fixture(scope="module")
def search_deg2():
    # the one degree-2 search of this module, shared by the tests that read it
    return _search_with_families(2)


def _family_text_digest(res) -> str:
    text = json.dumps([[f["tag"], f["subs"], f["free"], f["nonzero"]] for f in res["families"]])
    return hashlib.sha256(text.encode()).hexdigest()


def test_search_family_text_pinned(search_deg2):
    # every family's tag, substitution, frees and nonzero set, in the
    # solver's order; the text is the same under every hash seed
    res1 = _search_with_families(1)[0]
    assert len(res1["families"]) == 10
    assert _family_text_digest(res1) == (
        "8317282f6eb298a033dca4153badb88dd284a33c0d7b9f56456274e67e52d86e")
    res2 = search_deg2[0]
    assert len(res2["families"]) == 24
    assert _family_text_digest(res2) == (
        "182ba5fe9926a505ca7bc8a75eb993892f590c1aafd277fb977eef407b88269d")


def _residuals_at(polys, rule) -> list:
    """The polynomials with the rule put in, as cancelled expressions."""
    return [sympy.cancel(q.xreplace(rule)) for q in polys]


def _rule(fam) -> dict:
    """A family's substitution as expressions."""
    return {k: v.as_expr() for k, v in fam.subs.items()}


def test_families_vanish_on_the_reconstructed_polynomials(search_deg2):
    # each family solves the system on its whole open set, not only at its
    # sample point: its substitution, with the frees left free, makes every
    # residual polynomial vanish identically
    for res, families, _subs in (_search_with_families(1), search_deg2):
        polys = [q.as_expr() for q in reconstruct_polynomials(Rank2Problem(res["max_deg"]))]
        assert len(families) == len(res["families"])
        for fam in families:
            assert not any(_residuals_at(polys, _rule(fam))), fam
    # negative control: C_00 moved off the theta-only family leaves a residual
    [theta] = [f for f in families if [str(s) for s in f.frees] == ["D_01", "D_02"]]
    c00 = sympy.Symbol("C_00", rational=True)
    assert theta.subs[c00] == 0 and any(_residuals_at(polys, {**_rule(theta), c00: 1}))
    # the lemma's C-only families, with every other unknown 0
    problem = Rank2Problem(2, mu_virasoro=True)
    polys = [q.as_expr() for q in reconstruct_polynomials(problem)]
    rules = [{sym: fam["_exprs"][ij] if name == "C" else 0
              for (name, ij), sym in zip(problem.layout, problem.symbols)}
             for fam in lemma_special_case(2)["families"]]
    for rule in rules:
        assert not any(_residuals_at(polys, rule)), rule
    # negative control: the widest family's leading coefficient C_10 = 1 moved to 2
    c10 = sympy.Symbol("C_10", rational=True)
    assert rules[-1][c10] == 1 and any(_residuals_at(polys, {**rules[-1], c10: 2}))


def test_sample_verdicts(search_deg2):
    # every degree-2 family's sample verifies; the theta-only family with
    # C_00 = 1 put in is no solution, and its sample fails check_pc
    assert all(f["sample_ok"] for f in search_deg2[0]["families"])
    [theta] = [f for f in search_deg2[1] if [str(s) for s in f.frees] == ["D_01", "D_02"]]
    c00 = sympy.Symbol("C_00", rational=True)
    moved = Family({**theta.subs, c00: theta.field.one}, theta.frees, theta.nonzero, theta.field)
    assert rank2._sample_instance(Rank2Problem(2), moved) is False


def test_search_degree1_complete_and_verified():
    res = rank2_search(1)
    assert res["unresolved"] == 0
    assert all(f["sample_ok"] for f in res["families"])
    assert TYPE_II_TAG in res["tags"]


def test_search_families_cover_known_solutions():
    # every known pattern instance must satisfy the reconstructed system;
    # conversely each reported family was sample-verified against check_pc
    p = Rank2Problem(1)
    for kw, tag in (
        (dict(A_01=3), TYPE_I_TAG),
        (dict(C_00=1, C_01=-2), TYPE_II_TAG),
        (dict(C_00=2, B_00=-1), TYPE_III_TAG),
    ):
        v = vec(p, **kw)
        resid = p.residual_vector(v)
        assert all(c == 0 for c in resid.values())
        assert classify_instance(p, v) == tag


def test_classification_counterexample_documented():
    """The theta-only structure refutes the printed classification.

    A central extension of the abelian rank-1 module by the abelian
    subalgebra passes all PC conditions and the full NR check, but its
    bracket is not of type (i)/(ii)/(iii); the printed proof's Case 4
    wrongly eliminates it by citing a condition that degenerates when mu = 0.
    """
    p = Rank2Problem(1)
    v = vec(p, D_01=1)
    Q = p.structure(v)
    assert check_pc(Q)["ok"]
    m = check_mc_omega(Q)
    assert m["bracket_zero"] and m["ok"]
    assert check_lie(Q.omega())["ok"]
    assert classify_instance(p, v) == OTHER_TAG
    # consequently the search reports an "other" family at degree >= 1
    res = rank2_search(1)
    assert OTHER_TAG in res["tags"]
    assert not res["ok"]


def test_lemma_special_case_family():
    out = lemma_special_case(2)
    assert out["unresolved"] == 0
    families = out["families"]
    # solutions: C = 0 and C = s(x)1 - lambda(x)s + c0(x)1 (s = d), with the
    # leading coefficient forced to exactly 1 and no degree-2 coefficients
    expected_keys = {(0, 0), (0, 1), (1, 0)}
    nonzero_descriptions = []
    for fam in families:
        exprs = fam["_exprs"]
        if all(e == 0 for e in exprs.values()):
            continue  # the trivial solution
        assert sympy.expand(exprs[(1, 0)] - 1) == 0
        for key, e in exprs.items():
            if key not in expected_keys:
                assert e == 0, (key, e)
        nonzero_descriptions.append(fam)
    assert nonzero_descriptions
    # the widest family has both lambda and c0 free
    widest = max(nonzero_descriptions, key=lambda f: len(f["free"]))
    assert len(widest["free"]) == 2


def _lemma_c(c00="0", c01="0", c10="0"):
    return {"(0, 0)": c00, "(0, 1)": c01, "(0, 2)": "0", "(1, 0)": c10, "(1, 1)": "0", "(2, 0)": "0"}


LEMMA_DEG2_TEXT = [
    (_lemma_c(c10="1"), [], []),
    (_lemma_c(), [], []),
    (_lemma_c(c00="C_00", c10="1"), ["C_00"], ["C_00"]),
    (_lemma_c(c00="C_00", c01="C_01", c10="1"), ["C_00", "C_01"], ["C_01"]),
]


def test_lemma_special_case_text_pinned():
    # every family's C, free and nonzero, in the solver's order
    out = lemma_special_case(2)
    assert [(f["C"], f["free"], f["nonzero"]) for f in out["families"]] == LEMMA_DEG2_TEXT


def test_lemma_family_members_satisfy_pc6():
    problem = Rank2Problem(2, mu_virasoro=True)
    # C = d(x)1 - 3 (1(x)d) + 5 (1(x)1): a member of the lemma family
    assign = []
    for (name, ij) in problem.layout:
        val = 0
        if name == "C":
            val = {(1, 0): 1, (0, 1): -3, (0, 0): 5}.get(ij, 0)
        assign.append(Fraction(val))
    Q = problem.structure(assign)
    from pseudoalg.structures import pc_residuals

    assert not pc_residuals(Q)["PC6"]
    # and a non-member (degree-2 leg) fails
    assign_bad = []
    for (name, ij) in problem.layout:
        val = {(0, 2): 1}.get(ij, 0) if name == "C" else 0
        assign_bad.append(Fraction(val))
    Qb = problem.structure(assign_bad)
    assert pc_residuals(Qb)["PC6"]


def test_solver_handles_inconsistent_and_factored_systems():
    x, y = sympy.symbols("x y", rational=True)
    _R, X, Y = ring([x, y], sympy.ZZ)
    fams, unres = solve_quadratic_system([X * Y, X + Y - 1], [x, y])
    assert not unres
    sols = {tuple(sorted((str(k), str(v)) for k, v in f.subs.items())) for f in fams}
    assert (("x", "0"), ("y", "1")) in sols or (("x", "1"), ("y", "0")) in sols
    fams2, _ = solve_quadratic_system([X**2 + 1], [x])
    assert fams2 == []


def test_solver_factorizes_each_expression_once_per_call(monkeypatch):
    # the solver memoizes its factoring kernel within one call, and keeps
    # nothing between calls: a second identical search factorizes the same again
    calls = []
    factor_list = rank2._factor_list

    def counting(e, **kw):
        calls.append(e)
        return factor_list(e, **kw)

    monkeypatch.setattr(rank2, "_factor_list", counting)
    rank2_search(1)
    first = list(calls)
    assert len(set(first)) == len(first) == 89
    calls.clear()
    rank2_search(1)
    assert calls == first


_x, _y, _z, _w = sympy.symbols("x y z w", rational=True)
# Where the irreducibility certificate can go wrong: the sign of the one
# factor; (y + 1)(x + z), whose coefficient y + 1 divides the rest;
# (y - 1)(2x + y), where 2y - 2 divides the rest over QQ but not over ZZ; a
# sum certified only through a coefficient certified by the same rule; and
# (y + 1)(xz + x + w), whose coefficient (y + 1)(z + 1) that rule must refuse.
CERTIFICATE_CASES = [
    -_x - _y * _z,
    _x * _y + _x + _y * _z + _z,
    2 * _x * _y - 2 * _x + _y**2 - _y,
    _x * _y + _x * _z + _y * _z + 1,
    sympy.expand((_y + 1) * (_x * _z + _x + _w)),
]


def _ring_elements(exprs):
    """exprs as elements of one ZZ[gens], in sympy's generator order."""
    return sring(exprs, domain=sympy.ZZ)[1]


def _numerator_route(q, i, value):
    """sympy's expression route to the numerator of `rank2._substitute(q, i, value)`."""
    rule = {q.ring.symbols[i]: value.as_expr()}
    return sympy.expand(sympy.numer(sympy.together(q.as_expr().xreplace(rule))))


def test_solver_kernels_equal_sympy_route(monkeypatch, search_deg2):
    # the ring kernels skip sympy's expressions; sympy's expression route is
    # the oracle, and every kernel output must equal it exactly, as objects
    # and as text.  The substitution numerators agree by observation, not by
    # proof: the field cancels every common factor of a numerator and its
    # denominator, `together` only those it can see
    seen = {"_factor_list": [], "_substitute": []}
    for name, log in seen.items():
        kernel = getattr(rank2, name)

        def logged(*args, kernel=kernel, log=log):
            log.append(args)
            return kernel(*args)

        monkeypatch.setattr(rank2, name, logged)
    rank2_search(1)
    lemma_special_case(2)
    monkeypatch.undo()
    assert all(seen.values())
    a, c1, c2 = sympy.symbols("A_01 C_01 C_10", rational=True)
    x, y = sympy.symbols("x y", rational=True)
    # the common monomial goes first: a plain factorization reverses these
    [p] = _ring_elements([a * c1 + a * c2])
    A, C1, C2 = p.ring.gens
    assert rank2._factor_list(p) == (1, [(A, 1), (C1 + C2, 1)])
    hand = [a**2 * c1 * x + a**2 * c1 * y, 6 * x**2 * y - 6 * y, x * y + 1,
            sympy.expand((x + y) ** 2), -3 * x**2 * y]
    for p in _ring_elements(hand) + _ring_elements(CERTIFICATE_CASES) + [
            args[0] for args in seen["_factor_list"]]:
        c, factors = rank2._factor_list(p)
        out = (sympy.Integer(c), [(f.as_expr(), k) for f, k in factors])
        expect = sympy.factor_list(p.as_expr())
        assert all(f.ring is p.ring for f, _k in factors), p
        assert out == expect and str(out) == str(expect), p
    substitutions = seen["_substitute"] + [args for args, _out in search_deg2[2]]
    # substitutions of a fraction into a polynomial that holds its unknown (an
    # equation, a nonzero, or a value's numerator or denominator): 8 at
    # degree 1 and 271 at degree 2, none in the lemma
    fractions = [(q, i, v) for q, i, v in substitutions if v.denom != 1 and q.degrees()[i] > 0]
    assert len(fractions) == 279
    for args in substitutions:
        out, expect = rank2._substitute(*args).numer.as_expr(), _numerator_route(*args)
        assert out == expect and str(out) == str(expect), args


def _conversions(monkeypatch, run) -> list:
    """The expressions `run()` converts to polynomials, by any of sympy's
    three entry points for it."""
    seen = []
    from_expr = sympy.Poly.__dict__["_from_expr"].__func__
    poly_from_expr, ring_from_expr = polytools._poly_from_expr, PolyRing.from_expr

    def logged(convert):
        def call(owner, expr, *args):
            seen.append(expr)
            return convert(owner, expr, *args)
        return call

    with monkeypatch.context() as m:
        m.setattr(sympy.Poly, "_from_expr", classmethod(logged(from_expr)))
        m.setattr(polytools, "_poly_from_expr", lambda expr, opt: (seen.append(expr),
                                                                   poly_from_expr(expr, opt))[1])
        m.setattr(PolyRing, "from_expr", logged(ring_from_expr))
        run()
    return seen


def test_solver_converts_no_expression_given_ring_input(monkeypatch):
    # the searches hand the solver ring elements, and its recursion stays on
    # them: converting expressions to polynomials is where the expression
    # route spent its time, so it must not creep back unseen
    solve = rank2.solve_quadratic_system
    inputs, conversions = [], []

    def guarded(eqs, symbols):
        inputs.extend(eqs)
        out = []
        conversions.extend(_conversions(monkeypatch, lambda: out.append(solve(eqs, symbols))))
        return out[0]

    monkeypatch.setattr(rank2, "solve_quadratic_system", guarded)
    rank2_search(1)
    lemma_special_case(2)
    assert inputs and all(isinstance(e, PolyElement) for e in inputs)
    assert conversions == []
    # the guard sees a conversion: sympy's own factoring converts its argument
    x, y = sympy.symbols("x y")
    assert _conversions(monkeypatch, lambda: sympy.factor_list(x * y + x))


def _substituted_degree(fam) -> int:
    """The highest degree, in a numerator or denominator of a family value,
    of an unknown that the family substitutes."""
    subst = [fam.field.symbols.index(k) for k in fam.subs]
    return max((p.degrees()[i] for v in fam.subs.values() for p in (v.numer, v.denom) for i in subst),
               default=0)


def test_family_values_hold_no_substituted_unknown(monkeypatch, search_deg2):
    # each family's rule is resolved: no value holds an unknown that the
    # family substitutes, at degrees 1 and 2 and in the lemma
    lemma = []
    solve = rank2.solve_quadratic_system

    def logged_solve(eqs, symbols):
        found, unresolved = solve(eqs, symbols)
        lemma.extend(found)
        return found, unresolved

    with monkeypatch.context() as m:
        m.setattr(rank2, "solve_quadratic_system", logged_solve)
        lemma_special_case(2)
    families = _search_with_families(1)[1] + search_deg2[1] + lemma
    assert len(families) == 10 + 24 + 4
    assert [_substituted_degree(fam) for fam in families] == [0] * len(families)
    # the check sees an unresolved rule
    x, y = sympy.symbols("x y", rational=True)
    F = ring([x, y], sympy.ZZ)[0].to_field()
    assert _substituted_degree(Family({x: F.gens[1] + 1, y: F.one / 2}, [], set(), F)) == 1


def sums_factored(monkeypatch, run):
    """How many sums `run()` hands to the ring's factoring."""
    factored = []
    factor_list = PolyElement.factor_list

    def counting(p):
        if len(p) > 1:
            factored.append(p)
        return factor_list(p)

    with monkeypatch.context() as m:
        m.setattr(PolyElement, "factor_list", counting)
        run()
    return len(factored)


@pytest.mark.parametrize(
    "search, sums",
    [(lambda: rank2_search(1), 1), (lambda: lemma_special_case(2), 11)],
    ids=["rank2_search-1", "lemma-2"],
)
def test_certified_sums_skip_factoring(monkeypatch, search, sums):
    # the irreducibility certificate spares the ring's factoring all but these
    # sums: 49 and 121 without it
    assert sums_factored(monkeypatch, search) == sums


def test_certificate_fires_only_on_irreducible_sums(monkeypatch):
    # each step of the certificate decides one of these: the reducible sums
    # must reach the ring's factoring, the irreducible ones must not
    factored = [sums_factored(monkeypatch, lambda p=p: rank2._factor_list(p))
                for p in _ring_elements(CERTIFICATE_CASES)]
    assert factored == [0, 1, 1, 0, 1]


@pytest.mark.parametrize(
    "search, nodes",
    [(lambda: rank2_search(1), 54), (lambda: lemma_special_case(2), 28)],
    ids=["rank2_search-1", "lemma-2"],
)
def test_search_tree_size_pinned(monkeypatch, search, nodes):
    # the kernels change no branch: each search visits exactly this many nodes
    monkeypatch.setattr(rank2, "MAX_SOLVER_NODES", nodes)
    search()
    monkeypatch.setattr(rank2, "MAX_SOLVER_NODES", nodes - 1)
    with pytest.raises(ResourceError):
        search()


def test_search_over_unknowns_budget_refused():
    assert len(Rank2Problem(3).layout) == 28 <= MAX_UNKNOWNS
    for make in (lambda: rank2_search(4), lambda: lemma_special_case(4)):
        with pytest.raises(ResourceError):
            make()


def test_solver_node_budget_exits_3(monkeypatch, capsys):
    # degree 1 visits 54 nodes; a cap below that ends the search with exit 3
    monkeypatch.setattr(rank2, "MAX_SOLVER_NODES", 10)
    assert cli_main(["rank2-search", "--max-deg", "1"]) == 3
    assert "visited more than 10 nodes" in capsys.readouterr().err


def test_solver_node_budget_is_exact(monkeypatch):
    # x*y = 0: the root, one node per factor, one per elimination below it
    x, y = sympy.symbols("x y")
    _R, X, Y = ring([x, y], sympy.ZZ)
    monkeypatch.setattr(rank2, "MAX_SOLVER_NODES", 5)
    fams, unres = solve_quadratic_system([X * Y], [x, y])
    assert len(fams) == 2 and not unres
    monkeypatch.setattr(rank2, "MAX_SOLVER_NODES", 4)
    with pytest.raises(ResourceError):
        solve_quadratic_system([X * Y], [x, y])


@pytest.mark.parametrize(
    "search, terms",
    [(lambda: rank2_search(1), 5), (lambda: lemma_special_case(2), 8)],
    ids=["rank2_search-1", "lemma-2"],
)
def test_largest_sum_pinned(monkeypatch, search, terms):
    # the largest sum each search factors; MAX_FACTOR_TERMS (24)
    # is above these and degree 2's 22, so it refuses none of them
    assert terms < rank2.MAX_FACTOR_TERMS
    monkeypatch.setattr(rank2, "MAX_FACTOR_TERMS", terms)
    search()
    monkeypatch.setattr(rank2, "MAX_FACTOR_TERMS", terms - 1)
    with pytest.raises(ResourceError, match=f"sum of {terms} terms"):
        search()


def test_negative_degree_rejected():
    with pytest.raises(Exception):
        rank2_search(-1)
