"""Bounded-degree rank-2 classification and the eta-versus-Virasoro lemma."""

import hashlib
import sys
from fractions import Fraction

import pytest
import sympy

from pseudoalg import rank2
from pseudoalg.cli import main as cli_main
from pseudoalg.cohomology import ResourceError
from pseudoalg.hopf import coeff
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
    fam = Family({s: sympy.Rational(coeff(v)) for s, v in zip(problem.symbols, assignment)}, [], set())
    return classify_family(problem, fam)


def test_instance_classification():
    p = Rank2Problem(1)
    assert classify_instance(p, vec(p, A_01=1)) == TYPE_I_TAG
    assert classify_instance(p, vec(p)) == TYPE_I_TAG  # the zero structure
    assert classify_instance(p, vec(p, C_00=1)) == TYPE_II_TAG
    assert classify_instance(p, vec(p, C_01=2)) == TYPE_II_TAG
    assert classify_instance(p, vec(p, C_00=1, B_00=2)) == TYPE_III_TAG
    assert classify_instance(p, vec(p, D_01=1)) == OTHER_TAG
    # eta with a nonzero first leg is outside the printed families
    assert classify_instance(p, vec(p, C_10=1)) == OTHER_TAG


def test_interpolation_reconstructs_quadratics():
    # the reconstructed polynomials vanish exactly on a known solution and
    # not on a known non-solution
    p = Rank2Problem(1)
    polys = reconstruct_polynomials(p)
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
    assert reconstruct_polynomials(p) == _distinct_up_to_scaling(interpolated, p.symbols)


def test_lemma_system_matches_interpolation(monkeypatch):
    # the C-only PC6 system the lemma hands its solver, against interpolating
    # PC6 over the C unknowns with every other unknown zero
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

    assert eqs == _interpolate_quadratics(ev, len(c_symbols), c_symbols)


@pytest.mark.parametrize("max_deg, coords", [(1, 8), (2, 32), (3, 80)])
def test_lemma_system_is_pc6_alone(max_deg, coords):
    # with Virasoro mu and only C unknown, every residual coordinate is PC6:
    # the lemma hands its solver the whole residual vector
    p = Rank2Problem(max_deg, mu_virasoro=True)
    c_only = [g if name == "C" else 0 for (name, _ij), g in zip(p.layout, p.gens)]
    labels = [label for label, _args, _key in p.residual_vector(c_only)]
    assert len(labels) == coords and set(labels) == {"PC6"}


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
    polys = reconstruct_polynomials(Rank2Problem(3))
    assert len(polys) == 234
    assert hashlib.sha256(str(polys).encode()).hexdigest()[:12] == "740b42c81283"


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
    fams, unres = solve_quadratic_system([x * y, x + y - 1], [x, y])
    assert not unres
    sols = {tuple(sorted((str(k), str(v)) for k, v in f.subs.items())) for f in fams}
    assert (("x", "0"), ("y", "1")) in sols or (("x", "1"), ("y", "0")) in sols
    fams2, _ = solve_quadratic_system([x**2 + 1], [x])
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


def test_solver_kernels_equal_sympy_route(monkeypatch):
    # the kernels skip sympy's `together`; sympy's own route is the oracle,
    # and every kernel output must equal it exactly, as objects and as text
    seen = {"_clean": [], "_factor_list": []}
    for name, log in seen.items():
        kernel = getattr(rank2, name)

        def logged(e, kernel=kernel, log=log, **kw):
            log.append(e)
            return kernel(e, **kw)

        monkeypatch.setattr(rank2, name, logged)
    rank2_search(1)
    lemma_special_case(2)
    monkeypatch.undo()
    assert all(seen.values())
    x, y, a, c1, c2 = sympy.symbols("x y A_01 C_01 C_10", rational=True)
    # the common monomial goes first: a plain Poly factorization reverses these
    assert rank2._factor_list(a * c1 + a * c2) == (1, [(a, 1), (c1 + c2, 1)])
    seen["_factor_list"] += [a**2 * c1 * x + a**2 * c1 * y, -x / 2 - y / 3, 6 * x**2 * y - 6 * y,
                             x * y + 1, (x + y) ** 2]
    seen["_factor_list"] += CERTIFICATE_CASES
    seen["_clean"] += [x / 2 + y / 3, (x + 1) * y / 2, -x / 2 - y / 2, x / y + 1,
                       (x + 1) ** 2 - x**2 - 2 * x, sympy.Rational(3, 4)]
    # the integer sums `_clean` returns as they are, and products, powers of
    # sums, radicals and negative powers that it must not
    integer_sums = [-3 * x**2 * y + 2 * y - 1, x * y, -x, sympy.Integer(5), sympy.Integer(0)]
    assert all(rank2._clean(e) is e for e in integer_sums)
    seen["_clean"] += integer_sums + [(x + 1) * y, 2 * (x - y) ** 2, sympy.sqrt(2) * x + 1,
                                      x**-1 * y + 1, x**2 / 2]
    oracles = {
        "_clean": lambda e: sympy.expand(sympy.numer(sympy.together(e))),
        "_factor_list": sympy.factor_list,
    }
    for name, exprs in seen.items():
        for e in exprs:
            out, expect = getattr(rank2, name)(e), oracles[name](e)
            assert out == expect and str(out) == str(expect), (name, e)
    for factor_list in (rank2._factor_list, sympy.factor_list):
        with pytest.raises(sympy.PolynomialError):
            factor_list(x / y + 1)


def _resolve_subs_route(subs: dict) -> dict:
    """Substitute a rule into its own values with `Expr.subs` to a fixpoint."""
    out = dict(subs)
    for _ in range(len(out) + 1):
        changed = False
        for k in list(out):
            v2 = sympy.expand(out[k].subs(out))
            if v2 != out[k]:
                out[k] = v2
                changed = True
        if not changed:
            break
    return out


def test_xreplace_equals_subs_route(monkeypatch):
    # every substitution in rank2 is structural; sympy's `subs` is the oracle,
    # and every result must equal it exactly, as an object and as text
    replaced, families = [], []
    solve = rank2.solve_quadratic_system

    def logged_xreplace(xreplace):
        # only rank2's own calls: sympy's internals replace non-symbols too
        def logged(self, rule, **kw):
            out = xreplace(self, rule, **kw)
            if sys._getframe(1).f_globals["__name__"] == rank2.__name__:
                replaced.append((self, dict(rule), out))
            return out
        return logged

    def logged_solve(eqs, symbols):
        found, unresolved = solve(eqs, symbols)
        families.extend(found)
        return found, unresolved

    with monkeypatch.context() as m:
        for cls in (sympy.Basic, sympy.Atom):  # Atom has its own xreplace
            m.setattr(cls, "xreplace", logged_xreplace(cls.xreplace))
        m.setattr(rank2, "solve_quadratic_system", logged_solve)
        rank2_search(1)
        lemma_special_case(2)
    assert replaced and families
    # what makes one simultaneous replacement equal to subs' one after
    # another: no rule's value holds a symbol that the rule replaces
    assert all(not v.free_symbols & rule.keys() for _e, rule, _out in replaced
               for v in rule.values())
    x, y = sympy.symbols("x y", rational=True)
    replaced += [
        (e, rule, e.xreplace(rule))
        for e, rule in [
            (x**3 * y + (x + y) ** 2, {x: y / 2 - 1}),  # inside a Pow
            (sympy.sqrt(x) + x ** sympy.Rational(-3, 2), {x: y**2}),
            (y / (x + 1) + 1 / (x * y), {x: y - 1}),  # a rational function's denominator
            (sympy.together(y / (x**2 - y)), {x: 3}),
            (1 / x, {x: sympy.Integer(0)}),  # 0 put into a denominator
            (y / x + x, {x: sympy.Integer(0)}),
            (y / (x + y), {x: -y}),
            (x * y + 1, {x: 2, y: sympy.Rational(-1, 3)}),
        ]
    ]
    for e, rule, out in replaced:
        expect = e.subs(rule)
        assert out == expect and str(out) == str(expect), (e, rule)
    # a family's rule is already resolved: substituting it into its own
    # values to a fixpoint changes nothing
    for fam in families:
        again = _resolve_subs_route(fam.subs)
        assert again == fam.subs and str(again) == str(fam.subs), fam.subs


def sums_factored(monkeypatch, run):
    """How many sums `run()` hands to sympy's factoring."""
    factored = []
    factor_list = sympy.Poly.factor_list

    def counting(p, *args, **kw):
        if len(p.terms()) > 1:
            factored.append(p)
        return factor_list(p, *args, **kw)

    with monkeypatch.context() as m:
        m.setattr(sympy.Poly, "factor_list", counting)
        run()
    return len(factored)


@pytest.mark.parametrize(
    "search, sums",
    [(lambda: rank2_search(1), 1), (lambda: lemma_special_case(2), 11)],
    ids=["rank2_search-1", "lemma-2"],
)
def test_certified_sums_skip_factoring(monkeypatch, search, sums):
    # the irreducibility certificate spares sympy's factoring all but these
    # sums: 49 and 121 without it
    assert sums_factored(monkeypatch, search) == sums


def test_certificate_fires_only_on_irreducible_sums(monkeypatch):
    # each step of the certificate decides one of these: the reducible sums
    # must reach sympy's factoring, the irreducible ones must not
    factored = [sums_factored(monkeypatch, lambda e=e: rank2._factor_list(e))
                for e in CERTIFICATE_CASES]
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
    monkeypatch.setattr(rank2, "MAX_SOLVER_NODES", 5)
    fams, unres = solve_quadratic_system([x * y], [x, y])
    assert len(fams) == 2 and not unres
    monkeypatch.setattr(rank2, "MAX_SOLVER_NODES", 4)
    with pytest.raises(ResourceError):
        solve_quadratic_system([x * y], [x, y])


def test_negative_degree_rejected():
    with pytest.raises(Exception):
        rank2_search(-1)
