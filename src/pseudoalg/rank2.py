"""Bounded-degree classification of rank-(1,1) quasi-twilled structures over Q[d].

The unknown components are coefficient tensors with PBW degree capped:

    pi(u (x) u)  = A (x)_H u   (A skew),
    rho(u (x) x) = B (x)_H x,
    eta(u (x) x) = C (x)_H u,
    theta(u(x)u) = D (x)_H x   (D skew),

with the rank-one subalgebra Hx carrying mu in {0, Virasoro}.  The PC
residuals are quadratic in the unknowns.  One evaluation of `pc_residuals`,
with each unknown set to a generator of the polynomial ring ZZ[unknowns],
gives every residual coordinate as an exact polynomial; the system is then
solved by exact linear elimination with case splits on factored equations.
The ring is over ZZ because every structure constant over Q[d] is an integer
(PBW products, coproduct binomials, antipode signs), and integer coefficients
multiply faster than rational ones; a non-integral coefficient would raise
`CoercionFailed`, never be rounded.
The independent cross-check, `_interpolate_quadratics` in `tests/oracles.py`,
rebuilds the same polynomials from rational point evaluations.  Solution
families are tagged against the three classification patterns; anything else
is reported as "other", never suppressed.
"""

from __future__ import annotations

import itertools
import random
import zlib
from fractions import Fraction

import sympy
from sympy.polys.rings import ring

from .hopf import InputError, LieAlgebra, ResourceError, coeff
from .ptensor import FreeModule, PTElem, canonicalize
from .cochains import Cochain, MixedMap
from .structures import QuasiTwilled, pc_residuals


# Most unknowns a search may declare: degree 3 has 28, degree 4 has 42.
MAX_UNKNOWNS = 28
# Most case-split nodes one solve_quadratic_system call may visit: degree 2
# visits 192, degree 1 54, lemma_special_case(2) 28.
MAX_SOLVER_NODES = 2000
# Depth below which a branch is reported unresolved instead of split further.
MAX_SOLVER_DEPTH = 60
# Most terms of a sum the solver may clean or factor: the largest such sums
# have 5 terms at degree 1, 8 in lemma_special_case(2) and 22 at degree 2.
MAX_FACTOR_TERMS = 24
# Rational samples _sample_instance draws before it gives a family up.
SAMPLE_TRIES = 12


def _mono_pairs(max_deg: int):
    """(i, j) exponent pairs of degree i + j <= max_deg."""
    return [
        (i, j)
        for i in range(max_deg + 1)
        for j in range(max_deg + 1 - i)
    ]


def _skew_pairs(max_deg: int):
    return [(i, j) for (i, j) in _mono_pairs(max_deg) if i < j]


class Rank2Problem:
    """Parameter layout and structure assembly for the search profile."""

    def __init__(self, max_deg: int, mu_virasoro=False):
        if max_deg < 0:
            raise InputError("degree cap must be >= 0")
        self.max_deg = max_deg
        self.mu_virasoro = mu_virasoro
        self.alg = LieAlgebra.abelian(["d"])  # H = Q[d]
        self.g = FreeModule("g", ["u"], self.alg)
        self.h = FreeModule("h", ["x"], self.alg)
        self.layout = []
        for name, block in (("A", "skew"), ("D", "skew"), ("B", "full"), ("C", "full")):
            pairs = _skew_pairs(max_deg) if block == "skew" else _mono_pairs(max_deg)
            for ij in pairs:
                self.layout.append((name, ij))
        if len(self.layout) > MAX_UNKNOWNS:
            raise ResourceError(
                f"degree cap {max_deg} needs {len(self.layout)} unknowns "
                f"(budget {MAX_UNKNOWNS})"
            )
        self.symbols = [
            sympy.Symbol(f"{name}_{i}{j}", rational=True) for name, (i, j) in self.layout
        ]
        # ZZ[unknowns]; evaluating at the generators gives exact polynomials,
        # integral since every structure constant over Q[d] is an integer
        self.ring, *self.gens = ring(self.symbols, sympy.ZZ)

    def _tensor(self, name: str, coeffs: dict) -> PTElem:
        """Assemble a component value on the right module from (i,j)->coeff."""
        module = {"A": self.g, "B": self.h, "C": self.g, "D": self.h}[name]
        raw_list = []
        for (i, j), c in coeffs.items():
            if not c:
                continue
            raw_list.append((((i,), (j,)), (0,) * self.alg.dim, 0, c))
            if name in ("A", "D"):
                raw_list.append((((j,), (i,)), (0,) * self.alg.dim, 0, -c))
        return canonicalize(module, 2, raw_list)

    def structure(self, assignment) -> QuasiTwilled:
        """Build the quasi-twilled candidate for a rational or polynomial assignment."""
        blocks = {"A": {}, "B": {}, "C": {}, "D": {}}
        for (name, ij), val in zip(self.layout, assignment):
            blocks[name][ij] = coeff(val)
        A = self._tensor("A", blocks["A"])
        Bv = self._tensor("B", blocks["B"])
        Cv = self._tensor("C", blocks["C"])
        Dv = self._tensor("D", blocks["D"])
        mu_table = {}
        if self.mu_virasoro:
            mu_table[(0, 0)] = canonicalize(
                self.h,
                2,
                [
                    (((1,), (0,)), (0,), 0, 1),
                    (((0,), (1,)), (0,), 0, -1),
                ],
            )
        return QuasiTwilled(
            self.g,
            self.h,
            pi=Cochain(2, self.g, self.g, {(0, 0): A} if not A.is_zero() else {}),
            rho=MixedMap(self.g, self.h, self.h, {(0, 0): Bv} if not Bv.is_zero() else {}),
            mu=Cochain(2, self.h, self.h, mu_table),
            eta=MixedMap(self.g, self.h, self.g, {(0, 0): Cv} if not Cv.is_zero() else {}),
            theta=Cochain(2, self.g, self.h, {(0, 0): Dv} if not Dv.is_zero() else {}),
        )

    def residual_vector(self, assignment) -> dict:
        """PC residual coefficients, keyed (label, argtuple, term key)."""
        out = {}
        for label, table in pc_residuals(self.structure(assignment)).items():
            for args, v in table.items():
                for key, c in v.terms.items():
                    out[(label, args, key)] = c
        return out

    def residual_polynomials(self, assignment) -> list:
        """The nonzero residual coordinates at a polynomial assignment.

        assignment holds generators of self.ring (or zeros), so each coordinate
        is an exact element of ZZ[unknowns]: the structure constants it is
        built from are integers.  Ordered by the repr of their keys.
        """
        coords = self.residual_vector(assignment)
        return [coords[k] for k in sorted(coords, key=repr)]


def reconstruct_polynomials(problem: Rank2Problem) -> list:
    """Exact quadratic polynomials of every PC residual coordinate.

    One `pc_residuals` evaluation at the generators of ZZ[unknowns] gives
    each coordinate as a polynomial with integer coefficients, the structure
    constants over Q[d] being integers.  They are deduplicated up to rational
    scaling (the positive content is divided out, as over QQ) and returned
    as expressions, in the order of their keys' repr.
    """
    seen = {}
    for p in problem.residual_polynomials(problem.gens):
        prim = p.primitive()[1]
        if prim not in seen and -prim not in seen:
            seen[prim] = None
    return [p.as_expr() for p in seen]


class Family:
    """One leaf of the case-split tree: a parametrized solution family."""

    def __init__(self, subs, frees, nonzero):
        self.subs = subs
        self.frees = frees
        self.nonzero = nonzero
        self.tag = None

    def __repr__(self):
        return f"Family(tag={self.tag}, subs={self.subs}, nonzero={self.nonzero})"


def _clean(e):
    """`expand(numer(together(e)))`: e with its denominators cleared.

    A sum of monomials with integer coefficients is returned as it is.
    """
    factors = [f for t in sympy.Add.make_args(e) for f in sympy.Mul.make_args(t)]
    if all(f.is_Integer or f.is_Symbol or f.is_Pow and f.base.is_Symbol and f.exp.is_Integer
           and f.exp > 0 for f in factors):
        return e
    return sympy.expand(sympy.numer(sympy.together(e)))


def _factor_key(pair):
    # sympy 1.14's key in `polytools._sorted_factors` for method 'factor'
    poly, exp = pair
    rep = poly.rep.to_list()
    return (len(rep), len(poly.gens), exp, str(poly.domain), rep)


def _irreducible(terms: dict, gens) -> bool:
    """Whether a sum is certified irreducible up to its content, unfactored.

    terms maps the sum q's monomials to its integer coefficients, and no
    monomial divides them all.  Say q has degree 1 in an unknown x, so
    q = m x + b with b != 0 over R = ZZ[the other unknowns].  Then q is
    irreducible up to content if gcd(m, b) = 1 in R, by Gauss's lemma (Lang,
    Algebra, IV.2).  A single-term m shares no factor with b: its unknowns
    would divide every term of q.  Otherwise m is a monomial times m', and
    gcd(m, b) = 1 if m' is certified by this same rule and does not divide
    b.  That division is over QQ: over ZZ, 2y - 2 does not divide y**2 - y.
    """
    splits = []
    for i in range(len(gens)):
        if {mon[i] for mon in terms} == {0, 1}:
            m = {mon[:i] + (0,) + mon[i + 1:]: c for mon, c in terms.items() if mon[i]}
            if len(m) == 1:
                return True
            splits.append((i, m))
    for i, m in splits:
        low = [min(exps) for exps in zip(*m)]
        m = {tuple(k - l for k, l in zip(mon, low)): c for mon, c in m.items()}
        if _irreducible(m, gens):
            b = {mon: c for mon, c in terms.items() if not mon[i]}
            divisor, dividend = (sympy.Poly.from_dict(d, gens, domain=sympy.QQ) for d in (m, b))
            if not dividend.rem(divisor).is_zero:
                return True
    return False


def _factor_list(e, poly=sympy.Poly):
    """`sympy.factor_list(e)`, without `together` on a polynomial sum.

    poly converts an expression to its Poly; the solver passes its memo.
    """
    if not e.is_Add:
        return sympy.factor_list(e)
    p = poly(e)
    if not p.domain.is_ZZ or not all(s.is_Symbol for s in p.gens):
        return sympy.factor_list(e)
    monomial, cofactor = p.terms_gcd()
    cofactor = cofactor.exclude()
    if _irreducible(cofactor.as_dict(native=True), cofactor.gens):
        # sympy's answer for an irreducible cofactor: the content, signed
        # so that the one factor has a positive leading coefficient
        c, prim = cofactor.primitive()
        if prim.LC() < 0:
            c, prim = -c, -prim
        factors = [(prim, 1)]
    else:
        c, factors = cofactor.factor_list()
    # equal keys keep sympy's insertion order: the monomial's symbols first,
    # as Mul orders its arguments, which within one exponent is by name
    powers = sorted(((s, k) for s, k in zip(p.gens, monomial) if k), key=lambda sk: sk[0].name)
    factors = [(sympy.Poly(s), k) for s, k in powers] + factors
    factors.sort(key=_factor_key)
    return c, [(f.as_expr(), k) for f, k in factors]


def solve_quadratic_system(eqs, symbols):
    """All solution families of a quadratic system by elimination + case splits.

    Strategy: substitute variables with constant-coefficient linear
    occurrences; reduce factored equations by the branch's nonzero set; when
    stuck, split on a factor or on a variable (zero / nonzero).  Leaves with
    no equations left are families; a branch deeper than MAX_SOLVER_DEPTH is
    reported as an unresolved leaf rather than silently dropped.

    Most equations pass unchanged from a node to its children, so each call
    memoizes three kernels and the Poly that they share, keyed on the
    expression; the memos live for this call only and are shared by no other
    call.  Each kernel gives exactly what sympy's generic route gave, so the
    branch order and the families do not move (checked against sympy 1.14;
    tests/test_rank2.py compares every kernel output of two searches with
    that route):

    - `_clean(e)` is `expand(numer(together(e)))`.  An expanded sum with
      integer coefficients is its own numerator, returned as it is.
    - `_factor_list(e)` is `sympy.factor_list(e)`.  On a sum, sympy's
      `together` splits off the common monomial of the terms; sympy then
      factors each symbol of it and the primitive cofactor on their own
      generators, and sorts all factors by the key of `_sorted_factors`.
      On a sum over ZZ in Symbols, `_factor_list` takes the same steps on
      Poly(e), with that key copied as `_factor_key` rather than imported
      from a private name; any other e goes to sympy itself.  Without
      the monomial step the order moves: on A_01*C_01 + A_01*C_10 a plain
      `Poly.factor_list` puts C_01 + C_10 first.  Before factoring, the
      cofactor is tested by `_irreducible`, a certificate from Gauss's lemma
      for sums of degree 1 in some unknown; a certified cofactor is its own
      one factor, and sympy's answer is written down without factoring.
      This spares sympy's factoring 1,088 of the 1,201 sums of the
      degree-2 search.
    - `poly(e)` is `sympy.Poly(e)`, converted once per expression and
      passed to `_factor_list` and `degrees`.
    - `degrees(e)` is `[(s, deg)]` over the unknowns that occur in e, in
      `default_sort_key` order: the degree scan of both the elimination and
      the variable split, made once per expression on e's own generators
      instead of once per visit over every unknown.

    Every substitution is `e.xreplace(rule)`, which is `e.subs(rule)` here.
    Each rule maps unknowns, which are Symbols, to values, and both routes
    match a Symbol only as itself and rebuild each node above a match with
    its class's constructor, so the results evaluate alike, `zoo` from a
    zero denominator included.  A rule with several keys (`_sample_instance`)
    holds no key in any of its values, so replacing all at once, as
    `xreplace` does, equals `subs` replacing one after another.  `xreplace`
    skips the sympification, sorting and `_eval_subs` dispatch of `subs`.
    A family's rule holds no key in its values either: an eliminated
    unknown is replaced in every value and equation at once, and a split
    unknown is set to 0 everywhere.  So a leaf only expands each value.

    A call that visits more than MAX_SOLVER_NODES nodes, or that would clean
    or factor a sum of more than MAX_FACTOR_TERMS terms, raises
    ResourceError: one node's cost grows with its sums, which the node count
    does not bound.
    """
    results = []
    unresolved = []
    unknowns = set(symbols)
    nodes = 0

    def memo(fn, bounded=False):
        seen = {}
        def call(e):
            out = seen.get(e)
            if out is None:
                if bounded and len(sympy.Add.make_args(e)) > MAX_FACTOR_TERMS:
                    raise ResourceError(f"rank-2 solver met a sum of {len(e.args)} terms "
                                        f"(budget {MAX_FACTOR_TERMS})")
                out = seen[e] = fn(e)
            return out
        return call

    poly = memo(sympy.Poly)
    # drop denominators; on a branch they are products of known-nonzero
    # symbols introduced by earlier divisions
    clean = memo(_clean, bounded=True)
    factor_list = memo(lambda e: _factor_list(e, poly=poly), bounded=True)

    @memo
    def degrees(e):
        p = poly(e)
        occurring = [(s, d) for s, d in zip(p.gens, p.degree_list()) if d and s in unknowns]
        return sorted(occurring, key=lambda sd: sympy.default_sort_key(sd[0]))

    def recurse(eqs, subs, nonzero, depth):
        nonlocal nodes
        nodes += 1
        if nodes > MAX_SOLVER_NODES:
            raise ResourceError(f"rank-2 solver visited more than {MAX_SOLVER_NODES} nodes")
        if depth > MAX_SOLVER_DEPTH:
            unresolved.append(Family(subs, None, nonzero))
            return
        cleaned = []
        for e in eqs:
            e = clean(e)
            if e == 0:
                continue
            if e.is_number:
                return  # inconsistent branch
            cleaned.append(e)
        # reduce by known-nonzero factors
        reduced = []
        for e in cleaned:
            _c, factors = factor_list(e)
            live = []
            for base, mult in factors:
                if base.is_number:
                    continue
                if base in nonzero or -base in nonzero:
                    continue
                live.append(base)
            if not live:
                return  # nonzero constant times nonzero factors = 0: dead
            if len(live) == 1:
                reduced.append(sympy.expand(live[0]))
            else:
                reduced.append(e)
        eqs = sorted(set(reduced), key=sympy.default_sort_key)
        if not eqs:
            resolved = {k: sympy.expand(v) for k, v in subs.items()}
            frees = [s for s in symbols if s not in resolved]
            results.append(Family(resolved, frees, set(nonzero)))
            return
        # linear elimination; the coefficient must be certified nonzero
        # (a rational constant, or a monomial in branch-nonzero symbols)
        def invertible(coeff):
            if coeff.is_number:
                return coeff != 0
            _c, factors = factor_list(coeff)
            return all(
                b in nonzero or -b in nonzero for b, _m in factors if not b.is_number
            )

        for e in eqs:
            for s, d in degrees(e):
                if d == 1:
                    coeff = sympy.expand(e.coeff(s, 1))
                    if invertible(coeff):
                        sol = sympy.together(-e.coeff(s, 0) / coeff)
                        rule = {s: sol}
                        new_subs = {
                            k: sympy.together(v.xreplace(rule)) for k, v in subs.items()
                        }
                        new_subs[s] = sol
                        new_eqs = [q.xreplace(rule) for q in eqs if q is not e]
                        new_nz = set()
                        for z in nonzero:
                            zz = clean(z.xreplace(rule))
                            if zz.is_number:
                                if zz == 0:
                                    return  # contradiction with a nonzero constraint
                                continue
                            new_nz.add(zz)
                        recurse(new_eqs, new_subs, new_nz, depth + 1)
                        return
        # branch on a factorable equation
        best = None
        for e in eqs:
            _c, factors = factor_list(e)
            bases = [b for b, _m in factors if not b.is_number]
            if len(bases) >= 2 or (len(bases) == 1 and bases[0] != e):
                best = (e, bases)
                break
        if best is not None:
            e, bases = best
            rest = [q for q in eqs if q is not e]
            for k, b in enumerate(bases):
                # V(e) = union of V(b); earlier factors forced nonzero to
                # avoid re-exploring overlapping components
                nz = set(nonzero) | {sympy.expand(bb) for bb in bases[:k]}
                recurse(rest + [b], subs, nz, depth + 1)
            return
        # split on a variable appearing nonlinearly (not already split on)
        var = None
        for e in eqs:
            for s, _d in degrees(e):
                if s not in nonzero:
                    var = s
                    break
            if var is not None:
                break
        if var is None:
            unresolved.append(Family(subs, None, nonzero))
            return
        zero = {var: sympy.Integer(0)}
        zero_subs = {k: sympy.expand(v.xreplace(zero)) for k, v in subs.items()}
        zero_subs[var] = sympy.Integer(0)
        zero_nz = set()
        dead = False
        for z in nonzero:
            zz = sympy.expand(z.xreplace(zero))
            if zz.is_number:
                if zz == 0:
                    dead = True
                continue
            zero_nz.add(zz)
        if not dead:
            recurse([q.xreplace(zero) for q in eqs], zero_subs, zero_nz, depth + 1)
        recurse(eqs, subs, set(nonzero) | {var}, depth + 1)

    recurse(list(eqs), {}, set(), 0)
    return results, unresolved


def _sorted_strs(exprs) -> list:
    """A set of expressions as strings, in an order that no hash seed moves."""
    return [str(e) for e in sorted(exprs, key=sympy.default_sort_key)]


TYPE_I_TAG = "type_i"
TYPE_II_TAG = "type_ii"
TYPE_III_TAG = "type_iii"
OTHER_TAG = "other"


def _block_exprs(problem: Rank2Problem, family: Family, name: str) -> dict:
    out = {}
    for (nm, ij), sym in zip(problem.layout, problem.symbols):
        if nm != name:
            continue
        e = family.subs.get(sym, sym)
        out[ij] = sympy.expand(e)
    return out


def _is_zero_block(block: dict) -> bool:
    return all(e == 0 for e in block.values())


def _first_leg_positive(block: dict) -> bool:
    return any(e != 0 for (i, _j), e in block.items() if i > 0)


def classify_family(problem: Rank2Problem, family: Family) -> str:
    """Tag a family against the three classification patterns.

    type i:   B = C = D = 0 (pi alone a pseudobracket);
    type ii:  A = B = D = 0 and C supported on 1 (x) a^(J);
    type iii: D = 0, B proportional to C with nonzero ratio, C supported on
              1 (x) a^(J), and A = b(C - (12)C).
    """
    A = _block_exprs(problem, family, "A")
    B = _block_exprs(problem, family, "B")
    C = _block_exprs(problem, family, "C")
    D = _block_exprs(problem, family, "D")
    if _is_zero_block(B) and _is_zero_block(C) and _is_zero_block(D):
        return TYPE_I_TAG
    if (
        _is_zero_block(A)
        and _is_zero_block(B)
        and _is_zero_block(D)
        and not _first_leg_positive(C)
    ):
        return TYPE_II_TAG
    if _is_zero_block(D) and not _first_leg_positive(C) and not _is_zero_block(B):
        # proportionality: all 2x2 minors of the (B, C) coefficient rows vanish
        keys = sorted(set(B) | set(C))
        rows = [[B.get(k, sympy.Integer(0)) for k in keys], [C.get(k, sympy.Integer(0)) for k in keys]]
        for a, b in itertools.combinations(range(len(keys)), 2):
            minor = sympy.expand(rows[0][a] * rows[1][b] - rows[0][b] * rows[1][a])
            if minor != 0:
                return OTHER_TAG
        # A must equal b (C - (12)C); with C first-leg-degree 0 this means
        # A_{0j} = b C_{0j} for the skew part (C - (12)C)_{0j} = C_{0j}
        # find the ratio b on some nonzero C coefficient
        b_ratio = None
        for k in keys:
            ck = C.get(k, sympy.Integer(0))
            bk = B.get(k, sympy.Integer(0))
            if ck != 0 and (ck.is_number or ck in family.nonzero):
                b_ratio = sympy.together(bk / ck)
                break
        if b_ratio is None:
            # cannot certify a nonzero ratio symbolically
            return OTHER_TAG
        for (i, j), a_expr in A.items():
            expect = sympy.expand(b_ratio * (C.get((i, j), sympy.Integer(0)) - C.get((j, i), sympy.Integer(0))))
            if sympy.expand(a_expr - expect) != 0:
                return OTHER_TAG
        return TYPE_III_TAG
    return OTHER_TAG


def rank2_search(max_deg: int) -> dict:
    """Classify all bounded-degree rank-(1,1) structures with abelian Hx.

    Returns families with tags plus sample verified instances; "other" hits
    are reported, never suppressed.  Degrees 1 and 2 finish; degree 3 is
    refused with ResourceError (exit 3 in `pa`) early in its solve, when the
    solver meets a 29-term sum, over MAX_FACTOR_TERMS.
    """
    problem = Rank2Problem(max_deg, mu_virasoro=False)
    polys = reconstruct_polynomials(problem)
    families, unresolved = solve_quadratic_system(polys, problem.symbols)
    out = []
    for fam in families:
        fam.tag = classify_family(problem, fam)
        sample = _sample_instance(problem, fam)
        out.append(
            {
                "tag": fam.tag,
                "subs": {str(k): str(v) for k, v in fam.subs.items()},
                "free": [str(s) for s in (fam.frees or [])],
                "nonzero": _sorted_strs(fam.nonzero),
                "sample_ok": sample,
            }
        )
    return {
        "max_deg": max_deg,
        "families": out,
        "unresolved": len(unresolved),
        "tags": sorted({f["tag"] for f in out}),
        "ok": not unresolved and all(f["tag"] != OTHER_TAG for f in out)
        and all(f["sample_ok"] for f in out),
    }


def _sample_instance(problem: Rank2Problem, family: Family) -> bool:
    """Substitute small rationals for the frees and verify check_pc passes.

    The sample stream is seeded from a CRC of the substituted names, so the
    verdict is the same in every process (``hash`` of a str is salted).
    """
    rng = random.Random(zlib.crc32(",".join(sorted(str(s) for s in family.subs)).encode()))
    frees = family.frees or []
    for _ in range(SAMPLE_TRIES):
        values = {s: sympy.Rational(rng.randint(-3, 3)) for s in frees}
        if any(sympy.expand(z.xreplace(values)) == 0 for z in family.nonzero):
            continue
        vec = []
        bad = False
        for (name, ij), sym in zip(problem.layout, problem.symbols):
            e = family.subs.get(sym, sym)
            val = sympy.together(e.xreplace(values))
            if not getattr(val, "is_rational", False):
                bad = True
                break
            val = sympy.Rational(val)
            vec.append(Fraction(int(val.p), int(val.q)))
        if bad:
            continue
        resid = problem.residual_vector(vec)
        return all(c == 0 for c in resid.values())
    return not frees  # no admissible sample found


def lemma_special_case(max_deg: int = 2) -> dict:
    """Bounded-degree solutions C of the eta-versus-Virasoro compatibility.

    With mu the Virasoro bracket (s = d) and A = B = D = 0, the only PC6
    constraint is the displayed quadratic equation for C; the classified
    solution set should be {0} plus the family C = s(x)1 - lambda(x)s + c0(x)1.
    PC6 is the only label left: every term of PC2-PC5 and PC7 holds pi, rho
    or theta, which are zero, and PC1 and PC8 hold mu alone, which is skew
    and satisfies Jacobi.
    """
    problem = Rank2Problem(max_deg, mu_virasoro=True)
    c_only = [g if name == "C" else 0 for (name, _ij), g in zip(problem.layout, problem.gens)]
    polys = [p.as_expr() for p in problem.residual_polynomials(c_only)]
    c_symbols = [sym for (name, _ij), sym in zip(problem.layout, problem.symbols) if name == "C"]
    families, unresolved = solve_quadratic_system(polys, c_symbols)
    described = []
    for fam in families:
        desc = _block_exprs(problem, fam, "C")
        described.append({"C": {str(k): str(v) for k, v in desc.items()},
                          "free": [str(s) for s in (fam.frees or [])],
                          "nonzero": _sorted_strs(fam.nonzero),
                          "_exprs": desc})
    return {"families": described, "unresolved": len(unresolved)}
