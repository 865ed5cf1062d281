"""Bounded-degree classification of rank-(1,1) quasi-twilled structures over Q[d].

The unknown components are coefficient tensors with PBW degree capped:

    pi(u (x) u)  = A (x)_H u   (A skew),
    rho(u (x) x) = B (x)_H x,
    eta(u (x) x) = C (x)_H u,
    theta(u(x)u) = D (x)_H x   (D skew),

with the rank-one subalgebra Hx carrying mu in {0, Virasoro}.  The PC
residuals are quadratic in the unknowns.  One evaluation of `pc_residuals`,
with each unknown set to a generator of the polynomial ring ZZ[unknowns],
gives every residual coordinate as an exact polynomial.  The ring is over ZZ
because every structure constant over Q[d] is an integer (PBW products,
coproduct binomials, antipode signs), and integer coefficients multiply
faster than rational ones.  The evaluation itself runs on `SparseZZ`, a light
polynomial scalar over ZZ, and each nonzero coordinate becomes a ring element
once at the end; a non-integral coefficient would raise `TypeError`, never be
rounded.  `reconstruct_polynomials` returns these ring elements as they are,
and the solver runs its case splits on them, sparse polynomials over ZZ, and
on their fraction field.  Each solution family keeps its values in that field
and its nonzero set as ring elements; it is tagged against the three
classification patterns, and sampled, on them.  Sympy expressions are made
only where `rank2_search` and `lemma_special_case` write their reports, and
in the solver's sort key.  The independent cross-check,
`_interpolate_quadratics` in `tests/oracles.py`, rebuilds the same
polynomials from rational point evaluations.  Families outside the three
patterns are reported as "other", never suppressed.
"""

from __future__ import annotations

import itertools
import math
import random
import zlib
from fractions import Fraction

import sympy
from sympy.polys.densebasic import dmp_from_dict
from sympy.polys.polyutils import _sort_gens
from sympy.polys.rings import ring

from .hopf import InputError, LieAlgebra, ResourceError, Sparse, coeff
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
# Most terms of a sum the solver may factor: the largest such sums
# have 5 terms at degree 1, 8 in lemma_special_case(2) and 22 at degree 2.
MAX_FACTOR_TERMS = 24
# Rational samples _sample_instance draws before it gives a family up.
SAMPLE_TRIES = 12


class SparseZZ(Sparse):
    """A polynomial over ZZ in the generators of `ring`, as a light scalar.

    A `hopf.Sparse` whose `terms` map a monomial, the sorted tuple of its
    generators' indices (x0**2 * x3 is (0, 0, 3)), to a nonzero int, so it
    adds, subtracts, negates and compares with a SparseZZ over the same ring
    as every linear value does; its constructor keeps `terms` as given, since
    every operation here builds them of nonzero ints.  It also multiplies,
    with an int or such a SparseZZ, and `0 + p` is p: that is all
    `pc_residuals` runs on it.  Any other operand, a nonzero int added, a
    Fraction, a float or a PolyElement among them, raises TypeError, so a
    coefficient is never rounded.  `hopf.coeff` passes it through as a
    polynomial by its `ring`.  Values are immutable, so `0 + p` and `p * 1`
    return p itself.  This is the scalar of `Rank2Problem.residual_polynomials`
    only: a `PolyElement` op pays for ring and domain conversions and a full
    exponent tuple, which here cost more than the kernel's own work.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms: dict):
        self.ring = ring
        self.terms = terms

    @classmethod
    def from_ring(cls, p):
        """The element p of a ring over ZZ, or 0 if p is zero."""
        if not p:
            return 0
        return cls(p.ring, {sum(((i,) * k for i, k in enumerate(mon)), ()): c for mon, c in p.items()})

    def to_ring(self):
        """The same polynomial as an element of `ring`."""
        exps = {}
        for mon, c in self.terms.items():
            exp = [0] * self.ring.ngens
            for i in mon:
                exp[i] += 1
            exps[tuple(exp)] = c
        return self.ring.from_dict(exps)

    def _shape(self):
        return self.ring

    def _new(self, terms) -> "SparseZZ":
        return SparseZZ(self.ring, terms)

    def _check(self, other):
        if type(other) is not SparseZZ or other.ring is not self.ring:
            raise TypeError(f"{type(other).__name__} operand: a SparseZZ adds only a SparseZZ over its ring")

    def __radd__(self, other):
        return self if type(other) is int and not other else NotImplemented

    def __mul__(self, other):
        if type(other) is int:
            if other == 1:
                return self
            return SparseZZ(self.ring, {mon: c * other for mon, c in self.terms.items()} if other else {})
        if type(other) is not SparseZZ or other.ring is not self.ring:
            return NotImplemented
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mon = tuple(sorted(m1 + m2)) if m1 and m2 else m1 or m2
                v = out.get(mon, 0) + c1 * c2
                if v:
                    out[mon] = v
                else:
                    del out[mon]
        return SparseZZ(self.ring, out)

    __rmul__ = __mul__


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
        # ZZ[unknowns]: the polynomials residual_polynomials returns, integral
        # since every structure constant over Q[d] is an integer; the
        # evaluation itself runs on SparseZZ scalars over this ring
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
            pi=Cochain(2, self.g, self.g, {(0, 0): A}),
            rho=MixedMap(self.g, self.h, self.h, {(0, 0): Bv}),
            mu=Cochain(2, self.h, self.h, mu_table),
            eta=MixedMap(self.g, self.h, self.g, {(0, 0): Cv}),
            theta=Cochain(2, self.g, self.h, {(0, 0): Dv}),
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
        built from are integers.  `pc_residuals` runs once with each
        assignment value as a `SparseZZ`, and each nonzero coordinate becomes
        an element of self.ring once, by `SparseZZ.to_ring`.  Ordered by the
        repr of their keys.
        """
        coords = self.residual_vector([SparseZZ.from_ring(g) for g in assignment])
        return [coords[k].to_ring() for k in sorted(coords, key=repr)]


def reconstruct_polynomials(problem: Rank2Problem) -> list:
    """Exact quadratic polynomials of every PC residual coordinate.

    One `pc_residuals` evaluation at the generators of ZZ[unknowns], as
    `SparseZZ` scalars, gives each coordinate as a polynomial with integer
    coefficients, the structure constants over Q[d] being integers.  Returned
    as elements of `problem.ring`, deduplicated up to rational scaling (the
    positive content is divided out, as over QQ), in the order of their keys'
    repr.
    """
    seen = {}
    for p in problem.residual_polynomials(problem.gens):
        prim = p.primitive()[1]
        if prim not in seen and -prim not in seen:
            seen[prim] = None
    return list(seen)


class Family:
    """One leaf of the case-split tree: a parametrized solution family.

    subs maps each substituted unknown to its value in `field`, the solver's
    fraction field; nonzero holds elements of its ring, nonzero on the family.
    """

    def __init__(self, subs, frees, nonzero, field):
        self.subs = subs
        self.frees = frees
        self.nonzero = nonzero
        self.field = field
        self.tag = None

    def value(self, sym):
        """The value of the unknown sym on the family, in `field`."""
        if sym in self.subs:
            return self.subs[sym]
        return self.field.gens[self.field.symbols.index(sym)]

    def __repr__(self):
        return f"Family(tag={self.tag}, subs={self.subs}, nonzero={self.nonzero})"


def _split_monomial(p):
    """(exponents, cofactor): p's common monomial and p divided by it."""
    low = tuple(map(min, zip(*p)))
    return low, p.new({tuple(k - l for k, l in zip(mon, low)): c for mon, c in p.items()})


def _irreducible(p) -> bool:
    """Whether a sum is certified irreducible up to its content, unfactored.

    No monomial divides every term of the sum p.  Say p has degree 1 in an
    unknown x, so p = m x + b with b != 0 over R = ZZ[the other unknowns].
    Then p is irreducible up to content if gcd(m, b) = 1 in R, by Gauss's
    lemma (Lang, Algebra, IV.2).  A single-term m shares no factor with b:
    its unknowns would divide every term of p.  Otherwise m is a monomial
    times m', and gcd(m, b) = 1 if m' is certified by this same rule and
    does not divide b over QQ, that is, if the primitive part of m' does not
    divide b over ZZ (2y - 2 does not divide y**2 - y over ZZ, y - 1 does).
    """
    splits = []
    for i in range(p.ring.ngens):
        if {mon[i] for mon in p} == {0, 1}:
            m = p.new({mon[:i] + (0,) + mon[i + 1:]: c for mon, c in p.items() if mon[i]})
            if len(m) == 1:
                return True
            splits.append((i, m))
    for i, m in splits:
        m = _split_monomial(m)[1]
        if _irreducible(m):
            b = p.new({mon: c for mon, c in p.items() if not mon[i]})
            if b.rem(m.primitive()[1]):
                return True
    return False


def _factor_list(p):
    """`sympy.factor_list(p.as_expr())` on a nonzero element of ZZ[gens].

    Returns (c, [(factor, exp)]), each factor in p's ring, in sympy's order:
    on a sum, sympy's `together` splits off the common monomial of the
    terms; sympy then factors each symbol of it and the primitive cofactor
    on their own generators, and sorts all factors by the key of
    `_sorted_factors`, copied below rather than imported from a private
    name.  Without the monomial step the order moves: on
    A_01*C_01 + A_01*C_10 a plain factorization puts C_01 + C_10 first.  The
    ring's generators must be in sympy's order, so that each factor's
    leading coefficient, and so its sign, is sympy's.  A cofactor that
    `_irreducible` certifies is its own one factor, and sympy's answer is
    written down without factoring; this spares 1,088 of the 1,201 sums of
    the degree-2 search.
    """
    ring = p.ring
    monomial, cofactor = _split_monomial(p)
    if cofactor.is_ground:
        c, factors = cofactor.LC, []
    elif _irreducible(cofactor):
        # the content, signed so that the one factor has a positive leading
        # coefficient
        c, prim = cofactor.primitive()
        if prim.LC < 0:
            c, prim = -c, -prim
        factors = [(prim, 1)]
    else:
        c, factors = cofactor.factor_list()
    # sympy 1.14's key for method 'factor': (len(rep), number of generators,
    # exponent, domain, rep) with rep a factor's dense rep over its
    # generators; the domain, always ZZ here, is left out.  The monomial's
    # symbols go first, as Mul orders its arguments, which within one
    # exponent is by name; equal keys keep that order
    powers = sorted((i for i, k in enumerate(monomial) if k), key=lambda i: ring.symbols[i].name)
    keyed = [((2, 1, monomial[i], [1, 0]), ring.gens[i], monomial[i]) for i in powers]
    if keyed or len(factors) > 1:
        occurring = [i for i, d in enumerate(cofactor.degrees()) if d]
        for f, k in factors:
            rep = dmp_from_dict({tuple(mon[i] for i in occurring): a for mon, a in f.items()},
                                len(occurring) - 1, sympy.ZZ)
            keyed.append(((len(rep), len(occurring), k, rep), f, k))
        keyed.sort(key=lambda t: t[0])
        factors = [(f, k) for _key, f, k in keyed]
    return c, factors


def _substitute(q, i, value):
    """q(x_i = value), in lowest terms, for value in the fraction field of q's ring."""
    parts = {}
    for mon, c in q.items():
        parts.setdefault(mon[i], {})[mon[:i] + (0,) + mon[i + 1:]] = c
    n = max(parts, default=0)
    if not n:
        return value.field.raw_new(q)
    numer, denom = value.numer, value.denom
    return value.field.new(sum((q.new(part) * (numer**k if k else 1) * denom ** (n - k)
                                for k, part in parts.items()), q.ring.zero), denom**n)


def _drop(q, i):
    """q at x_i = 0: the terms of q without x_i."""
    return q.new({mon: c for mon, c in q.items() if not mon[i]})


def solve_quadratic_system(eqs, symbols):
    """All solution families of a quadratic system by elimination + case splits.

    eqs are elements of rings over ZZ; symbols are the unknowns.  Strategy:
    substitute variables with constant-coefficient linear occurrences; reduce
    factored equations by the branch's nonzero set; when stuck, split on a
    factor or on a variable (zero / nonzero).  Leaves with no equations left
    are families; a branch deeper than MAX_SOLVER_DEPTH is reported as an
    unresolved leaf rather than silently dropped.  This is the elimination
    and factor splitting of triangular decomposition (Lazard, J. Symb.
    Comput. 13 (1992); Aubry, Lazard and Moreno Maza, J. Symb. Comput. 28
    (1999)).

    The recursion runs on sparse elements of one ring ZZ[gens], the gens
    being the symbols and every generator that occurs in eqs, in sympy's
    order.  An elimination x = -e0/c keeps its value in the fraction field;
    each value of the rule is substituted there, and each equation and
    nonzero becomes the numerator of its substitution.  A zero split keeps
    the terms free of the variable.  Each `Family` keeps its values in the
    field and its nonzero set in the ring; the only expressions made here are
    those of the sort key.  The branch order and the families are those of
    the sympy expression route that this replaced (sympy 1.14).  Equations,
    and the unknowns of the degree scan of the elimination and the variable
    split, are ordered by `default_sort_key` of their expressions, and
    `_factor_list(p)` is `sympy.factor_list(p.as_expr())`.
    tests/test_rank2.py compares each factor list and substitution numerator
    of three searches with sympy's expression route, and pins the family
    text.

    Most equations pass unchanged from a node to its children, so each call
    memoizes the factor list, degree scan and sort key of each equation; the
    memos live for this call only.  A call that visits more than
    MAX_SOLVER_NODES nodes, or that would factor a sum of more than
    MAX_FACTOR_TERMS terms, raises ResourceError: one node's cost grows with
    its sums, which the node count does not bound.
    """
    gens = set(symbols).union(*({s for s, d in zip(e.ring.symbols, e.degrees()) if d} for e in eqs))
    R = ring(_sort_gens(gens), sympy.ZZ)[0]
    eqs = [e.set_ring(R) for e in eqs]
    field = R.to_field()
    unknowns = set(symbols)
    scan_order = sorted((i for i, s in enumerate(R.symbols) if s in unknowns),
                        key=lambda i: sympy.default_sort_key(R.symbols[i]))
    results = []
    unresolved = []
    nodes = 0

    def memo(fn):
        seen = {}
        def call(p):
            out = seen.get(p)
            if out is None:
                out = seen[p] = fn(p)
            return out
        return call

    @memo
    def factor_list(p):
        if len(p) > MAX_FACTOR_TERMS:
            raise ResourceError(f"rank-2 solver met a sum of {len(p)} terms "
                                f"(budget {MAX_FACTOR_TERMS})")
        return _factor_list(p)

    @memo
    def degrees(p):
        exps = p.degrees()
        return [(i, exps[i]) for i in scan_order if exps[i]]

    sort_key = memo(lambda p: sympy.default_sort_key(p.as_expr()))

    def recurse(eqs, subs, nonzero, depth):
        nonlocal nodes
        nodes += 1
        if nodes > MAX_SOLVER_NODES:
            raise ResourceError(f"rank-2 solver visited more than {MAX_SOLVER_NODES} nodes")
        if depth > MAX_SOLVER_DEPTH:
            unresolved.append(Family(subs, None, nonzero, field))
            return
        eqs = [e for e in eqs if e]
        if any(e.is_ground for e in eqs):
            return  # inconsistent branch
        # reduce by known-nonzero factors
        reduced = []
        for e in eqs:
            _c, factors = factor_list(e)
            live = [b for b, _m in factors if b not in nonzero and -b not in nonzero]
            if not live:
                return  # nonzero constant times nonzero factors = 0: dead
            reduced.append(live[0] if len(live) == 1 else e)
        eqs = sorted(set(reduced), key=sort_key)
        if not eqs:
            frees = [s for s in symbols if s not in subs]
            results.append(Family(subs, frees, nonzero, field))
            return
        # linear elimination; the coefficient must be certified nonzero
        # (a constant, or a product of branch-nonzero factors)
        def invertible(coeff):
            if coeff.is_ground:
                return True
            _c, factors = factor_list(coeff)
            return all(b in nonzero or -b in nonzero for b, _m in factors)

        for e in eqs:
            for i, d in degrees(e):
                if d != 1:
                    continue
                coeff = e.coeff_wrt(i, 1)
                if invertible(coeff):
                    sol = field.new(-_drop(e, i), coeff)
                    new_nz = {_substitute(z, i, sol).numer for z in nonzero}
                    if R.zero in new_nz:
                        return  # contradiction with a nonzero constraint
                    new_subs = {k: _substitute(v.numer, i, sol) / _substitute(v.denom, i, sol)
                                for k, v in subs.items()}
                    new_subs[R.symbols[i]] = sol
                    new_eqs = [_substitute(q, i, sol).numer for q in eqs if q is not e]
                    recurse(new_eqs, new_subs, {z for z in new_nz if not z.is_ground}, depth + 1)
                    return
        # branch on a factorable equation
        for e in eqs:
            _c, factors = factor_list(e)
            bases = [b for b, _m in factors]
            if len(bases) >= 2 or (len(bases) == 1 and bases[0] != e):
                rest = [q for q in eqs if q is not e]
                for k, b in enumerate(bases):
                    # V(e) = union of V(b); earlier factors forced nonzero to
                    # avoid re-exploring overlapping components
                    recurse(rest + [b], subs, nonzero | set(bases[:k]), depth + 1)
                return
        # split on a variable appearing nonlinearly (not already split on)
        var = next((i for e in eqs for i, _d in degrees(e) if R.gens[i] not in nonzero), None)
        if var is None:
            unresolved.append(Family(subs, None, nonzero, field))
            return
        zero_nz = {_drop(z, var) for z in nonzero}
        if R.zero not in zero_nz:
            zero_subs = {k: field.new(_drop(v.numer, var), _drop(v.denom, var))
                         for k, v in subs.items()}
            zero_subs[R.symbols[var]] = field.zero
            recurse([_drop(q, var) for q in eqs], zero_subs,
                    {z for z in zero_nz if not z.is_ground}, depth + 1)
        recurse(eqs, subs, nonzero | {R.gens[var]}, depth + 1)

    recurse(eqs, {}, set(), 0)
    return results, unresolved


def _sorted_strs(polys) -> list:
    """Ring elements as the strings of their expressions, in an order that no
    hash seed moves."""
    return [str(e) for e in sorted((p.as_expr() for p in polys), key=sympy.default_sort_key)]


TYPE_I_TAG = "type_i"
TYPE_II_TAG = "type_ii"
TYPE_III_TAG = "type_iii"
OTHER_TAG = "other"


def _block(problem: Rank2Problem, family: Family, name: str) -> dict:
    """The family's values of the unknowns of block name, keyed (i, j)."""
    return {ij: family.value(sym) for (nm, ij), sym in zip(problem.layout, problem.symbols) if nm == name}


def _is_zero_block(block: dict) -> bool:
    return not any(block.values())


def _first_leg_positive(block: dict) -> bool:
    return any(e for (i, _j), e in block.items() if i > 0)


def classify_family(problem: Rank2Problem, family: Family) -> str:
    """Tag a family against the three classification patterns.

    type i:   B = C = D = 0 (pi alone a pseudobracket);
    type ii:  A = B = D = 0 and C supported on 1 (x) a^(J);
    type iii: D = 0, B proportional to C with nonzero ratio, C supported on
              1 (x) a^(J), and A = b(C - (12)C).

    Every test is an equality of the family's values in its field.
    """
    A = _block(problem, family, "A")
    B = _block(problem, family, "B")
    C = _block(problem, family, "C")
    D = _block(problem, family, "D")
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
        # proportionality: all 2x2 minors of the (B, C) coefficient rows
        # vanish; B and C have the same keys
        keys = sorted(C)
        for a, b in itertools.combinations(keys, 2):
            if B[a] * C[b] - B[b] * C[a]:
                return OTHER_TAG
        # A must equal b (C - (12)C); with C first-leg-degree 0 this means
        # A_{0j} = b C_{0j} for the skew part (C - (12)C)_{0j} = C_{0j}
        # find the ratio b on a C coefficient certified nonzero: a nonzero
        # constant, or a member of the nonzero set
        b_ratio = None
        for k in keys:
            ck = C[k]
            if ck and (ck.numer.is_ground and ck.denom.is_ground
                       or ck.denom == 1 and ck.numer in family.nonzero):
                b_ratio = B[k] / ck
                break
        if b_ratio is None:
            # cannot certify a nonzero ratio symbolically
            return OTHER_TAG
        for (i, j), a in A.items():
            if a != b_ratio * (C[(i, j)] - C[(j, i)]):
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
    families, unresolved = solve_quadratic_system(reconstruct_polynomials(problem), problem.symbols)
    out = []
    for fam in families:
        fam.tag = classify_family(problem, fam)
        sample = _sample_instance(problem, fam)
        out.append(
            {
                "tag": fam.tag,
                "subs": {str(k): str(sympy.expand(v.as_expr())) for k, v in fam.subs.items()},
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


def _at(p, point):
    """The ring element p at point, one value per generator of its ring."""
    return sum(c * math.prod(x**k for x, k in zip(point, mon) if k) for mon, c in p.items())


def _sample_instance(problem: Rank2Problem, family: Family) -> bool:
    """Substitute small rationals for the frees and verify check_pc passes.

    The sample stream is seeded from a CRC of the substituted names, so the
    verdict is the same in every process (``hash`` of a str is salted).  A
    draw at which a member of the nonzero set, or the denominator of a
    value, vanishes is skipped.
    """
    rng = random.Random(zlib.crc32(",".join(sorted(str(s) for s in family.subs)).encode()))
    frees = family.frees or []
    values = [family.value(sym) for sym in problem.symbols]
    for _ in range(SAMPLE_TRIES):
        draw = {s: Fraction(rng.randint(-3, 3)) for s in frees}
        point = [draw.get(s) for s in family.field.symbols]
        if any(not _at(z, point) for z in family.nonzero):
            continue
        denoms = [_at(v.denom, point) for v in values]
        if all(denoms):
            resid = problem.residual_vector([Fraction(_at(v.numer, point), d) for v, d in zip(values, denoms)])
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
    polys = problem.residual_polynomials(c_only)
    c_symbols = [sym for (name, _ij), sym in zip(problem.layout, problem.symbols) if name == "C"]
    families, unresolved = solve_quadratic_system(polys, c_symbols)
    described = []
    for fam in families:
        desc = {ij: sympy.expand(v.as_expr()) for ij, v in _block(problem, fam, "C").items()}
        described.append({"C": {str(k): str(v) for k, v in desc.items()},
                          "free": [str(s) for s in (fam.frees or [])],
                          "nonzero": _sorted_strs(fam.nonzero),
                          "_exprs": desc})
    return {"families": described, "unresolved": len(unresolved)}
