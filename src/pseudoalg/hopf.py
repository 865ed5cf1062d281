"""Exact arithmetic in H = U(b) for a finite-dimensional Lie algebra b.

Elements are stored in the divided-power PBW basis a^(K) = prod_i a_i^{k_i}/k_i!
indexed by multi-indices K.  In this basis the coproduct is literally
Delta(a^(K)) = sum_{L <= K} a^(L) (x) a^(K-L), and products of divided powers
stay integral for abelian b.  Every stored scalar is exact: an ``int`` when it
is integral, a ``Fraction`` otherwise, never a ``float``; the one exception is
a polynomial over QQ or ZZ, which `rank2` passes in as a symbolic scalar.
`coeff` normalises a scalar to that form and `exact_div` divides without
leaving it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial

Scalar = int | Fraction
MultiIndex = tuple  # tuple[int, ...] of length alg.dim


class InputError(ValueError):
    """Bad user input (wrong dimensions, malformed data)."""


class InternalInvariantError(RuntimeError):
    """A structural invariant the kernel relies on was violated."""


class ResourceError(RuntimeError):
    """A request exceeds a budget.

    The budgets are cohomology.COORD_BUDGET coordinates of a truncated space,
    rank2.MAX_UNKNOWNS unknowns, rank2.MAX_SOLVER_NODES solver nodes,
    rank2.MAX_FACTOR_TERMS terms of a sum the solver cleans or factors and
    io.MAX_INPUT_DEGREE, the PBW degree of a term read from a file.
    """


def coeff(x) -> Scalar:
    """x as an exact scalar: an int when integral, else a Fraction; floats raise.

    A polynomial of ``sympy.polys.rings`` over QQ or ZZ passes through
    unchanged, so one evaluation with ring generators as scalars yields every
    coordinate as an exact polynomial (`rank2` does this).  A polynomial over
    any other domain raises like a float.
    """
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        if isinstance(x, float):
            raise TypeError(f"float scalar {x!r}: exact scalars are int or Fraction")
        ring = getattr(x, "ring", None)
        if ring is not None:
            if ring.domain.is_QQ or ring.domain.is_ZZ:
                return x
            raise TypeError(f"polynomial over {ring.domain}: exact domains are QQ and ZZ")
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def exact_div(a, b) -> Scalar:
    """a / b exactly: an int when b divides a, else a Fraction."""
    a, b = coeff(a), coeff(b)
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return coeff(Fraction(a) / b)


class LieAlgebra:
    """A finite-dimensional Lie algebra b given by exact structure constants.

    brackets[(i, j)] is the sparse row {k: c} meaning [a_i, a_j] = sum_k c a_k,
    stored for i < j only.  Antisymmetry and the Jacobi identity are checked
    exactly at construction.
    """

    def __init__(self, names, brackets=None):
        self.names = tuple(str(n) for n in names)
        if len(set(self.names)) != len(self.names):
            raise InputError("generator names must be unique")
        self.dim = len(self.names)
        table = {}
        for (i, j), row in (brackets or {}).items():
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise InputError(f"bracket index ({i},{j}) out of range")
            if i == j:
                if any(coeff(c) != 0 for c in row.values()):
                    raise InputError(f"[a_{i}, a_{i}] must vanish")
                continue
            clean = {k: coeff(c) for k, c in row.items() if coeff(c) != 0}
            if not clean:
                continue
            if i > j:
                i, j, clean = j, i, {k: -c for k, c in clean.items()}
            if (i, j) in table and table[(i, j)] != clean:
                raise InputError(f"conflicting entries for bracket ({i},{j})")
            table[(i, j)] = clean
        self._brackets = table
        self._check_jacobi()
        self.zero_index: MultiIndex = (0,) * self.dim
        # Kernel memos, one per algebra instance; nothing is cached at module level.
        self._word_cache = {}  # word -> {K: c}; filled only by _straighten
        self._mul_cache = {}  # (I, J) -> {K: c}; filled only by mul_mono
        self._antipode_cache = {}  # K -> {L: c}; filled only by antipode_mono
        # (slots, K) -> ((prefix, K2, c), ...); filled only by ptensor._term_expansion
        self.term_expansions = {}
        # (inner slots, K_in, P) -> ((legs, c), ...); filled only by cochains._coproduct_spread
        self.coproduct_spreads = {}

    @classmethod
    def abelian(cls, names):
        return cls(names, {})

    def bracket(self, i: int, j: int) -> dict:
        """Structure constants of [a_i, a_j] as a sparse row {k: c}."""
        if i == j:
            return {}
        if i < j:
            return self._brackets.get((i, j), {})
        return {k: -c for k, c in self._brackets.get((j, i), {}).items()}

    def _check_jacobi(self):
        for i, j, k in itertools.combinations(range(self.dim), 3):
            acc = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for m, cm in self.bracket(a, b).items():
                    for l, cl in self.bracket(m, c).items():
                        acc[l] = acc.get(l, 0) + cm * cl
            if any(v != 0 for v in acc.values()):
                raise InputError(
                    f"structure constants violate the Jacobi identity at ({i},{j},{k})"
                )

    # -- multi-index helpers -------------------------------------------------

    def mono(self, K: MultiIndex) -> "HElem":
        return HElem(self, {tuple(K): 1})

    def unit(self) -> "HElem":
        return self.mono(self.zero_index)

    def gen(self, i: int) -> "HElem":
        K = list(self.zero_index)
        K[i] = 1
        return self.mono(tuple(K))

    def zero(self) -> "HElem":
        return HElem(self, {})

    # -- straightening -------------------------------------------------------

    def _straighten(self, word: tuple) -> dict:
        """PBW-normalize the word a_{w1} a_{w2} ... ; returns {K: coeff}.

        Recursion on (degree, inversion count): swapping the first strict
        descent either keeps the degree and lowers the inversion count, or
        contracts to a shorter word through the bracket.
        """
        cached = self._word_cache.get(word)
        if cached is not None:
            return cached
        descent = -1
        for t in range(len(word) - 1):
            if word[t] > word[t + 1]:
                descent = t
                break
        if descent < 0:
            K = [0] * self.dim
            c = 1
            for g in word:
                K[g] += 1
                c *= K[g]  # sorted word a_i^k = k! a_i^(k), built up stepwise
            result = {tuple(K): c}
        else:
            i, j = word[descent], word[descent + 1]
            swapped = word[:descent] + (j, i) + word[descent + 2 :]
            result = dict(self._straighten(swapped))
            head, tail = word[:descent], word[descent + 2 :]
            for k, c in self.bracket(i, j).items():
                for K, c2 in self._straighten(head + (k,) + tail).items():
                    v = result.get(K, 0) + c * c2
                    if v:
                        result[K] = v
                    else:
                        result.pop(K, None)
        self._word_cache[word] = result
        return result

    def mul_mono(self, I: MultiIndex, J: MultiIndex) -> dict:
        """Product a^(I) a^(J) in the divided-power PBW basis, as {K: coeff}."""
        key = (I, J)
        cached = self._mul_cache.get(key)
        if cached is not None:
            return cached
        word = []
        den = 1  # prod k!: a^(I) a^(J) is the word divided by it
        for K in (I, J):
            for g, k in enumerate(K):
                word.extend([g] * k)
                den *= factorial(k)
        result = {K: exact_div(c, den) for K, c in self._straighten(tuple(word)).items()}
        self._mul_cache[key] = result
        return result

    def antipode_mono(self, K: MultiIndex) -> dict:
        """S(a^(K)): reverse the factors, negate the generators, restraighten."""
        cached = self._antipode_cache.get(K)
        if cached is not None:
            return cached
        sign = -1 if sum(K) % 2 else 1
        acc = {self.zero_index: sign}
        for g in range(self.dim - 1, -1, -1):
            if K[g] == 0:
                continue
            Kg = list(self.zero_index)
            Kg[g] = K[g]
            step = {}
            for L, c in acc.items():
                for M, c2 in self.mul_mono(L, tuple(Kg)).items():
                    v = step.get(M, 0) + c * c2
                    if v:
                        step[M] = v
                    else:
                        step.pop(M, None)
            acc = step
        self._antipode_cache[K] = acc
        return acc

    def __repr__(self):
        return f"LieAlgebra({list(self.names)})"

    def __eq__(self, other):
        return other is self or (
            isinstance(other, LieAlgebra)
            and self.names == other.names
            and self._brackets == other._brackets
        )

    def __hash__(self):
        return hash(self.names)


def mi_splits(K: MultiIndex, parts: int):
    """All decompositions of K into an ordered sum of `parts` multi-indices."""
    if parts == 1:
        yield (K,)
        return
    for L in itertools.product(*(range(k + 1) for k in K)):
        rest = tuple(k - l for k, l in zip(K, L))
        for tail in mi_splits(rest, parts - 1):
            yield (tuple(L),) + tail


def mi_degree(K: MultiIndex) -> int:
    return sum(K)


class Sparse:
    """A finite linear combination: `terms` maps a basis key to a nonzero value.

    The one base of every linear value: `HElem`, `HTensor` and
    `ptensor.PTElem` (module elements included, as arity-1 values), whose
    values are exact scalars, and `cochains.Cochain`, `cochains.MixedMap` and
    `cochains.HModuleMap`, whose values are themselves `Sparse`.  Values of
    one class add only when their `_shape()` (the base algebra, arity or
    modules they live over) agrees; `_new(terms)` builds a value of the same
    shape, and its constructor normalises each value and drops zeros.  Sums
    keep the keys of the left operand first, then the new keys of the right
    one in their order, and drop a key whose values cancel.  `c * v` is
    `v.scale(c)`.  Values are immutable after construction.
    """

    __slots__ = ()

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._shape() == other._shape() and self.terms == other.terms

    def _check(self, other):
        if type(other) is not type(self) or self._shape() != other._shape():
            raise InputError(f"{type(self).__name__} operands differ in base, arity or module")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for t, c in other.terms.items():
            cur = out.get(t)
            v = c if cur is None else cur + c
            if v:
                out[t] = v
            else:
                out.pop(t, None)
        return self._new(out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        for t, c in other.terms.items():
            cur = out.get(t)
            v = -c if cur is None else cur - c
            if v:
                out[t] = v
            else:
                out.pop(t, None)
        return self._new(out)

    def __neg__(self):
        return self._new({t: -c for t, c in self.terms.items()})

    def scale(self, c):
        c = coeff(c)
        if c == 0:
            return self._new({})
        return self._new({t: c * v for t, v in self.terms.items()})

    def __rmul__(self, c):
        return self.scale(c)


class HElem(Sparse):
    """Sparse exact element of H = U(b) in divided-power coordinates."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg: LieAlgebra, terms: dict):
        self.alg = alg
        self.terms = {K: v for K, c in terms.items() if (v := c if type(c) is int else coeff(c))}

    def _shape(self):
        return self.alg

    def _new(self, terms) -> "HElem":
        return HElem(self.alg, terms)

    def __mul__(self, other: "HElem") -> "HElem":
        """PBW product via straightening; exact."""
        self._check(other)
        out = {}
        for I, ci in self.terms.items():
            for J, cj in other.terms.items():
                for K, c in self.alg.mul_mono(I, J).items():
                    v = out.get(K, 0) + ci * cj * c
                    if v:
                        out[K] = v
                    else:
                        out.pop(K, None)
        return HElem(self.alg, out)

    def degree(self) -> int:
        """Maximal PBW degree of a term (-1 for zero)."""
        return max((mi_degree(K) for K in self.terms), default=-1)

    def __repr__(self):
        if not self.terms:
            return "0"
        names = self.alg.names
        bits = []
        for K in sorted(self.terms):
            c = self.terms[K]
            mono = "*".join(
                f"{names[i]}^({k})" if k > 1 else names[i]
                for i, k in enumerate(K)
                if k
            )
            bits.append(f"{c}" if not mono else f"{c}*{mono}")
        return " + ".join(bits)


class HTensor(Sparse):
    """Sparse element of H^{(x) n}: finite map from multi-index tuples to scalars."""

    __slots__ = ("alg", "arity", "terms")

    def __init__(self, alg: LieAlgebra, arity: int, terms: dict):
        if arity < 1:
            raise InputError("tensor arity must be >= 1")
        self.alg = alg
        self.arity = arity
        self.terms = {
            tuple(K): v for K, c in terms.items() if (v := c if type(c) is int else coeff(c))
        }

    @classmethod
    def unit(cls, alg: LieAlgebra, arity: int) -> "HTensor":
        return cls(alg, arity, {(alg.zero_index,) * arity: 1})

    @classmethod
    def from_legs(cls, legs) -> "HTensor":
        """Tensor product of a list of HElems, expanded to monomial tuples."""
        legs = list(legs)
        alg = legs[0].alg
        terms = {(): 1}
        for leg in legs:
            nxt = {}
            for tup, c in terms.items():
                for K, c2 in leg.terms.items():
                    nxt[tup + (K,)] = c * c2
            terms = nxt
        return cls(alg, len(legs), terms)

    def _shape(self):
        return self.alg, self.arity

    def _new(self, terms) -> "HTensor":
        return HTensor(self.alg, self.arity, terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for K in sorted(self.terms):
            mono = " (x) ".join(str(k) for k in K)
            bits.append(f"{self.terms[K]}*[{mono}]")
        return " + ".join(bits)
