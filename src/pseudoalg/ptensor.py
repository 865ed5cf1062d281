"""Canonical forms and slot operations for elements of H^{(x)n} (x)_H M.

The canonical form fixes the last tensor slot to 1: every element is written
as  sum (a^(I_1) (x) ... (x) a^(I_{n-1}) (x) 1) (x)_H a^(K) e_k,  so a term is
keyed by (slots, K, k).  Equality of canonical term maps is the decision
procedure behind every residual check in this package.  A module element is
an arity-1 value, since H (x)_H M = M: its terms are keyed by ((), K, k).

Straightening a term depends only on its slot monomials and K, so the
expansion of each (slots, K) pair is computed once and kept on the LieAlgebra.

Permutations are handled concretely as placement arrays: `dest[j]` is the
position that receives the content currently in slot j (0-based).  This is the
contents-move action; applied to group elements it composes covariantly, which
is what the shuffle sums in the cochain calculus require.  `placed` is the one
slot-placement loop: it returns the raw terms of a placed, scaled element, and
`permute` is `placed` followed by `canonicalize`.  Sums of many placed
elements (the circle product, the CE differential) append their raw terms to
one list and canonicalize it once.
"""

from __future__ import annotations

from operator import itemgetter

from .hopf import (
    HElem,
    HTensor,
    InputError,
    LieAlgebra,
    Sparse,
    coeff,
    mi_degree,
    mi_splits,
)


class FreeModule:
    """A finitely generated free left H-module with a named basis.

    A module may record a two-part split (direct sum g [+] h); basis indices
    then run over g's basis followed by h's.
    """

    def __init__(self, name: str, basis, alg: LieAlgebra, parts=None):
        self.name = str(name)
        self.basis = tuple(str(b) for b in basis)
        if len(set(self.basis)) != len(self.basis):
            raise InputError(f"module {name!r} has duplicate basis names")
        self.alg = alg
        self.rank = len(self.basis)
        self.parts = parts  # None, or (g: FreeModule, h: FreeModule)
        if parts is not None:
            g, h = parts
            if g.alg != alg or h.alg != alg:
                raise InputError("direct-sum parts must share the Hopf base")
            if self.basis != g.basis + h.basis:
                raise InputError("direct-sum basis must concatenate the parts")

    @classmethod
    def direct_sum(cls, g: "FreeModule", h: "FreeModule", name=None) -> "FreeModule":
        return cls(
            name or f"{g.name}[+]{h.name}", g.basis + h.basis, g.alg, parts=(g, h)
        )

    @property
    def split(self) -> int:
        """Index where the h-part starts (rank of the g-part)."""
        if self.parts is None:
            raise InputError(f"module {self.name!r} carries no recorded split")
        return self.parts[0].rank

    def elem(self, k: int, coeff: HElem | None = None) -> "PTElem":
        """The module element coeff * e_k (coeff defaults to 1), an arity-1 value."""
        if not 0 <= k < self.rank:
            raise InputError(f"basis index {k} out of range for {self.name}")
        terms = {self.alg.zero_index: 1} if coeff is None else coeff.terms
        return PTElem(self, 1, {((), K, k): c for K, c in terms.items()})

    def __eq__(self, other):
        return other is self or (
            isinstance(other, FreeModule)
            and self.name == other.name
            and self.basis == other.basis
            and self.alg == other.alg
        )

    def __hash__(self):
        return hash((self.name, self.basis))

    def __repr__(self):
        return f"FreeModule({self.name!r}, rank={self.rank})"


class PTElem(Sparse):
    """Element of H^{(x)n} (x)_H M in last-slot-normalized canonical form.

    terms: {(slots, K, k): coeff} with slots a tuple of n-1 multi-indices,
    a^(K) the H-coefficient on the module generator e_k.
    """

    __slots__ = ("module", "arity", "terms")

    def __init__(self, module: FreeModule, arity: int, terms: dict):
        if arity < 1:
            raise InputError("pseudotensor arity must be >= 1")
        self.module = module
        self.arity = arity
        self.terms = {t: v for t, c in terms.items() if (v := c if type(c) is int else coeff(c))}

    @classmethod
    def zero(cls, module: FreeModule, arity: int) -> "PTElem":
        return cls(module, arity, {})

    def _shape(self):
        return self.module, self.arity

    def _new(self, terms) -> "PTElem":
        return PTElem(self.module, self.arity, terms)

    def degree(self) -> int:
        """Max total PBW degree (slots plus module coefficient); -1 for zero."""
        return max(
            (
                sum(mi_degree(I) for I in slots) + mi_degree(K)
                for (slots, K, _k) in self.terms
            ),
            default=-1,
        )

    def map_module(self, fn, target: FreeModule) -> "PTElem":
        """Push an H-linear map into `target` through the module part.

        fn(k) is the image of e_k, a module element of `target`.  For each
        term, the product a^(K) h with each image coordinate h is formed
        whole, zeros dropped, before it is added.  A zero value or an
        all-zero image gives the zero of `target`.
        """
        mul = self.module.alg.mul_mono
        out = {}
        for (slots, K, k), c in self.terms.items():
            products = {}
            for (_s, J, k2), cj in fn(k).terms.items():
                prod = products.setdefault(k2, {})
                for K2, c2 in mul(K, J).items():
                    v = prod.get(K2, 0) + cj * c2
                    if v:
                        prod[K2] = v
                    else:
                        prod.pop(K2, None)
            for k2, prod in products.items():
                for K2, c2 in prod.items():
                    key = (slots, K2, k2)
                    v = out.get(key, 0) + c * c2
                    if v:
                        out[key] = v
                    else:
                        out.pop(key, None)
        return PTElem(target, self.arity, out)

    def split_by_part(self) -> tuple["PTElem", "PTElem"]:
        """Split the module part of a direct-sum-valued element into (g, h)."""
        cut = self.module.split
        g, h = {}, {}
        for t, c in self.terms.items():
            (g if t[2] < cut else h)[t] = c
        return (
            PTElem(self.module, self.arity, g),
            PTElem(self.module, self.arity, h),
        )

    def coerce(self, module: FreeModule, index_map=None) -> "PTElem":
        """Reinterpret over another module; index_map sends old k to new k."""
        out = {}
        for (slots, K, k), c in self.terms.items():
            k2 = index_map(k) if index_map else k
            if not 0 <= k2 < module.rank:
                raise InputError("coercion index out of range")
            out[(slots, K, k2)] = out.get((slots, K, k2), 0) + c
        return PTElem(module, self.arity, {t: c for t, c in out.items() if c})

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (slots, K, k), c in sorted(self.terms.items()):
            slot_str = " (x) ".join(str(s) for s in slots + ((),))
            bits.append(f"{c}*[{slot_str}](x)_H {K}.{self.module.basis[k]}")
        return " + ".join(bits)


def coordinates(m: PTElem) -> list:
    """[(k, {K: c})] of a module element: the H-coefficient of each e_k, in increasing k."""
    if m.arity != 1:
        raise InputError("only an arity-1 value is a module element")
    coords = {}
    for (_s, K, k), c in m.terms.items():
        coords.setdefault(k, {})[K] = c
    return sorted(coords.items())


# -- canonicalization ---------------------------------------------------------


def slot_products(alg: LieAlgebra, lefts, rights) -> list:
    """Slotwise products lefts[i] * rights[i], expanded into monomial tuples.

    lefts are monomials, rights are {L: c} maps; returns [(tuple, c)] with
    repeats kept, in slot-major order.
    """
    partial = [((), 1)]
    for h, right in zip(lefts, rights):
        nxt = []
        for prefix, cp in partial:
            for L, cl in right.items():
                for M, cm in alg.mul_mono(h, L).items():
                    nxt.append((prefix + (M,), cp * cl * cm))
        partial = nxt
    return partial


def _term_expansion(alg: LieAlgebra, slots: tuple, K) -> tuple:
    """Straighten (h1 (x) ... (x) hn) (x)_H a^(K) m, memoized per (slots, K).

    With J = hn,
      (h1 ... hn)(x)_H a^(K) m
        = sum (h1 S(J_(1)) (x) ... (x) h_{n-1} S(J_(n-1)) (x) 1)(x)_H J_(n) a^(K) m.
    Returns ((prefix, K2, c), ...): the term is sum c (prefix (x) 1)(x)_H a^(K2) m,
    listed by right = J_(n), then K2 in J_(n) a^(K), then prefix.  It depends
    on the slot monomials and K only, so the algebra keeps it for every later term.
    """
    key = (slots, K)
    pieces = alg.term_expansions.get(key)
    if pieces is None:
        pieces = []
        for split in mi_splits(slots[-1], len(slots)):
            prefixes = slot_products(alg, slots[:-1], map(alg.antipode_mono, split[:-1]))
            pieces += [
                (prefix, K2, coeff(cK * cp))
                for K2, cK in alg.mul_mono(split[-1], K).items()
                for prefix, cp in prefixes
            ]
        pieces = alg.term_expansions[key] = tuple(pieces)
    return pieces


def canonicalize(module: FreeModule, arity: int, raw_terms) -> PTElem:
    """Canonicalize raw terms (slot monomials of length `arity`, K, k, coeff).

    Applies the (x)_H straightening relation to force the last slot to 1.
    Idempotent: canonical input passes through unchanged.
    """
    alg = module.alg
    out = {}
    zero_mi = alg.zero_index
    for slots, K, k, c in raw_terms:
        if len(slots) != arity:
            raise InputError("raw term has wrong number of slots")
        if not 0 <= k < module.rank:
            raise InputError("raw term has bad basis index")
        slots = tuple(slots)
        if slots[-1] == zero_mi:
            pieces = ((slots[:-1], K, 1),)
        else:
            pieces = _term_expansion(alg, slots, K)
        for prefix, K2, ce in pieces:
            key = (prefix, K2, k)
            v = out.get(key, 0) + c * ce
            if v:
                out[key] = v
            elif isinstance(v, float):  # the constructor never sees a value that cancels
                raise TypeError(f"float raw coefficient {c!r}: exact scalars are int or Fraction")
            else:
                out.pop(key, None)
    return PTElem(module, arity, out)


def _explicit_terms(e: PTElem):
    """Iterate terms with the implicit last slot made explicit."""
    zero_mi = e.module.alg.zero_index
    for (slots, K, k), c in e.terms.items():
        yield slots + (zero_mi,), K, k, c


def act(c: HTensor, e: PTElem) -> PTElem:
    """Left multiplication of the n slots by a coefficient tensor.

    The unit tensor 1 (x) ... (x) 1 returns e itself: its raw terms are e's
    canonical terms in e's order, so straightening them again would rebuild
    the same value.
    """
    if c.arity != e.arity:
        raise InputError("act: tensor arity mismatch")
    if c.alg != e.module.alg:
        raise InputError("act: Hopf base mismatch")
    alg = c.alg
    if c.terms == {(alg.zero_index,) * c.arity: 1}:
        return e
    raw = []
    for mult, cm in c.terms.items():
        for slots, K, k, ce in _explicit_terms(e):
            for prefix, cp in slot_products(alg, mult, [{s: 1} for s in slots]):
                raw.append((prefix, K, k, cm * ce * cp))
    return canonicalize(e.module, e.arity, raw)


def placed(e: PTElem, dest, c=1) -> list:
    """Raw terms of c * e with the content of slot j moved to position dest[j].

    The terms are not canonical: the slot that receives the implicit last 1
    need not be the last one.  `canonicalize` takes them as they are.
    """
    src = [0] * len(dest)
    for j, i in enumerate(dest):
        src[i] = j
    zero_mi = e.module.alg.zero_index
    # itemgetter of a single index returns the item, not a 1-tuple
    pick = itemgetter(*src) if len(src) > 1 else tuple
    return [(pick(slots + (zero_mi,)), K, k, c * v) for (slots, K, k), v in e.terms.items()]


def permute(e: PTElem, dest) -> PTElem:
    """Move slot contents: content of slot j lands at position dest[j] (0-based)."""
    dest = tuple(dest)
    n = e.arity
    if sorted(dest) != list(range(n)):
        raise InputError(f"not a placement array of size {n}: {dest}")
    if dest == tuple(range(n)):
        return e
    return canonicalize(e.module, n, placed(e, dest))


def swap_dest(n: int, i: int, j: int) -> tuple:
    """Placement array for the transposition of slots i and j (0-based)."""
    dest = list(range(n))
    dest[i], dest[j] = j, i
    return tuple(dest)


def perm_sign(perm) -> int:
    """Parity of a permutation given as a placement/image array."""
    perm = list(perm)
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign
