"""Skew-symmetric conformal polylinear maps and their insertion calculus.

A Cochain stores its values only on non-decreasing basis tuples; values on all
other argument orders are derived through the signed symmetric-group action

    f(x_1, ..., x_p) = sign(s) (s (x)_H id) f(x_{s(1)}, ..., x_{s(p)}),

realized concretely by placement arrays (see ptensor.permute).  A MixedMap
g (x) h -> target stores every pair; both are a PolyMap.  Composition
inserts an inner value into one argument slot of an outer map: the inner
H-coefficients multiply the iterated-coproduct spread of the outer slot
coefficient.  That insertion rule is forced by H-polylinearity and is the
single composition primitive behind the circle product, the NR bracket, the
Jacobiator, PC1..PC8 and the Chevalley-Eilenberg sums.  One `insert_value`
and one `lift` to C(g [+] h) serve cochains and mixed maps alike.

Throughout, composite values are slot-ALIGNED: after every insertion the slots
are rearranged so that slot i carries the coefficient of argument x_i.

One loop, `shuffle_sum`, runs every signed sum of composites over shuffles:
the circle product, the NR bracket (its two circle products in one sum) and
the Chevalley-Eilenberg differential of `cohomology` (its action and bracket
terms; d f = [mu, f]_NR, as Nijenhuis and Richardson have it).  Within a
tuple each distinct composite is built and canonicalized once (shuffles that
give the same arguments share it), placed slot-aligned with the shuffle sign
folded into the coefficient, and the raw terms of every shuffle are
canonicalized once.

The circle product and the NR bracket visit only the output tuples t their
operands' supports reach.  A shuffle of t adds to f o g only if its head (its
first q arguments, non-decreasing) is a key s of g.terms and sorted((k,) +
tail) is a key of f.terms for a module index k of g(s); so t is a sorted
merge of such an s with a key of f less one k, and every other tuple has an
empty raw list.  The self-bracket uses the exact identity
[f, f] = (1 - (-1)^{(p-1)^2}) f o f, so it computes at most one circle
product.
"""

from __future__ import annotations

import itertools
from operator import itemgetter

from .hopf import HTensor, InputError, Sparse, coeff, mi_splits
from .ptensor import (
    FreeModule,
    PTElem,
    act,
    canonicalize,
    coordinates,
    perm_sign,
    permute,
    placed,
    slot_products,
    swap_dest,
)


def sorted_tuples(rank: int, p: int):
    return itertools.combinations_with_replacement(range(rank), p)


class PolyMap(Sparse):
    """An H-polylinear map sources[0] (x) ... (x) sources[n-1] -> H^{(x)n} (x)_H target.

    A subclass gives `sources`, `target`, `terms` and `value(args)`, the
    value on a tuple of basis indices, one per source.
    """

    __slots__ = ()

    def eval(self, args) -> PTElem:
        """H-polylinear extension to module elements, one of each source."""
        return evaluate(self.value, self.sources, self.target, tuple(args))

    def max_degree(self) -> int:
        return max((v.degree() for v in self.terms.values()), default=-1)


class Cochain(PolyMap):
    """Skew-symmetric conformal p-linear map source^{(x)p} -> H^{(x)p} (x)_H target.

    `terms` maps each non-decreasing tuple of source basis indices to the
    value on it, an arity-p PTElem over target; a missing tuple means zero.
    """

    __slots__ = ("arity", "source", "target", "terms", "_value_cache")

    def __init__(self, arity: int, source: FreeModule, target: FreeModule, terms: dict):
        if arity < 1:
            raise InputError("cochain arity must be >= 1")
        self.arity = arity
        self.source = source
        self.target = target
        self.terms = {}
        for t, v in terms.items():
            t = tuple(t)
            if list(t) != sorted(t):
                raise InputError(f"table key {t} is not non-decreasing")
            if v.arity != arity or v.module != target:
                raise InputError("table value has wrong arity or module")
            if not v.is_zero():
                self.terms[t] = v
        self._value_cache = {}

    @classmethod
    def zero(cls, arity, source, target) -> "Cochain":
        return cls(arity, source, target, {})

    def _shape(self):
        return self.arity, self.source, self.target

    def _new(self, terms) -> "Cochain":
        return Cochain(self.arity, self.source, self.target, terms)

    @property
    def sources(self) -> tuple:
        return (self.source,) * self.arity

    # -- evaluation ------------------------------------------------------------

    def value(self, args: tuple) -> PTElem:
        """Value on an arbitrary basis-index tuple via the signed slot action."""
        args = tuple(args)
        cached = self._value_cache.get(args)
        if cached is not None:
            return cached
        order = tuple(sorted(range(self.arity), key=lambda i: args[i]))
        key = tuple(args[i] for i in order)
        stored = self.terms.get(key)
        if stored is None:
            out = PTElem.zero(self.target, self.arity)
        elif order == tuple(range(self.arity)):
            out = stored
        else:
            sign = perm_sign(order)
            out = permute(stored, order)
            if sign < 0:
                out = out.scale(-1)
        self._value_cache[args] = out
        return out

    def __repr__(self):
        return (
            f"Cochain(arity={self.arity}, {self.source.name}->{self.target.name}, "
            f"{len(self.terms)} entries)"
        )


def evaluate(value, sources, target: FreeModule, args) -> PTElem:
    """H-polylinear extension of a map given on basis tuples to module elements.

    value(keys) is the map's arity-n value on the basis tuple keys; args[i]
    is a module element of sources[i].  Each basis tuple of the arguments'
    coordinates, taken in increasing order, makes one `act` on the value of
    the tensor product of their H-coefficients (built as HTensor.from_legs
    does).
    """
    n = len(sources)
    if len(args) != n:
        raise InputError("eval: wrong number of arguments")
    for a, src in zip(args, sources):
        if a.module != src:
            raise InputError(f"eval: argument in {a.module.name}, expected {src.name}")
    acc = None
    for combo in itertools.product(*map(coordinates, args)):
        base = value(tuple(k for k, _leg in combo))
        if base:
            legs = {(): 1}
            for _k, leg in combo:
                legs = {t + (K,): c * c2 for t, c in legs.items() for K, c2 in leg.items()}
            term = act(HTensor(target.alg, n, legs), base)
            acc = term if acc is None else acc + term
    return PTElem.zero(target, n) if acc is None else acc


def skew_check(f: Cochain):
    """Per-tuple, per-transposition residuals of the skew-symmetry identity.

    Returns a list of (tuple, (i, j), residual PTElem); empty iff skew.
    """
    failures = []
    p = f.arity
    for t in sorted(f.terms):
        for i in range(p - 1):
            swapped = list(t)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            # eq: f(t) = -P_(i,i+1) f(t with i,i+1 swapped)
            derived = permute(f.value(tuple(swapped)), swap_dest(p, i, i + 1)).scale(-1)
            resid = f.value(t) - derived
            if not resid.is_zero():
                failures.append((t, (i, i + 1), resid))
    return failures


def skew_symmetrize(arity, source, target, raw_value_fn) -> Cochain:
    """Total skew-symmetrization of an arbitrary tuple-indexed raw value map."""
    table = {}
    for t in sorted_tuples(source.rank, arity):
        acc = PTElem.zero(target, arity)
        for sigma in itertools.permutations(range(arity)):
            w = raw_value_fn(tuple(t[sigma[i]] for i in range(arity)))
            if w.is_zero():
                continue
            term = permute(w, sigma)
            if perm_sign(sigma) < 0:
                term = term.scale(-1)
            acc = acc + term
        table[t] = acc
    return Cochain(arity, source, target, table)


# -- composition -------------------------------------------------------------


def _coproduct_spread(alg, c_slots: tuple, K_in, P) -> tuple:
    """Slotwise product (c_1 (x) ... (x) c_{q-1} (x) 1) Delta^{q-1}(a^(K_in) a^(P)).

    Returns ((legs, c), ...), X-major over the terms a^(X) of a^(K_in) a^(P).  It
    depends on the inner slot monomials, K_in and P only, so the algebra keeps it.
    """
    key = (c_slots, K_in, P)
    spread = alg.coproduct_spreads.get(key)
    if spread is None:
        c_exp = c_slots + (alg.zero_index,)
        spread = alg.coproduct_spreads[key] = tuple(
            (legs, coeff(cX * cl))
            for X, cX in alg.mul_mono(K_in, P).items()
            for split in mi_splits(X, len(c_exp))
            for legs, cl in slot_products(alg, c_exp, [{j: 1} for j in split])
        )
    return spread


def insert_raw(value_at, outer_arity: int, target: FreeModule, pos: int, inner: PTElem) -> PTElem:
    """Insert an inner value into argument `pos` (0-based) of an outer map.

    value_at(k) must return the outer value (a canonical PTElem of arity
    outer_arity over target) with basis element k in position pos and the
    remaining arguments already fixed.  The inner H-coefficients multiply the
    iterated-coproduct spread of the outer slot coefficient; the inner block
    occupies positions pos .. pos+q-1 of the result.
    """
    p = outer_arity
    q = inner.arity
    alg = target.alg
    zero_mi = alg.zero_index
    raw = []
    for (c_slots, K_in, k_in), c_inner in inner.terms.items():
        base = value_at(k_in)
        if base.is_zero():
            continue
        for (p_slots, K_out, m), c_outer in base.terms.items():
            p_exp = p_slots + (zero_mi,)
            head, tail = p_exp[:pos], p_exp[pos + 1 :]
            scale0 = c_inner * c_outer
            for legs, cl in _coproduct_spread(alg, c_slots, K_in, p_exp[pos]):
                raw.append((head + legs + tail, K_out, m, scale0 * cl))
    return canonicalize(target, p + q - 1, raw)


def insert_value(outer: PolyMap, pre: tuple, inner: PTElem, post: tuple) -> PTElem:
    """outer(pre..., inner, post...) for basis-index tuples pre and post; see insert_raw."""
    sources = outer.sources
    if len(pre) + 1 + len(post) != len(sources):
        raise InputError("insert_value: argument count mismatch")
    if inner.module != sources[len(pre)]:
        raise InputError("insert_value: inner value lives in the wrong module")
    return insert_raw(
        lambda k: outer.value(pre + (k,) + post),
        len(sources),
        outer.target,
        len(pre),
        inner,
    )


def shuffles(q: int, r: int):
    """(q, r)-shuffles of {0..q+r-1} as (placement image sigma(0..q+r-1), sign)."""
    n = q + r
    for first in itertools.combinations(range(n), q):
        rest = tuple(i for i in range(n) if i not in first)
        # first[i] passes first[i] - i of the rest: sum(first) - q(q-1)/2 inversions
        yield first + rest, -1 if (sum(first) - q * (q - 1) // 2) % 2 else 1


def _common_module(*cochains) -> FreeModule:
    mod = cochains[0].source
    if any(h.source != mod or h.target != mod for h in cochains):
        raise InputError("circle product needs cochains on one common module")
    return mod


def _reach(f: Cochain, g: Cochain) -> set:
    """The output tuples where f o g can be nonzero (see the module doc)."""
    cuts = {}
    for w in f.terms:
        for i, k in enumerate(w):
            cuts.setdefault(k, set()).add(w[:i] + w[i + 1 :])
    heads = ((s, k) for s, v in g.terms.items() for k in {key[2] for key in v.terms})
    return {tuple(sorted(s + w)) for s, k in heads for w in cuts.get(k, ())}


def shuffle_sum(target: FreeModule, n: int, tuples, plans) -> dict:
    """The table {t: value} of a signed sum of composites over shuffles of each tuple t.

    A plan (q, c, build) adds c * sign(sigma) * build(args) for every (q, n-q)-
    shuffle sigma of t, where args[i] = t[sigma[i]] and composite slot i, once
    placed by sigma, carries argument args[i].  build returns a value of
    arity n over target, or None or zero where the shuffle adds nothing.  Each
    distinct composite of a tuple is built once (repeated indices in t make
    shuffles coincide), and the placed terms of every plan are canonicalized
    once per tuple.
    """
    # itemgetter of a single index returns the item, not a 1-tuple
    signed = [
        (build, [(itemgetter(*sigma) if n > 1 else tuple, sigma, c * sign)
                 for sigma, sign in shuffles(q, n - q)])
        for q, c, build in plans
    ]
    table = {}
    for t in tuples:
        raw = []
        for build, shuffled in signed:
            composites = {}
            for pick, sigma, sc in shuffled:
                args = pick(t)
                comp = composites.get(args)
                if comp is None:
                    comp = composites[args] = build(args)
                if comp:
                    raw += placed(comp, sigma, sc)
        if raw:
            value = canonicalize(target, n, raw)
            if value:
                table[t] = value
    return table


def head_insertion(outer: PolyMap, inner: Cochain):
    """The build args -> outer(inner(args[:q]), args[q:]) of a shuffle_sum plan.

    The head args[:q] of a shuffle of a sorted tuple is sorted, so inner.terms
    holds its value or the shuffle adds nothing.
    """
    q = inner.arity

    def build(args):
        value = inner.terms.get(args[:q])
        return value and insert_value(outer, (), value, args[q:])

    return build


def _circle_sum(products) -> Cochain:
    """sum c * (f o g) over the (c, f, g) in products, on the tuples some product reaches."""
    mod = _common_module(*(h for _c, f, g in products for h in (f, g)))
    n = products[0][1].arity + products[0][2].arity - 1
    plans = [(g.arity, c, head_insertion(f, g)) for c, f, g in products]
    tuples = sorted(set().union(*(_reach(f, g) for _c, f, g in products)))
    return Cochain(n, mod, mod, shuffle_sum(mod, n, tuples, plans))


def circle(f: Cochain, g: Cochain) -> Cochain:
    """Circle (insertion) product: sum over (q, p-1)-shuffles of f(g(...), ...)."""
    return _circle_sum([(1, f, g)])


def nr_bracket(f: Cochain, g: Cochain) -> Cochain:
    """Nijenhuis-Richardson bracket [f, g] = f o g - (-1)^{(p-1)(q-1)} g o f.

    Both circle products are one shuffle sum.  For g is f the bracket is
    (1 - (-1)^{(p-1)^2}) f o f exactly: zero for odd arity p, and one circle
    product with coefficient 2 for even p.
    """
    if f is g:
        if f.arity % 2:
            return Cochain.zero(2 * f.arity - 1, _common_module(f), f.target)
        return _circle_sum([(2, f, f)])
    sign = -1 if ((f.arity - 1) * (g.arity - 1)) % 2 else 1
    return _circle_sum([(1, f, g), (-sign, g, f)])


# -- mixed binary components ---------------------------------------------------


class MixedMap(PolyMap):
    """H^{(x)2}-linear map g (x) h -> H^{(x)2} (x)_H target (no symmetry constraint).

    `terms` maps a pair (i, j) of a g and an h basis index to the value on
    x_i (x) u_j, an arity-2 PTElem over target; a missing pair means zero.
    """

    __slots__ = ("gmod", "hmod", "target", "terms")

    def __init__(self, gmod, hmod, target, terms):
        self.gmod = gmod
        self.hmod = hmod
        self.target = target
        self.terms = {}
        for (i, j), v in terms.items():
            if v.arity != 2 or v.module != target:
                raise InputError("mixed map value has wrong arity or module")
            if not v.is_zero():
                self.terms[(i, j)] = v

    @classmethod
    def zero(cls, gmod, hmod, target):
        return cls(gmod, hmod, target, {})

    def _shape(self):
        return self.gmod, self.hmod, self.target

    def _new(self, terms) -> "MixedMap":
        return MixedMap(self.gmod, self.hmod, self.target, terms)

    @property
    def sources(self) -> tuple:
        return self.gmod, self.hmod

    def value(self, args: tuple) -> PTElem:
        """Value on a pair (i, j) of a g and an h basis index."""
        v = self.terms.get(args)
        return PTElem.zero(self.target, 2) if v is None else v

    def swapped(self) -> "MixedMap":
        """The map with its arguments exchanged: m'(b (x) a) = -(12) m(a (x) b).

        This is the reorientation between a matched-pair action h (x) g -> g
        and the quasi-twilled component g (x) h -> g; it is an involution.
        """
        terms = {
            (j, i): permute(v, swap_dest(2, 0, 1)).scale(-1) for (i, j), v in self.terms.items()
        }
        return MixedMap(self.hmod, self.gmod, self.target, terms)

    def __repr__(self):
        return f"MixedMap({self.gmod.name}(x){self.hmod.name}->{self.target.name})"


class HModuleMap(Sparse):
    """Left H-module map between free modules.

    `terms` maps a source basis index i to the image of e_i, a nonzero
    module element (arity-1 value) of dst; a missing index maps to zero.
    """

    __slots__ = ("src", "dst", "terms")

    def __init__(self, src: FreeModule, dst: FreeModule, terms: dict):
        self.src = src
        self.dst = dst
        self.terms = {}
        for i, m in terms.items():
            if not 0 <= i < src.rank:
                raise InputError("row index out of range")
            if m.module != dst or m.arity != 1:
                raise InputError("row is not a module element of the target")
            if not m.is_zero():
                self.terms[i] = m

    @classmethod
    def zero(cls, src, dst):
        return cls(src, dst, {})

    @classmethod
    def scalar(cls, src, dst, c):
        """e_i -> c e_i for every basis index i of src."""
        return cls(src, dst, {i: dst.elem(i).scale(c) for i in range(src.rank)})

    def _shape(self):
        return self.src, self.dst

    def _new(self, terms) -> "HModuleMap":
        return HModuleMap(self.src, self.dst, terms)

    def __call__(self, m: PTElem) -> PTElem:
        if m.module != self.src or m.arity != 1:
            raise InputError("map applied to element of the wrong module")
        return m.map_module(self.apply_basis, self.dst)

    def apply_basis(self, i: int) -> PTElem:
        return self.terms.get(i) or PTElem.zero(self.dst, 1)

    def as_cochain(self) -> Cochain:
        """The map as an arity-1 block cochain."""
        return Cochain(1, self.src, self.dst, {(i,): m for i, m in self.terms.items()})

    def __repr__(self):
        return f"HModuleMap({self.src.name}->{self.dst.name})"


# -- lifts to the direct sum ----------------------------------------------------


def _part(G: FreeModule, name: str) -> tuple:
    """The part `name` ("g" or "h") of a direct sum, and the index where it starts in G."""
    g, h = G.parts
    return (g, 0) if name == "g" else (h, G.split)


def _part_name(G: FreeModule, module: FreeModule) -> str:
    g, h = G.parts
    if module == g:
        return "g"
    if module == h:
        return "h"
    raise InputError(f"{module.name} is not a part of {G.name}")


def coerce_to_sum(v: PTElem, G: FreeModule, part: str) -> PTElem:
    """A value over the part `part` of G, reinterpreted over G."""
    offset = _part(G, part)[1]
    return v.coerce(G, lambda k: k + offset)


def lift(f: PolyMap, G: FreeModule) -> Cochain:
    """Lift of a block map (a cochain on g or h, or a g (x) h mixed map) into C(g [+] h).

    Slot i shifts its basis indices by the offset of sources[i] in G.  The
    sources must be parts of G in order (all g before all h), so each shifted
    key is non-decreasing: the shuffle sum of the general lift collapses to
    one term on sorted tuples, and the slot action recovers the other orders.
    """
    offsets = tuple(_part(G, _part_name(G, src))[1] for src in f.sources)
    if list(offsets) != sorted(offsets):
        raise InputError(f"lift: the sources are not parts of {G.name} in order")
    tpart = _part_name(G, f.target)
    table = {
        tuple(i + o for i, o in zip(t, offsets)): coerce_to_sum(v, G, tpart)
        for t, v in f.terms.items()
    }
    return Cochain(len(offsets), G, G, table)


def extract_components(F: Cochain) -> dict:
    """Split a C(g [+] h) cochain by (input pattern, target part).

    Returns {(pattern, tpart): {part-index tuple: PTElem over G}} where
    pattern is e.g. ('g','g','h') in sorted-tuple order.  Zero values are
    dropped; missing keys mean zero.
    """
    G = F.source
    cut = G.split
    out = {}
    for t, v in F.terms.items():
        pattern = tuple("g" if i < cut else "h" for i in t)
        local = tuple(i if i < cut else i - cut for i in t)
        vg, vh = v.split_by_part()
        for tpart, piece in (("g", vg), ("h", vh)):
            if not piece.is_zero():
                out.setdefault((pattern, tpart), {})[local] = piece
    return out


def extract_pure(F: Cochain, part: str, tpart: str) -> Cochain:
    """The block of F with every input in `part` and values in `tpart`, as a
    block cochain; a component of F outside that block raises InputError."""
    G = F.source
    src, offset = _part(G, part)
    tgt, toffset = _part(G, tpart)
    cut = G.split
    keep = 0 if tpart == "g" else 1
    table = {}
    for t, v in F.terms.items():
        pieces = v.split_by_part()
        if pieces[1 - keep] or any((i < cut) != (part == "g") for i in t):
            raise InputError(f"cochain has a component outside the {part} -> {tpart} block at {t}")
        table[tuple(i - offset for i in t)] = pieces[keep].coerce(tgt, lambda k: k - toffset)
    return Cochain(F.arity, src, tgt, table)


# -- seeded random values ---------------------------------------------------------


def random_ptelem(rng, module: FreeModule, arity: int, max_deg=2) -> PTElem:
    """Small random canonical value of up to two terms; coefficients in {-2..2}."""
    alg = module.alg
    terms = {}
    for _ in range(2):
        total = rng.randint(0, max_deg)
        weights = [rng.randint(0, total) for _ in range(arity)]
        cuts = sorted(rng.randint(0, total) for _ in range(arity - 1)) + [total]
        degs = [b - a for a, b in zip([0] + cuts[:-1], cuts)]

        def rand_mi(d):
            mi = [0] * alg.dim
            for _ in range(d):
                mi[rng.randrange(alg.dim)] += 1
            return tuple(mi)

        slots = tuple(rand_mi(d) for d in degs[: arity - 1])
        K = rand_mi(degs[arity - 1])
        c = rng.choice([-2, -1, 1, 2])
        key = (slots, K, rng.randrange(module.rank)) if module.rank else None
        if key is None:
            continue
        terms[key] = terms.get(key, 0) + c
    return PTElem(module, arity, terms)


def random_cochain(rng, source, target, arity, max_deg=2) -> Cochain:
    """Seeded random skew cochain (total skew-symmetrization of raw values)."""
    cache = {}

    def raw(t):
        if t not in cache:
            cache[t] = random_ptelem(rng, target, arity, max_deg=max_deg)
        return cache[t]

    return skew_symmetrize(arity, source, target, raw)
