"""Cochain calculus: skew action, circle/NR products, bidegrees, lifts."""

import itertools
import random
from fractions import Fraction

import pytest

from pseudoalg import cochains, zoo
from pseudoalg.hopf import InputError, LieAlgebra
from pseudoalg.ptensor import FreeModule, PTElem, perm_sign, permute
from pseudoalg.cochains import (
    Cochain,
    MixedMap,
    circle,
    extract_components,
    extract_pure,
    insert_value,
    lift,
    nr_bracket,
    random_cochain,
    random_ptelem,
    shuffles,
    skew_check,
    sorted_tuples,
)

from conftest import count_insertions, pt, term_order_digest, vir_value


@pytest.fixture
def gm(qd):
    return FreeModule("g", ["x"], qd)


@pytest.fixture
def hm(qd):
    return FreeModule("h", ["u"], qd)


@pytest.fixture
def mu(gm):
    return Cochain(2, gm, gm, {(0, 0): vir_value(gm)})


def scalar_id(gm, c):
    return Cochain(1, gm, gm, {(0,): PTElem(gm, 1, {((), (0,), 0): Fraction(c)})})


# -- skew checks -----------------------------------------------------------------


def test_skew_check_pass(mu):
    assert skew_check(mu) == []


def test_skew_check_symmetric_fails(gm):
    beta = Cochain(2, gm, gm, {(0, 0): pt(gm, [(0, 0, 0, 0, 1)])})
    fails = skew_check(beta)
    assert len(fails) == 1
    assert fails[0][2] == pt(gm, [(0, 0, 0, 0, 2)])


def test_skew_check_zero(gm):
    assert skew_check(Cochain.zero(3, gm, gm)) == []


def test_random_cochains_are_skew(gm, rng):
    for arity in (1, 2, 3):
        f = random_cochain(rng, gm, gm, arity, max_deg=2)
        assert skew_check(f) == []


# -- circle and NR ------------------------------------------------------------------


def test_circle_composition_case(gm):
    assert circle(scalar_id(gm, 2), scalar_id(gm, 3)) == scalar_id(gm, 6)


def test_circle_virasoro_with_scalar(gm, mu):
    got = circle(mu, scalar_id(gm, 5))
    assert got.value((0, 0)) == vir_value(gm, scale=10)


def test_circle_zero(gm, mu):
    assert circle(mu, Cochain.zero(1, gm, gm)).is_zero()


def test_nr_self_bracket_virasoro(mu):
    # [mu, mu] = 0 is the Jacobi identity
    assert nr_bracket(mu, mu).is_zero()


def _copy(f: Cochain) -> Cochain:
    """An equal cochain that is not f, so nr_bracket takes its general path."""
    return Cochain(f.arity, f.source, f.target, dict(f.terms))


def test_nr_even_degree_self_bracket(gm, rng):
    # arity p odd => degree p-1 even => [f, f] = 0 by graded antisymmetry;
    # nr_bracket(f, f) returns zero by that identity, so the copy checks it
    m2 = FreeModule("m", ["e0", "e1"], gm.alg)
    f = random_cochain(rng, m2, m2, 3, max_deg=1)
    assert not f.is_zero()
    assert nr_bracket(f, f).is_zero()
    assert nr_bracket(f, _copy(f)).is_zero()
    assert nr_bracket(f, Cochain.zero(3, m2, m2)).is_zero()


@pytest.mark.parametrize("base", ["qd", "b2"])
def test_nr_self_bracket_equals_bracket_with_copy(base, request, rng):
    m2 = FreeModule("m", ["e0", "e1"], request.getfixturevalue(base))
    f = random_cochain(rng, m2, m2, 2, max_deg=1)
    got = nr_bracket(f, f)
    assert not got.is_zero()
    assert got == nr_bracket(f, _copy(f))
    assert got == circle(f, f).scale(2)


# The per-shuffle circle product and NR bracket the production code replaced:
# each composite is placed with permute, signed and added to a running sum.


def _circle_reference(f: Cochain, g: Cochain) -> Cochain:
    p, q = f.arity, g.arity
    n = p + q - 1
    mod = f.source
    table = {}
    for t in sorted_tuples(mod.rank, n):
        acc = PTElem.zero(mod, n)
        for sigma, _sign in shuffles(q, p - 1):
            inner = g.value(tuple(t[sigma[i]] for i in range(q)))
            if inner.is_zero():
                continue
            composite = insert_value(f, (), inner, tuple(t[sigma[i]] for i in range(q, n)))
            acc = acc + permute(composite, sigma).scale(perm_sign(sigma))
        table[t] = acc
    return Cochain(n, mod, mod, table)


def test_shuffle_signs_are_perm_signs():
    # the closed-form sign of each (q, r)-shuffle is the parity of its placement
    for q in range(5):
        for r in range(5):
            signed = list(shuffles(q, r))
            assert len(signed) == len({sigma for sigma, _sign in signed})
            assert all(sign == perm_sign(sigma) for sigma, sign in signed), (q, r)


def _nr_reference(f: Cochain, g: Cochain) -> Cochain:
    sign = (-1) ** ((f.arity - 1) * (g.arity - 1))
    return _circle_reference(f, g) + _circle_reference(g, f).scale(-sign)


def test_circle_and_nr_match_per_shuffle_reference_on_zoo():
    # Cochain equality compares term dicts, so term order is not compared
    for entry in zoo.zoo_structures():
        om = entry["Q"].omega()
        reference = _nr_reference(om, om)
        assert nr_bracket(om, om) == reference, entry["name"]
        assert nr_bracket(om, _copy(om)) == reference, entry["name"]
        assert circle(om, om) == _circle_reference(om, om), entry["name"]


@pytest.mark.parametrize("base", ["qd", "b2"])
def test_circle_and_nr_match_per_shuffle_reference_random(base, request, rng):
    m2 = FreeModule("m", ["e0", "e1"], request.getfixturevalue(base))
    fs = [random_cochain(rng, m2, m2, a, max_deg=1) for a in (1, 2, 3)]
    for f, g in itertools.product(fs, repeat=2):
        where = (f.arity, g.arity)
        assert circle(f, g) == _circle_reference(f, g), where
        assert nr_bracket(f, g) == _nr_reference(f, g), where


def _sparse_cochain(rng, mod, arity) -> Cochain:
    """A skew cochain whose raw values sit on one to three sorted tuples only."""
    chosen = rng.sample(list(sorted_tuples(mod.rank, arity)), rng.randint(1, 3))
    raw = {t: random_ptelem(rng, mod, arity, max_deg=1) for t in chosen}
    zero = PTElem.zero(mod, arity)
    return cochains.skew_symmetrize(arity, mod, mod, lambda t: raw.get(t, zero))


@pytest.mark.parametrize("base", ["qd", "b2"])
@pytest.mark.parametrize("rank", [3, 4])
def test_circle_and_nr_match_reference_on_sparse_cochains(base, rank, request, rng):
    # sparse supports on a wider module are where the support-driven visit
    # skips most output tuples; the per-shuffle reference visits them all
    mod = FreeModule("m", [f"e{i}" for i in range(rank)], request.getfixturevalue(base))
    fs = [_sparse_cochain(rng, mod, a) for a in (1, 2, 3) for _ in range(2)]
    nonzero = 0
    for f, g in itertools.product(fs, repeat=2):
        where = (f.arity, sorted(f.terms), g.arity, sorted(g.terms))
        got = circle(f, g)
        assert got == _circle_reference(f, g), where
        assert nr_bracket(f, g) == _nr_reference(f, g), where
        nonzero += not got.is_zero()
    assert 2 * nonzero > len(fs) ** 2, nonzero  # most products are nonzero


@pytest.mark.parametrize("base", ["qd", "b2"])
def test_circle_of_supports_that_cannot_meet_makes_no_insertion(base, request, monkeypatch):
    # g takes values in e2 and f in e0, but f is stored only on (0, 1) and g
    # only on (2, 3): neither can take the other's value as an argument
    mod = FreeModule("m", ["e0", "e1", "e2", "e3"], request.getfixturevalue(base))
    one = mod.alg.zero_index
    f = Cochain(2, mod, mod, {(0, 1): PTElem(mod, 2, {((one,), one, 0): 1})})
    g = Cochain(2, mod, mod, {(2, 3): PTElem(mod, 2, {((one,), one, 2): 1})})
    insertions = count_insertions(monkeypatch, cochains)
    assert circle(f, g).is_zero() and circle(g, f).is_zero()
    assert nr_bracket(f, g) == Cochain.zero(3, mod, mod)
    assert insertions == []
    assert _nr_reference(f, g).is_zero()


def test_self_bracket_insertion_and_permute_counts(reynolds_q, monkeypatch):
    # counts catch what timings hide: the self-bracket makes one circle
    # product, and no composite goes through permute on its own
    om = reynolds_q.omega()
    insertions = []
    permuted_arities = []
    real_insert, real_permute = cochains.insert_raw, cochains.permute

    def counting_insert(*args):
        insertions.append(1)
        return real_insert(*args)

    def recording_permute(e, dest):
        permuted_arities.append(e.arity)
        return real_permute(e, dest)

    monkeypatch.setattr(cochains, "insert_raw", counting_insert)
    monkeypatch.setattr(cochains, "permute", recording_permute)
    self_bracket = nr_bracket(om, om)
    n_self = len(insertions)
    insertions.clear()
    copy_bracket = nr_bracket(om, _copy(om))
    assert n_self > 0
    assert 2 * n_self == len(insertions)
    assert self_bracket == copy_bracket
    circle(om, om)
    # Cochain.value permutes stored values of arity 2; a composite has arity 3
    assert set(permuted_arities) <= {om.arity}


def test_rank1_self_bracket_makes_one_insertion(mu, monkeypatch):
    # the three shuffles of the one output tuple (0, 0, 0) give one composite
    insertions = count_insertions(monkeypatch, cochains)
    got = nr_bracket(mu, mu)
    assert len(insertions) == 1
    assert got == _nr_reference(mu, mu)


def _reachable(t, plans) -> bool:
    """Whether some shuffle of t has a nonzero inner value g(head) and a
    module index k of it with outer(k, tail) stored, tested shuffle by shuffle."""
    for outer, inner in plans:
        q = inner.arity
        for sigma, _sign in shuffles(q, outer.arity - 1):
            head = inner.value(tuple(t[i] for i in sigma[:q]))
            tail = tuple(t[i] for i in sigma[q:])
            if any(tuple(sorted((k,) + tail)) in outer.terms for _s, _K, k in head.terms):
                return True
    return False


@pytest.mark.parametrize("base", ["qd", "b2"])
def test_rank2_insertions_are_distinct_nonzero_keys(base, request, rng, monkeypatch):
    m2 = FreeModule("m", ["e0", "e1"], request.getfixturevalue(base))
    fs = [random_cochain(rng, m2, m2, a, max_deg=1) for a in (1, 2, 3)]
    insertions = count_insertions(monkeypatch, cochains)
    for f, g in itertools.product(fs, repeat=2):
        plans = [(f, g), (g, f)] if f is not g else [(f, f)]
        n = f.arity + g.arity - 1
        keys = {
            (index, t, tuple(t[i] for i in sigma))
            for t in sorted_tuples(2, n)
            if _reachable(t, plans)
            for index, (outer, inner) in enumerate(plans)
            for sigma, _sign in shuffles(inner.arity, outer.arity - 1)
            if inner.value(tuple(t[i] for i in sigma[: inner.arity]))
        }
        insertions.clear()
        nr_bracket(f, g)
        if f is g and f.arity % 2:
            assert insertions == [], f.arity
        else:
            assert len(insertions) == len(keys), (f.arity, g.arity)


# sha256 (see conftest.term_order_digest) of the nested term order of the
# self-brackets of every zoo Omega, and of the brackets of random rank-2
# cochains; a change to the order in which raw terms are emitted or
# canonicalized changes them even where the values stay equal
NR_TERM_ORDER_ZOO = "cff6369ac3b08a7046108c46a8fff1601233ca9aecb4cfeb935d31430a833243"
NR_TERM_ORDER_RANK2 = "6eb7a903f1a2162a6c70d1f668541fa9c8d66947c0cde61e792f6f90914fc62b"


def test_nr_bracket_term_order_is_pinned(qd, b2, rng):
    oms = [entry["Q"].omega() for entry in zoo.zoo_structures()]
    assert term_order_digest([nr_bracket(om, om) for om in oms]) == NR_TERM_ORDER_ZOO
    values = []
    for alg in (qd, b2):
        m2 = FreeModule("m", ["e0", "e1"], alg)
        fs = [random_cochain(rng, m2, m2, a, max_deg=1) for a in (1, 2, 3)]
        values += [nr_bracket(f, g) for f, g in itertools.product(fs, repeat=2)]
        values += [nr_bracket(f, f) for f in fs]
    assert term_order_digest(values) == NR_TERM_ORDER_RANK2


def test_nr_graded_antisymmetry_and_jacobi(qd, rng):
    m2 = FreeModule("m", ["e0", "e1"], qd)
    fs = [random_cochain(rng, m2, m2, a, max_deg=1) for a in (1, 2, 2, 3)]
    for f, g in itertools.combinations(fs, 2):
        s = (-1) ** ((f.arity - 1) * (g.arity - 1))
        assert nr_bracket(f, g) == nr_bracket(g, f).scale(-s)
    for f, g, h in itertools.combinations(fs, 3):
        p, q, r = f.arity - 1, g.arity - 1, h.arity - 1
        acc = (
            nr_bracket(nr_bracket(f, g), h).scale((-1) ** (p * r))
            + nr_bracket(nr_bracket(g, h), f).scale((-1) ** (q * p))
            + nr_bracket(nr_bracket(h, f), g).scale((-1) ** (r * q))
        )
        assert acc.is_zero()


def test_nr_outputs_skew(gm, rng):
    f = random_cochain(rng, gm, gm, 2, max_deg=2)
    g = random_cochain(rng, gm, gm, 2, max_deg=2)
    assert skew_check(nr_bracket(f, g)) == []
    assert skew_check(circle(f, g)) == []


# -- lifts and bidegree ---------------------------------------------------------------


def test_lift_mixed_matches_shuffle_formula(qd, rng):
    g = FreeModule("g", ["x", "y"], qd)
    h = FreeModule("h", ["u"], qd)
    G = FreeModule.direct_sum(g, h)
    alpha = MixedMap(g, h, g, {(i, 0): random_ptelem(rng, g, 2, max_deg=2) for i in range(2)})
    al = lift(alpha, G)
    assert skew_check(al) == []
    x1 = G.elem(0, qd.gen(0))
    u1 = G.elem(2, qd.unit())
    x2 = G.elem(1, qd.unit().scale(3))
    u2 = G.elem(2, qd.gen(0))
    lhs = al.eval([x1 + u1, x2 + u2])
    t1 = alpha.eval([g.elem(0, qd.gen(0)), h.elem(0, qd.gen(0))])
    t2 = alpha.eval([g.elem(1, qd.unit().scale(3)), h.elem(0, qd.unit())])
    rhs = t1.coerce(G) - permute(t2.coerce(G), (1, 0))
    assert lhs == rhs


def test_lift_zero_and_extract_roundtrip(qd, rng):
    g = FreeModule("g", ["x"], qd)
    h = FreeModule("h", ["u"], qd)
    G = FreeModule.direct_sum(g, h)
    assert lift(MixedMap.zero(g, h, g), G).is_zero()
    theta = random_cochain(rng, g, h, 2, max_deg=2)
    th = lift(theta, G)
    assert extract_pure(th, "g", "h") == theta
    rho = MixedMap(g, h, h, {(0, 0): random_ptelem(rng, h, 2, max_deg=2)})
    ((key, entries),) = extract_components(lift(rho, G)).items()
    back = {t: v.coerce(h, lambda k: k - G.split) for t, v in entries.items()}
    assert key == (("g", "h"), "h") and MixedMap(g, h, h, back) == rho
    # lift of theta evaluated on pure-g arguments is theta; elsewhere zero
    comps = extract_components(th)
    assert set(comps) <= {(("g", "g"), "h")}


def test_extract_pure_refuses_a_stray_block(qd):
    # a component outside the requested block is an error, never dropped
    g = FreeModule("g", ["x"], qd)
    h = FreeModule("h", ["u"], qd)
    G = FreeModule.direct_sum(g, h)
    theta = Cochain(2, g, h, {(0, 0): vir_value(h)})
    pi = Cochain(2, g, g, {(0, 0): vir_value(g)})
    eta = MixedMap(g, h, g, {(0, 0): pt(g, [(0, 1, 0, 0, 1)])})
    with pytest.raises(InputError):
        extract_pure(lift(theta, G) + lift(pi, G), "g", "h")  # stray target part
    with pytest.raises(InputError):
        extract_pure(lift(theta, G) + lift(eta, G), "g", "h")  # stray input pattern
    assert extract_pure(lift(theta, G), "g", "h") == theta


def test_lift_refuses_sources_out_of_order(qd, rng):
    # lift shifts slot i by the offset of sources[i] in G; the keys stay
    # non-decreasing only when the sources are G's parts in order
    g = FreeModule("g", ["x"], qd)
    h = FreeModule("h", ["u"], qd)
    G = FreeModule.direct_sum(g, h)
    rho = MixedMap(g, h, h, {(0, 0): random_ptelem(rng, h, 2, max_deg=2)})
    assert lift(rho, G)
    with pytest.raises(InputError):
        lift(rho.swapped(), G)
    with pytest.raises(InputError):
        lift(Cochain(1, FreeModule("f", ["z"], qd), g, {}), G)


INHOMOGENEOUS = "inhomogeneous"
ZERO_BIDEGREE = "inhomogeneous-zero"


def bidegree_of(f: Cochain):
    """Bidegree k|l of a cochain on g [+] h, or an inhomogeneity marker.

    Case (i) blocks g^{k+1} h^l land in g; case (ii) blocks g^k h^{l+1} land
    in h; a homogeneous cochain touches only blocks of one (k, l).
    """
    candidates = set()
    for (pattern, tpart), entries in extract_components(f).items():
        if not entries:
            continue
        a = sum(1 for p in pattern if p == "g")
        b = len(pattern) - a
        if tpart == "g":
            candidates.add((a - 1, b))
        else:
            candidates.add((a, b - 1))
    if not candidates:
        return ZERO_BIDEGREE
    if len(candidates) == 1:
        return candidates.pop()
    return INHOMOGENEOUS


def test_bidegrees(qd, rng):
    g = FreeModule("g", ["x"], qd)
    h = FreeModule("h", ["u"], qd)
    G = FreeModule.direct_sum(g, h)
    # NOTE: the paper's prose asserts 1|0 for the g-valued mixed lift, but its
    # own bidegree definition gives 0|1 (and must, for the two vanishing
    # lemmas to hold).
    alpha = lift(MixedMap(g, h, g, {(0, 0): random_ptelem(rng, g, 2)}), G)
    beta = lift(MixedMap(g, h, h, {(0, 0): random_ptelem(rng, h, 2)}), G)
    assert bidegree_of(alpha) == (0, 1)
    assert bidegree_of(beta) == (1, 0)
    theta = lift(Cochain(2, g, h, {(0, 0): vir_value(h)}), G)
    assert bidegree_of(theta) == (2, -1)
    assert bidegree_of(Cochain.zero(2, G, G)) == ZERO_BIDEGREE
    assert bidegree_of(alpha + theta) == INHOMOGENEOUS


def test_bidegree_additivity_and_vanishing(qd, rng):
    g = FreeModule("g", ["x"], qd)
    h = FreeModule("h", ["u"], qd)
    G = FreeModule.direct_sum(g, h)
    eta = lift(MixedMap(g, h, g, {(0, 0): random_ptelem(rng, g, 2)}), G)
    theta = lift(random_cochain(rng, g, h, 2, max_deg=2), G)
    br = nr_bracket(eta, theta)
    if not br.is_zero():
        assert bidegree_of(br) == (2, 0)  # (0|1) + (2|-1)
    # vanishing lemma: two maps with l = -1 bracket to zero
    d1 = lift(random_cochain(rng, g, h, 1, max_deg=2), G)
    d2 = lift(random_cochain(rng, g, h, 2, max_deg=2), G)
    assert bidegree_of(d1) == (1, -1)
    assert nr_bracket(d1, d2).is_zero()
    # and symmetrically with k = -1
    t1 = lift(random_cochain(rng, h, g, 1, max_deg=2), G)
    t2 = lift(random_cochain(rng, h, g, 2, max_deg=2), G)
    assert bidegree_of(t1) == (-1, 1)
    assert nr_bracket(t1, t2).is_zero()


def test_eval_checks_argument_modules():
    # both kinds of map refuse an argument from a module other than the
    # source of its slot (InputError, exit 2 through pa), and an argument
    # that is not a module element
    Q = zoo.demo_bundle(zoo.CROSSED_HOM)["Q"]
    x, u = Q.g.elem(0), Q.h.elem(0)
    assert Q.rho.eval([x, u]) == Q.rho.value((0, 0)) and Q.rho.eval([x, u])
    other = FreeModule("f", ["z"], Q.g.alg).elem(0)
    for args in ((u, x), (other, u), (x, other), (x, Q.rho.value((0, 0)))):
        with pytest.raises(InputError):
            Q.rho.eval(args)
    for args in ([x, u], [other, x], [x]):
        with pytest.raises(InputError):
            Q.pi.eval(args)


def test_mixed_map_value_builds_a_zero_only_on_a_miss(monkeypatch):
    # a stored value is returned as it is; the zero of a missing pair is the
    # only PTElem a lookup constructs
    g = FreeModule("g", ["x", "y"], LieAlgebra.abelian(["d"]))
    stored = random_ptelem(random.Random(0), g, 2)
    rho = MixedMap(g, g, g, {(0, 1): stored})
    assert rho.terms[(0, 1)] is stored
    built = []
    init = PTElem.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PTElem, "__init__", counting_init)
    assert rho.value((0, 1)) is stored
    assert built == []
    assert rho.value((1, 0)).is_zero() and len(built) == 1


def test_eval_h_linearity(gm, mu, qd, rng):
    # eval on h-scaled arguments equals act of the coefficients
    from pseudoalg.hopf import HTensor
    from pseudoalg.ptensor import act

    h1 = qd.mono((2,)).scale(3) + qd.unit()
    h2 = qd.gen(0)
    lhs = mu.eval([gm.elem(0, h1), gm.elem(0, h2)])
    rhs = act(HTensor.from_legs([h1, h2]), mu.value((0, 0)))
    assert lhs == rhs


def test_value_on_unsorted_args(qd, rng):
    m2 = FreeModule("m", ["e0", "e1"], qd)
    f = random_cochain(rng, m2, m2, 2, max_deg=2)
    v01 = f.value((0, 1))
    v10 = f.value((1, 0))
    assert v10 == permute(v01, (1, 0)).scale(-1)


def test_cochain_sub_is_add_of_negative_scale(qd, rng):
    # direct subtraction: the values and the term order of self + other.scale(-1)
    m2 = FreeModule("m", ["e0", "e1"], qd)
    f = random_cochain(rng, m2, m2, 2, max_deg=2)
    g = random_cochain(rng, m2, m2, 2, max_deg=2)
    h = Cochain(2, m2, m2, {t: v for t, v in g.terms.items() if t != (0, 0)})
    for a, b in ((f, g), (f, h), (h, f), (f, f)):
        got, expected = a - b, a + b.scale(-1)
        assert list(got.terms) == list(expected.terms)
        for t, v in expected.terms.items():
            assert list(got.terms[t].terms.items()) == list(v.terms.items())
    with pytest.raises(InputError):
        f - random_cochain(rng, m2, m2, 1)


def test_cochain_table_must_be_sorted(gm, hm, rng):
    with pytest.raises(InputError):
        Cochain(2, FreeModule("m", ["a", "b"], gm.alg), gm, {(1, 0): PTElem.zero(gm, 2)})
