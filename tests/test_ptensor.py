"""Canonical forms and slot operations on H^{(x)n} (x)_H M."""

import itertools
import operator
import random
from fractions import Fraction

import pytest
from sympy import QQ
from sympy.polys.rings import ring

from pseudoalg import ptensor
from pseudoalg.hopf import HElem, HTensor, InputError, LieAlgebra, Sparse
from pseudoalg.ptensor import (
    FreeModule,
    PTElem,
    _explicit_terms,
    act,
    canonicalize,
    perm_sign,
    permute,
    placed,
    swap_dest,
)
from pseudoalg.cochains import Cochain, MixedMap, random_cochain, random_ptelem
from pseudoalg.deformation import HModuleMap
from pseudoalg.zoo import nonabelian_2dim, random_hmap

from conftest import count_calls, pt, vir_value
from oracles import antipode, coproduct_iter, tensor_mul


def _four_terms(rng, module, arity, max_deg):
    """A random value of up to four terms: the sum of two random_ptelem draws."""
    return random_ptelem(rng, module, arity, max_deg) + random_ptelem(rng, module, arity, max_deg)


@pytest.fixture
def M(qd):
    return FreeModule("M", ["x"], qd)


def test_canonicalize_by_hand(qd, M):
    # (1 (x) d) (x)_H x = -(d (x) 1) (x)_H x + (1 (x) 1) (x)_H d x
    got = canonicalize(M, 2, [(((0,), (1,)), (0,), 0, Fraction(1))])
    expect = pt(M, [(1, 0, 0, 0, -1), (0, 0, 1, 0, 1)])
    assert got == expect


def test_canonicalize_trivial_cases(qd, M):
    h_first = canonicalize(M, 2, [(((3,), (0,)), (1,), 0, Fraction(2))])
    assert h_first == PTElem(M, 2, {(((3,),), (1,), 0): Fraction(2)})
    unit = canonicalize(M, 2, [(((0,), (0,)), (0,), 0, Fraction(1))])
    assert unit == PTElem(M, 2, {(((0,),), (0,), 0): Fraction(1)})


def test_canonicalize_idempotent_random(qd, M, rng):
    for _ in range(20):
        e = random_ptelem(rng, M, 3, max_deg=3)
        raw = [(s + ((0,),), K, k, c) for (s, K, k), c in e.terms.items()]
        assert canonicalize(M, 3, raw) == e


def test_canonicalize_nonabelian(b2):
    # last-slot straightening exercises both antipode and straightening
    M = FreeModule("M", ["m"], b2)
    raw = [(((0, 0), (1, 1)), (0, 0), 0, Fraction(1))]
    got = canonicalize(M, 2, raw)
    # check against the defining relation by re-expanding: move a^(1,1) out
    # of the module slot: (1 (x) a^(1,1)) (x) m = sum (S(a_(1)) (x) 1) a_(2) m
    acc = PTElem(M, 2, {})
    for (K1, K2), c in coproduct_iter(b2.mono((1, 1)), 1).terms.items():
        s = antipode(b2.mono(K1))
        for L, cl in s.terms.items():
            acc = acc + PTElem(M, 2, {(((L),), K2, 0): c * cl})
    assert got == acc


def test_virasoro_canonical_form(qd, M):
    e = vir_value(M)
    assert e == PTElem(M, 2, {(((1,),), (0,), 0): 2, (((0,),), (1,), 0): -1})
    assert e == permute(e, swap_dest(2, 0, 1)).scale(-1)


def test_act_examples(qd, M):
    base = pt(M, [(0, 0, 0, 0, 1)])
    assert act(HTensor.unit(qd, 2), base) == base
    first = act(HTensor(qd, 2, {((1,), (0,)): 1}), base)
    assert first == pt(M, [(1, 0, 0, 0, 1)])
    second = act(HTensor(qd, 2, {((0,), (1,)): 1}), base)
    assert second == pt(M, [(1, 0, 0, 0, -1), (0, 0, 1, 0, 1)])


def test_unit_act_returns_its_argument(qd, b2, rng):
    # the unit tensor skips straightening: the value itself comes back
    for alg in (qd, b2):
        m2 = FreeModule("m", ["e0", "e1"], alg)
        for n in (1, 2, 3):
            e = _four_terms(rng, m2, n, 2)
            assert act(HTensor.unit(alg, n), e) is e
            assert act(HTensor.unit(alg, n).scale(2), e) == e.scale(2)


def test_basis_evaluation_makes_no_canonicalize_call(qd, rng, monkeypatch):
    # eval on basis elements acts by the unit tensor on stored values only
    g = FreeModule("g", ["x", "y"], qd)
    h = FreeModule("h", ["u"], qd)
    m = MixedMap(g, h, g, {(i, 0): random_ptelem(rng, g, 2, max_deg=2) for i in range(2)})
    f = random_cochain(rng, g, g, 2, max_deg=2)
    expected = [m.value((i, 0)) for i in range(2)]
    calls = []
    real = ptensor.canonicalize

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(ptensor, "canonicalize", counting)
    assert [m.eval([g.elem(i), h.elem(0)]) for i in range(2)] == expected
    assert f.eval([g.elem(0), g.elem(1)]) == f.value((0, 1))
    assert calls == []


def test_module_and_algebra_equality(qd, b2):
    # an object equals itself without a structural comparison; distinct
    # objects still compare by name, basis and brackets
    assert qd == qd and b2 == b2
    assert LieAlgebra.abelian(["d"]) == qd
    assert LieAlgebra(["a1", "a2"], {(0, 1): {1: 1}}) == b2
    assert LieAlgebra.abelian(["a1", "a2"]) != b2
    assert LieAlgebra.abelian(["e"]) != qd
    m = FreeModule("m", ["e0", "e1"], b2)
    assert m == m
    assert FreeModule("m", ["e0", "e1"], LieAlgebra(["a1", "a2"], {(0, 1): {1: 1}})) == m
    assert FreeModule("n", ["e0", "e1"], b2) != m
    assert FreeModule("m", ["e0", "f1"], b2) != m
    assert FreeModule("m", ["e0", "e1"], LieAlgebra.abelian(["a1", "a2"])) != m


def test_act_is_module_action(qd, M, rng):
    for _ in range(10):
        e = random_ptelem(rng, M, 2, max_deg=2)
        c1 = HTensor(qd, 2, {((rng.randint(0, 2),), (rng.randint(0, 2),)): Fraction(rng.randint(1, 3))})
        c2 = HTensor(qd, 2, {((rng.randint(0, 2),), (rng.randint(0, 2),)): Fraction(rng.randint(1, 3))})
        assert act(tensor_mul(c1, c2), e) == act(c1, act(c2, e))


def test_permute_involution_and_identity(qd, M, rng):
    e = random_ptelem(rng, M, 2, max_deg=3)
    assert permute(e, (0, 1)) == e
    assert permute(permute(e, (1, 0)), (1, 0)) == e


def test_permute_group_homomorphism(qd, M, rng):
    # contents-move placement arrays compose covariantly on all of S3
    for _ in range(4):
        e = random_ptelem(rng, M, 3, max_deg=2)
        for sigma in itertools.permutations(range(3)):
            for tau in itertools.permutations(range(3)):
                compose = tuple(sigma[tau[j]] for j in range(3))
                assert permute(e, compose) == permute(permute(e, tau), sigma)


def test_act_permute_compatibility(qd, M, rng):
    # (sigma (x)_H id) act(c) = act(sigma(c)) (sigma (x)_H id)
    for _ in range(6):
        e = random_ptelem(rng, M, 3, max_deg=2)
        c = HTensor(
            qd,
            3,
            {
                (
                    (rng.randint(0, 2),),
                    (rng.randint(0, 2),),
                    (rng.randint(0, 2),),
                ): Fraction(rng.randint(1, 2))
            },
        )
        for sigma in itertools.permutations(range(3)):
            moved_c = HTensor(
                qd,
                3,
                {
                    tuple(K[[sigma.index(i) for i in range(3)][j]] for j in range(3)): v
                    for K, v in c.terms.items()
                },
            )
            lhs = permute(act(c, e), sigma)
            rhs = act(moved_c, permute(e, sigma))
            assert lhs == rhs


def _ordered(v):
    """The terms of a linear value in their order, nested values included."""
    if isinstance(v, Sparse):
        return [(k, _ordered(c)) for k, c in v.terms.items()]
    return v


def _sparse_cases(b2, rng):
    """(e, f, zero) triples of one shape, for every class built on hopf.Sparse."""
    M2 = FreeModule("M2", ["x", "y"], b2)

    def helem():
        terms = {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-2, 2) for _ in range(4)}
        return HElem(b2, terms)

    def melem():
        return M2.elem(0, helem()) + M2.elem(1, helem())

    def mixed():
        return MixedMap(M2, M2, M2, {(i, j): random_ptelem(rng, M2, 2) for i in range(2) for j in range(2)})

    cases = [(helem(), helem(), b2.zero()), (melem(), melem(), PTElem.zero(M2, 1))]
    for arity in (1, 2, 3):
        e = _four_terms(rng, M2, arity, 2)
        f = _four_terms(rng, M2, arity, 2)
        cases.append((e, f, PTElem.zero(M2, arity)))
        s, t = (HTensor.from_legs([helem() for _ in range(arity)]) for _ in range(2))
        cases.append((s, t, HTensor(b2, arity, {})))
    for arity in (1, 2):
        f, g = (random_cochain(rng, M2, M2, arity, max_deg=1) for _ in range(2))
        cases.append((f, g, Cochain.zero(arity, M2, M2)))
    cases.append((mixed(), mixed(), MixedMap.zero(M2, M2, M2)))
    cases.append((random_hmap(rng, M2, M2), random_hmap(rng, M2, M2), HModuleMap.zero(M2, M2)))
    return cases


def test_sub_is_add_of_negative(b2, rng):
    # direct subtraction: the values and the term order of self + (-other),
    # nested values included, for every class of linear combinations built
    # on hopf.Sparse
    for e, f, zero in _sparse_cases(b2, rng):
        for a, b in ((e, f), (f, e), (e, e), (e, zero)):
            got, expected = a - b, a + (-b)
            assert _ordered(got) == _ordered(expected)
            assert not (a - a) and (a - a) == zero


def test_scalar_times_value_is_scale(b2, rng):
    for e, _f, zero in _sparse_cases(b2, rng):
        for c in (3, -1, Fraction(-2, 3), 0):
            assert _ordered(c * e) == _ordered(e.scale(c))
        assert 0 * e == zero


def test_sparse_shapes_do_not_mix(qd, b2, rng):
    M2 = FreeModule("M2", ["x", "y"], b2)
    N2 = FreeModule("N2", ["x", "y"], b2)
    f2 = random_cochain(rng, M2, M2, 2, max_deg=1)
    v2 = random_ptelem(rng, M2, 2)
    w2 = random_ptelem(rng, N2, 2)
    m = M2.elem(0, b2.unit())
    mismatched = [
        (b2.unit(), qd.unit()),
        (HTensor.unit(b2, 2), HTensor.unit(qd, 2)),
        (HTensor.unit(b2, 2), HTensor.unit(b2, 3)),
        (random_ptelem(rng, M2, 2), random_ptelem(rng, M2, 3)),
        (random_ptelem(rng, M2, 2), random_ptelem(rng, N2, 2)),
        (b2.unit(), HTensor.unit(b2, 1)),
        (m, N2.elem(0, b2.unit())),
        (f2, random_cochain(rng, M2, M2, 1, max_deg=1)),
        (f2, Cochain(2, N2, M2, {(0, 0): v2})),
        (f2, Cochain(2, M2, N2, {(0, 0): w2})),
        # the same tables over another first module: refused, not read over M2
        (MixedMap(M2, M2, M2, {(0, 0): v2}), MixedMap(N2, M2, M2, {(0, 0): v2})),
        (MixedMap(M2, M2, M2, {(0, 0): v2}), MixedMap(M2, N2, M2, {(0, 0): v2})),
        (MixedMap(M2, M2, M2, {(0, 0): v2}), MixedMap(M2, M2, N2, {(0, 0): w2})),
        (MixedMap(M2, M2, M2, {(0, 1): v2}), Cochain(2, M2, M2, {(0, 1): v2})),
        (HModuleMap(M2, M2, {0: m}), HModuleMap(N2, M2, {0: m})),
        (HModuleMap(M2, M2, {0: m}), HModuleMap(M2, N2, {0: N2.elem(0)})),
    ]
    for a, b in mismatched:
        for op in (operator.add, operator.sub):
            with pytest.raises(InputError):
                op(a, b)
    # values of different classes are never equal, even on the same terms
    v1 = PTElem(M2, 1, {((), (0, 0), 0): 1})
    values = [
        b2.unit(),
        HTensor.unit(b2, 1),
        v1,
        Cochain(1, M2, M2, {(0,): v1}),
        HModuleMap(M2, M2, {0: m}),
        MixedMap(M2, M2, M2, {(0, 0): v2}),
        Cochain(2, M2, M2, {(0, 0): v2}),
    ]
    for a, b in itertools.permutations(values, 2):
        assert (a == b) is False and a != b


def test_placed_then_canonicalize_is_permute(b2, rng):
    M2 = FreeModule("M2", ["x", "y"], b2)
    for arity in (1, 2, 3):
        e = _four_terms(rng, M2, arity, 2)
        for dest in itertools.permutations(range(arity)):
            raw = placed(e, dest, -3)
            assert len(raw) == len(e.terms)
            assert canonicalize(M2, arity, raw) == permute(e, dest).scale(-3)


def test_zero_rank_module(qd):
    Z = FreeModule("Z", [], qd)
    assert PTElem.zero(Z, 2).is_zero()
    assert canonicalize(Z, 2, []).is_zero()
    assert PTElem.zero(Z, 1).is_zero()


def test_arity_mismatch_errors(qd, M, rng):
    e = random_ptelem(rng, M, 2, max_deg=1)
    with pytest.raises(InputError):
        act(HTensor.unit(qd, 3), e)
    with pytest.raises(InputError):
        permute(e, (0, 1, 2))
    with pytest.raises(InputError):
        canonicalize(M, 2, [(((0,),), (0,), 0, Fraction(1))])


def test_perm_sign():
    assert perm_sign((0, 1, 2)) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((1, 2, 0)) == 1


def test_degree_preserved_by_permute(qd, M, rng):
    for _ in range(10):
        e = random_ptelem(rng, M, 3, max_deg=3)
        if e.is_zero():
            continue
        assert permute(e, (2, 0, 1)).degree() == e.degree()


def test_canonicalize_idempotent_nonabelian(b2, rng):
    M = FreeModule("M", ["x", "y"], b2)
    for n in (1, 2, 3):
        for _ in range(10):
            e = _four_terms(rng, M, n, 3)
            again = canonicalize(M, n, _explicit_terms(e))
            assert list(again.terms.items()) == list(e.terms.items())


def _placed_raw(alg, rng):
    """Raw terms of placed random values of arities 1-3 over a rank-2 module:
    [(arity, raw)], with some last slot that is not 1 to straighten."""
    M = FreeModule("M", ["x", "y"], alg)
    out = []
    for n in (1, 2, 3):
        for dest in itertools.permutations(range(n)):
            e = _four_terms(rng, M, n, 3)
            out.append((n, placed(e, dest)))
    assert any(slots[-1] != alg.zero_index for _n, raw in out for slots, *_rest in raw)
    return M, out


@pytest.mark.parametrize("base", ["qd", "b2"])
def test_warm_canonicalize_makes_no_mul_mono_call(base, request, rng, monkeypatch):
    # the straightening of each (slots, K) pair is kept on the algebra, so a
    # second canonicalize of the same raw terms multiplies nothing in H
    alg = request.getfixturevalue(base)
    M, raws = _placed_raw(alg, rng)
    first = [canonicalize(M, n, raw) for n, raw in raws]
    assert alg.term_expansions
    calls = count_calls(monkeypatch, "mul_mono", alg)
    again = [canonicalize(M, n, raw) for n, raw in raws]
    assert calls == []
    assert [list(e.terms.items()) for e in again] == [list(e.terms.items()) for e in first]


@pytest.mark.parametrize("make", [lambda: LieAlgebra.abelian(["d"]), nonabelian_2dim], ids=["qd", "b2"])
def test_warm_and_cold_memos_agree_on_ring_scalars(make):
    # rank-2 evaluates with ring generators as raw coefficients: an algebra
    # whose memo was filled by integer work gives the same terms, in the same
    # order, as a fresh one
    _R, x, y = ring("x y", QQ)
    warm, cold = make(), make()
    Mw, raws = _placed_raw(warm, random.Random(7))
    Mc = FreeModule("M", ["x", "y"], cold)
    for n, raw in raws:
        canonicalize(Mw, n, raw)
    assert warm.term_expansions and not cold.term_expansions
    for n, raw in raws:
        ring_raw = [(slots, K, k, c * x + (1 - c) * y) for slots, K, k, c in raw]
        got_w = canonicalize(Mw, n, ring_raw)
        got_c = canonicalize(Mc, n, ring_raw)
        assert list(got_w.terms.items()) == list(got_c.terms.items())

