"""PBW arithmetic and Hopf axioms, with independently derived oracles."""

import random
from fractions import Fraction
from math import factorial

import pytest

from pseudoalg.hopf import HElem, HTensor, InputError, LieAlgebra

from oracles import antipode, coproduct_iter, tensor_mul


def mono(alg, *K):
    return alg.mono(tuple(K))


# -- products ---------------------------------------------------------------------


def test_divided_power_product_oracle(qd):
    # oracle: expand d^(a) d^(b) = (1/a!b!) d^{a+b} = C(a+b, a) d^(a+b)
    for a in range(5):
        for b in range(5):
            got = mono(qd, a) * mono(qd, b)
            coeff = Fraction(factorial(a + b), factorial(a) * factorial(b))
            assert got == mono(qd, a + b).scale(coeff)


def test_unit_law(qd, b2):
    for alg in (qd, b2):
        a = mono(alg, *([2] + [0] * (alg.dim - 1))) + alg.gen(alg.dim - 1).scale(3)
        assert alg.unit() * a == a
        assert a * alg.unit() == a


def test_nonabelian_straightening_by_hand(b2):
    # a2 a1 = a1 a2 - [a1, a2] = a1 a2 - a2
    got = mono(b2, 0, 1) * mono(b2, 1, 0)
    assert got == mono(b2, 1, 1) - mono(b2, 0, 1)


def test_matrix_representation_oracle(b2):
    # faithful 2x2 rep: a1 = E11, a2 = E12 satisfies [a1,a2] = a2.
    # U(b) acts on polynomials truncated by nilpotency of a2; here we check
    # the product a^(0,1) a^(2,0) against plain-word straightening.
    lhs = mono(b2, 0, 1) * mono(b2, 2, 0)
    # oracle by hand, remembering a^(2,0) = a1^2/2:
    #   a2 a1 = a1 a2 - a2
    #   a2 a1^2 = (a1 a2 - a2) a1 = a1^2 a2 - 2 a1 a2 + a2
    # so a2 a1^2/2 = a^(2,1) - a^(1,1) + a^(0,1)/2
    expect = mono(b2, 2, 1) - mono(b2, 1, 1) + mono(b2, 0, 1).scale(Fraction(1, 2))
    assert lhs == expect


def test_mismatched_base_rejected(qd, b2):
    with pytest.raises(InputError):
        qd.unit() * b2.unit()


def test_bad_structure_constants_rejected():
    with pytest.raises(InputError):
        # sl2 with a corrupted [e,f] = h + e violates Jacobi
        LieAlgebra(
            ["e", "f", "h"],
            {(0, 1): {2: 1, 0: 1}, (2, 0): {0: 2}, (2, 1): {1: -2}},
        )
    with pytest.raises(InputError):
        LieAlgebra(["a", "a"], {})


def _random_helem(rng, alg, max_deg=4, terms=3):
    out = {}
    for _ in range(terms):
        deg = rng.randint(0, max_deg)
        K = [0] * alg.dim
        for _ in range(deg):
            K[rng.randrange(alg.dim)] += 1
        out[tuple(K)] = Fraction(rng.randint(-3, 3))
    return HElem(alg, out)


def test_ring_axioms_random(qd, b2, rng):
    for alg in (qd, b2):
        for _ in range(12):
            a = _random_helem(rng, alg)
            b = _random_helem(rng, alg)
            c = _random_helem(rng, alg)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c


# -- coproduct, counit, antipode ----------------------------------------------------


def test_coproduct_examples(qd):
    d2 = mono(qd, 2)
    assert coproduct_iter(d2, 1) == HTensor(
        qd, 2, {((2,), (0,)): 1, ((1,), (1,)): 1, ((0,), (2,)): 1}
    )
    assert coproduct_iter(qd.unit(), 1) == HTensor(qd, 2, {((0,), (0,)): 1})
    assert coproduct_iter(qd.gen(0), 2) == HTensor(
        qd,
        3,
        {
            ((1,), (0,), (0,)): 1,
            ((0,), (1,), (0,)): 1,
            ((0,), (0,), (1,)): 1,
        },
    )


def test_coassociativity_random(qd, b2, rng):
    # applying the coproduct again to any leg of Delta(a) equals Delta^2(a)
    for alg in (qd, b2):
        for _ in range(6):
            a = _random_helem(rng, alg, max_deg=4)
            two = coproduct_iter(a, 1)
            three = coproduct_iter(a, 2)
            left = HTensor(alg, 3, {})
            right = HTensor(alg, 3, {})
            for (K1, K2), c in two.terms.items():
                for (L1, L2), c2 in coproduct_iter(alg.mono(K1), 1).terms.items():
                    left = left + HTensor(alg, 3, {(L1, L2, K2): c * c2})
                for (L1, L2), c2 in coproduct_iter(alg.mono(K2), 1).terms.items():
                    right = right + HTensor(alg, 3, {(K1, L1, L2): c * c2})
            assert left == three
            assert right == three


def test_counit_algebra_map(qd, b2, rng):
    for alg in (qd, b2):
        for _ in range(8):
            a = _random_helem(rng, alg)
            b = _random_helem(rng, alg)
            # the counit reads the constant term
            assert (a * b).terms.get(alg.zero_index, 0) == a.terms.get(
                alg.zero_index, 0
            ) * b.terms.get(alg.zero_index, 0)


def test_counit_law_random(qd, b2, rng):
    # (eps (x) id) Delta = id
    for alg in (qd, b2):
        for _ in range(8):
            a = _random_helem(rng, alg, max_deg=4)
            acc = alg.zero()
            for (K1, K2), c in coproduct_iter(a, 1).terms.items():
                eps = alg.mono(K1).terms.get(alg.zero_index, 0)  # the counit
                acc = acc + alg.mono(K2).scale(c * eps)
            assert acc == a


def test_antipode_examples(qd, b2):
    assert antipode(mono(qd, 2)) == mono(qd, 2)
    assert antipode(qd.unit()) == qd.unit()
    assert antipode(mono(b2, 1, 1)) == mono(b2, 1, 1) - mono(b2, 0, 1)


def test_antipode_law_and_involution(qd, b2, rng):
    # m (S (x) id) Delta = eps . 1;  S^2 = id by cocommutativity
    for alg in (qd, b2):
        for _ in range(8):
            a = _random_helem(rng, alg, max_deg=4)
            acc = alg.zero()
            for (K1, K2), c in coproduct_iter(a, 1).terms.items():
                acc = acc + (antipode(alg.mono(K1)) * alg.mono(K2)).scale(c)
            assert acc == alg.unit().scale(a.terms.get(alg.zero_index, 0))
            assert antipode(antipode(a)) == a


def test_antipode_antihomomorphism(b2, rng):
    for _ in range(6):
        a = _random_helem(rng, b2, max_deg=3)
        b = _random_helem(rng, b2, max_deg=3)
        assert antipode(a * b) == antipode(b) * antipode(a)


def test_coproduct_is_algebra_map(qd, b2, rng):
    for alg in (qd, b2):
        for _ in range(6):
            a = _random_helem(rng, alg, max_deg=3)
            b = _random_helem(rng, alg, max_deg=3)
            assert coproduct_iter(a * b, 1) == tensor_mul(coproduct_iter(a, 1), coproduct_iter(b, 1))
