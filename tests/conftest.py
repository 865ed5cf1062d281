import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import settings

from pseudoalg.hopf import LieAlgebra
from pseudoalg.ptensor import FreeModule, canonicalize
from pseudoalg.cochains import Cochain, MixedMap, random_cochain, random_ptelem
from pseudoalg.structures import QuasiTwilled
from pseudoalg import zoo

# Property tests draw the same examples on every run (no example database), so
# the suite's verdict does not depend on the run or on earlier runs.
settings.register_profile("pinned", derandomize=True, database=None, deadline=None)
settings.load_profile("pinned")


@pytest.fixture
def qd():
    """H = Q[d]."""
    return LieAlgebra.abelian(["d"])


@pytest.fixture
def b2():
    """The 2-dim nonabelian algebra [a1, a2] = a2."""
    return zoo.nonabelian_2dim()


def pt(module, entries, arity=2):
    """Build a canonical value from (slot exponents..., K, basis, coeff) rows.

    For dim-1 Hopf bases the exponents are plain integers.
    """
    dim = module.alg.dim

    def mi(e):
        return tuple(e) if isinstance(e, (tuple, list)) else ((e,) if dim == 1 else e)

    raw = []
    for row in entries:
        slots = tuple(mi(e) for e in row[: arity ])
        K = mi(row[arity])
        raw.append((slots, K, row[arity + 1], Fraction(row[arity + 2])))
    return canonicalize(module, arity, raw)


def vir_value(module, k=0, scale=1):
    """(d (x) 1 - 1 (x) d) (x)_H e_k, the Virasoro bracket shape."""
    return pt(module, [(1, 0, 0, k, scale), (0, 1, 0, k, -scale)])


@pytest.fixture
def vir():
    return zoo.virasoro()


@pytest.fixture
def modified_r_q():
    """The modified r-matrix structure over Virasoro with weight 4."""
    return zoo.build(zoo.MODIFIED_R, {"algebra": zoo.virasoro(), "weight": Fraction(4)})


@pytest.fixture
def reynolds_q():
    b = zoo.demo_bundle(zoo.REYNOLDS)
    return b["Q"]


@pytest.fixture
def rng():
    return random.Random(20250810)


def random_structure(rng, alg, max_deg=2):
    """A seeded random rank-(1,1) quasi-twilled tuple over alg (PC need not hold)."""
    g = FreeModule("g", ["u"], alg)
    h = FreeModule("h", ["x"], alg)
    return QuasiTwilled(
        g,
        h,
        pi=random_cochain(rng, g, g, 2, max_deg=max_deg),
        rho=MixedMap(g, h, h, {(0, 0): random_ptelem(rng, h, 2, max_deg=max_deg)}),
        mu=random_cochain(rng, h, h, 2, max_deg=max_deg),
        eta=MixedMap(g, h, g, {(0, 0): random_ptelem(rng, g, 2, max_deg=max_deg)}),
        theta=random_cochain(rng, g, h, 2, max_deg=max_deg),
    )


def term_order_digest(values) -> str:
    """sha256 of the nested terms of cochain values, in dict order (not sorted).

    Cochain equality compares term dicts and ignores order; this pins it.
    """
    nested = [
        [(t, [(key, str(c)) for key, c in v.terms.items()]) for t, v in f.terms.items()]
        for f in values
    ]
    return hashlib.sha256(repr(nested).encode()).hexdigest()


def count_calls(monkeypatch, name, *modules) -> list:
    """Patch the function `name` in each module to record its calls; returns the record."""
    calls = []
    real = getattr(modules[0], name)

    def counting(*args):
        calls.append(1)
        return real(*args)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return calls


def count_insertions(monkeypatch, *modules) -> list:
    """Patch insert_raw in each module to record its calls; returns the record."""
    return count_calls(monkeypatch, "insert_raw", *modules)
