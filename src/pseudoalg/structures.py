"""Lie pseudoalgebras, quasi-twilled structures, and their compatibility checks.

A Lie pseudoalgebra is its bracket, a 2-cochain on one module that `check_lie`
passes: the quasi-twilled structure whose only nonzero component is pi.

A quasi-twilled structure is the tuple (g, h, pi, rho, mu, eta, theta); the
assembled bracket on g [+] h is

    Omega((x,u),(y,v)) = ( pi(x,y) + eta(x,v) - (12)eta(y,u),
                           mu(u,v) + rho(x,v) - (12)rho(y,u) + theta(x,y) ).

The eight compatibility conditions PC1..PC8 are implemented as the case
decomposition of the Jacobiator of Omega, with every composite slot-aligned
to the argument order.  Each composite is one `cochains.insert_value` into a
component at basis indices, alike for the skew components pi, theta, mu and
the mixed ones rho, eta; one `cochains.lift` places each in Omega.  The
printed cycle symbols in PC2/PC3/PC6/PC7 admit a second, literal-contents
reading (placement array (1, 2, 0)); the NR cross-check (check_mc_omega)
validates that the aligned reading matches [Omega, Omega].

Normalization (frozen by the equivalence suite):
    jacobiator = -(Omega circle Omega),  [Omega, Omega]_NR = -2 * jacobiator.
"""

from __future__ import annotations

from fractions import Fraction

from .hopf import InputError
from .ptensor import FreeModule, PTElem, permute
from .cochains import (
    Cochain,
    MixedMap,
    coerce_to_sum,
    extract_components,
    insert_value,
    lift,
    nr_bracket,
    skew_check,
    sorted_tuples,
)

# Placement arrays for the three-slot rearrangements that occur in PC2..PC7.
P_SWAP01 = (1, 0, 2)
P_SWAP12 = (0, 2, 1)
P_CYCLE_A = (2, 0, 1)  # printed (123), position reading: (s1,s2,s3) -> (s2,s3,s1)

ALIGNED = "aligned"
PC_LABELS = ("PC1", "PC2", "PC3", "PC4", "PC5", "PC6", "PC7", "PC8")

# Chevalley-Eilenberg sign conventions (cohomology).
CLASSICAL = "classical"
SHIFTED = "shifted"  # the (-1)^{p+i} / (-1)^{p+i+j-1} printed variant

# Deformation-map types and the operator kinds of each (deformation, zoo).
TYPE_I = "I"
TYPE_II = "II"
MODIFIED_R = "modified_r"
CROSSED_HOM = "crossed_hom"
DERIVATION = "derivation"
HOMOMORPHISM = "homomorphism"
RELATIVE_RB = "relative_rb"
O_OPERATOR = "o_operator"
TWISTED_RB = "twisted_rb"
REYNOLDS = "reynolds"
REYNOLDS_CLASSICAL = "reynolds_classical"
MATCHED_PAIR_DEF = "matched_pair_def"

TYPE_I_KINDS = (MODIFIED_R, CROSSED_HOM, DERIVATION, HOMOMORPHISM)
TYPE_II_KINDS = (
    RELATIVE_RB, O_OPERATOR, TWISTED_RB, REYNOLDS, REYNOLDS_CLASSICAL, MATCHED_PAIR_DEF
)
ALL_KINDS = TYPE_I_KINDS + TYPE_II_KINDS

MC_VS_JACOBIATOR = Fraction(-2)  # [Omega,Omega]_NR = -2 * jacobiator


def jacobiator(om: Cochain, a: int, b: int, c: int) -> PTElem:
    """J(a,b,c) = om(a, om(b,c)) - om(om(a,b), c) - (12) om(b, om(a,c))."""
    t1 = insert_value(om, (a,), om.value((b, c)), ())
    t2 = insert_value(om, (), om.value((a, b)), (c,))
    t3 = permute(insert_value(om, (b,), om.value((a, c)), ()), P_SWAP01)
    return t1 - t2 - t3


def check_lie(om: Cochain) -> dict:
    """Skew-symmetry plus per-triple Jacobiator residuals of a bracket; pass iff all zero."""
    skew = skew_check(om)
    jac = {}
    for t in sorted_tuples(om.source.rank, 3):
        r = jacobiator(om, *t)
        if not r.is_zero():
            jac[t] = r
    return {"ok": not skew and not jac, "skew": skew, "jacobi": jac}


class QuasiTwilled:
    """The tuple (g, h, pi, rho, mu, eta, theta) with free-module data.

    Component signatures: pi: g(x)g -> g, theta: g(x)g -> h (skew cochains),
    rho: g(x)h -> h, eta: g(x)h -> g (mixed maps), mu: h(x)h -> h (cochain).
    Validity (PC1..PC8) is tracked by check_pc, not silently assumed.
    """

    def __init__(self, g, h, pi=None, rho=None, mu=None, eta=None, theta=None, G=None):
        self.g = g
        self.h = h
        self.G = G if G is not None else FreeModule.direct_sum(g, h)
        self.pi = pi if pi is not None else Cochain.zero(2, g, g)
        self.theta = theta if theta is not None else Cochain.zero(2, g, h)
        self.mu = mu if mu is not None else Cochain.zero(2, h, h)
        self.rho = rho if rho is not None else MixedMap.zero(g, h, h)
        self.eta = eta if eta is not None else MixedMap.zero(g, h, g)
        self.components = (self.pi, self.rho, self.mu, self.eta, self.theta)  # Omega's order
        signatures = (
            (Cochain, (g, g), g),
            (MixedMap, (g, h), h),
            (Cochain, (h, h), h),
            (MixedMap, (g, h), g),
            (Cochain, (g, g), h),
        )
        for c, (cls, sources, target) in zip(self.components, signatures):
            if not isinstance(c, cls) or (c.sources, c.target) != (sources, target):
                raise InputError("component has wrong signature")
        self._omega = None

    def omega(self) -> Cochain:
        """The assembled pseudobracket as a cochain on g [+] h."""
        if self._omega is None:
            lifts = [lift(c, self.G) for c in self.components]
            self._omega = sum(lifts[1:], lifts[0])
        return self._omega

    def max_degree(self) -> int:
        return max(c.max_degree() for c in self.components)

    def __repr__(self):
        return f"QuasiTwilled(g={self.g.name}, h={self.h.name})"


def orientation(Q: QuasiTwilled, kind: str) -> tuple:
    """(source, target) of a deformation map of the given type: I g -> h, II h -> g."""
    if kind == TYPE_I:
        return Q.g, Q.h
    if kind == TYPE_II:
        return Q.h, Q.g
    raise InputError("kind must be 'I' or 'II'")


def pc_residuals(Q: QuasiTwilled) -> dict:
    """All PC1..PC8 residual tables, keyed by block-local basis tuples.

    Residuals are the left-minus-right sides of the printed conditions with
    composites slot-aligned to the argument order.
    """
    pi, th, mu, rho, eta = Q.pi, Q.theta, Q.mu, Q.rho, Q.eta
    g, h = Q.g, Q.h
    out = {label: {} for label in PC_LABELS + ("SKEW-pi", "SKEW-theta")}

    def put(label, key, val):
        if not val.is_zero():
            out[label][key] = val

    # PC1: skew-symmetry of mu (literally skew_check); pi and theta must be
    # skew too for Omega to be a pseudobracket at all.
    for t, pos, resid in skew_check(mu):
        put("PC1", t, resid)
    for label, comp in (("SKEW-pi", pi), ("SKEW-theta", th)):
        for t, pos, resid in skew_check(comp):
            put(label, t, resid)

    # PC2 / PC3: all inputs in g
    for i, j, k in sorted_tuples(g.rank, 3):
        pc2 = (
            insert_value(pi, (i,), pi.value((j, k)), ())
            - insert_value(pi, (), pi.value((i, j)), (k,))
            - permute(insert_value(pi, (j,), pi.value((i, k)), ()), P_SWAP01)
            - permute(insert_value(eta, (j,), th.value((i, k)), ()), P_SWAP01)
            + insert_value(eta, (i,), th.value((j, k)), ())
            + permute(insert_value(eta, (k,), th.value((i, j)), ()), P_CYCLE_A)
        )
        put("PC2", (i, j, k), pc2)
        pc3 = (
            insert_value(rho, (i,), th.value((j, k)), ())
            + permute(insert_value(rho, (k,), th.value((i, j)), ()), P_CYCLE_A)
            - permute(insert_value(rho, (j,), th.value((i, k)), ()), P_SWAP01)
            - permute(insert_value(th, (j,), pi.value((i, k)), ()), P_SWAP01)
            - insert_value(th, (), pi.value((i, j)), (k,))
            + insert_value(th, (i,), pi.value((j, k)), ())
        )
        put("PC3", (i, j, k), pc3)

    # PC4 / PC5: two inputs in g, one in h
    for i, j in sorted_tuples(g.rank, 2):
        for w in range(h.rank):
            pc4 = (
                insert_value(pi, (i,), eta.value((j, w)), ())
                + insert_value(eta, (i,), rho.value((j, w)), ())
                - insert_value(eta, (), pi.value((i, j)), (w,))
                - permute(insert_value(pi, (j,), eta.value((i, w)), ()), P_SWAP01)
                - permute(insert_value(eta, (j,), rho.value((i, w)), ()), P_SWAP01)
            )
            put("PC4", (i, j, w), pc4)
            pc5 = (
                insert_value(rho, (i,), rho.value((j, w)), ())
                + insert_value(th, (i,), eta.value((j, w)), ())
                - insert_value(rho, (), pi.value((i, j)), (w,))
                - insert_value(mu, (), th.value((i, j)), (w,))
                - permute(insert_value(rho, (j,), rho.value((i, w)), ()), P_SWAP01)
                - permute(insert_value(th, (j,), eta.value((i, w)), ()), P_SWAP01)
            )
            put("PC5", (i, j, w), pc5)

    # PC6 / PC7: one input in g, two in h
    for i in range(g.rank):
        for v, w in sorted_tuples(h.rank, 2):
            pc6 = (
                insert_value(eta, (i,), mu.value((v, w)), ())
                - insert_value(eta, (), eta.value((i, v)), (w,))
                + permute(insert_value(eta, (), eta.value((i, w)), (v,)), P_SWAP12)
            )
            put("PC6", (i, v, w), pc6)
            pc7 = (
                insert_value(rho, (i,), mu.value((v, w)), ())
                - insert_value(rho, (), eta.value((i, v)), (w,))
                - insert_value(mu, (), rho.value((i, v)), (w,))
                + permute(insert_value(rho, (), eta.value((i, w)), (v,)), P_SWAP12)
                - permute(insert_value(mu, (v,), rho.value((i, w)), ()), P_SWAP01)
            )
            put("PC7", (i, v, w), pc7)

    # PC8: Jacobi identity for mu
    for t in sorted_tuples(h.rank, 3):
        put("PC8", t, jacobiator(mu, *t))

    return out


def check_pc(Q: QuasiTwilled) -> dict:
    """Labeled PC residual report; ok iff every residual set is empty."""
    resid = pc_residuals(Q)
    return {"ok": all(not v for v in resid.values()), "residuals": resid}


# Mapping between the Jacobiator's case decomposition and the bidegree blocks
# of [Omega, Omega]: (sorted input pattern, target part) -> PC label.
BLOCK_TO_PC = {
    (("g", "g", "g"), "g"): "PC2",
    (("g", "g", "g"), "h"): "PC3",
    (("g", "g", "h"), "g"): "PC4",
    (("g", "g", "h"), "h"): "PC5",
    (("g", "h", "h"), "g"): "PC6",
    (("g", "h", "h"), "h"): "PC7",
    (("h", "h", "h"), "h"): "PC8",
    (("h", "h", "h"), "g"): "XI",
}


def check_mc_omega(Q: QuasiTwilled) -> dict:
    """[Omega, Omega]_NR split by bidegree block, cross-matched against PC labels.

    Requires, per block, [Omega,Omega] = -2 * (PC residual); the XI block
    (h^3 -> g) must vanish identically.  Also pass/fail must agree with
    check_pc verdict-for-verdict on every label.  The correspondence
    presumes a skew Omega, so it fails outright when SKEW-pi, SKEW-theta or
    PC1 fails; the verdicts are still compared.
    """
    om = Q.omega()
    bracket = nr_bracket(om, om)
    comps = extract_components(bracket)
    pc = pc_residuals(Q)
    if pc["SKEW-pi"] or pc["SKEW-theta"] or pc["PC1"]:
        labels = {"SKEW": {"zero": False}}
        correspondence = False
    else:
        labels = {}
        correspondence = True
        for (pattern, tpart), label in BLOCK_TO_PC.items():
            got = comps.get((pattern, tpart), {})
            if label == "XI":
                labels["XI"] = {"zero": not got}
                correspondence = correspondence and not got
                continue
            # both sides keep only nonzero values, so one dict equality decides
            match = got == {
                key: coerce_to_sum(v, Q.G, tpart).scale(MC_VS_JACOBIATOR)
                for key, v in pc[label].items()
            }
            labels[label] = {"zero": not got, "matches_pc": match}
            correspondence = correspondence and match
    # PC1 has no bracket component; its verdict rides along for the summary
    pc_ok = all(not v for v in pc.values())
    bracket_zero = bracket.is_zero()
    return {
        "ok": bracket_zero and correspondence,
        "correspondence_ok": correspondence,
        "agrees_with_pc": bracket_zero == pc_ok,
        "bracket_zero": bracket_zero,
        "pc_ok": pc_ok,
        "labels": labels,
    }


def require_pc(Q: QuasiTwilled, what: str) -> QuasiTwilled:
    """Q if PC1..PC8 hold, else an InputError naming the failing labels and tuples."""
    report = check_pc(Q)
    if not report["ok"]:
        bad = {k: sorted(v) for k, v in report["residuals"].items() if v}
        raise InputError(f"{what}: {bad}")
    return Q
