"""Command-line surface: `pa <subcommand>`.

Exit codes: 0 all checks pass; 1 a mathematical check failed; 2 input or
usage error; 3 resource budget or internal invariant violation; 4 an
unexpected exception, a program fault whose traceback goes to stderr.
Reports are deterministic for identical inputs and seeds (timing is opt-in
via --timing and excluded from the determinism contract); every report names
the convention flags in force.

A command imports only the modules its body runs: this module loads hopf,
ptensor, cochains, structures and io, and a `cmd_*` body that needs
deformation, cohomology, zoo or rank2 imports it in its first line.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from .hopf import InputError, InternalInvariantError, ResourceError, coeff
from .cochains import Cochain, nr_bracket, skew_check
from .structures import (
    ALIGNED,
    ALL_KINDS,
    CLASSICAL,
    TYPE_I,
    TYPE_II,
    check_lie,
    check_mc_omega,
    check_pc,
    orientation,
)
from . import io as pio

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

CONVENTIONS = {
    "permutation_variant": ALIGNED,
    "ce_sign_convention": CLASSICAL,
    "linf_identity_signs": "graded-symmetric-koszul",
}


class Report:
    """Accumulates named checks; renders human text and structured JSON."""

    def __init__(self, argv, seed=None):
        self.command = ["pa"] + list(argv)
        self.seed = seed
        self.checks = []
        self.outputs = []
        self.names = []  # what `pa zoo --list` lists, ahead of the report text
        self.t0 = time.monotonic()

    def add(self, name: str, passed: bool, detail=None):
        self.checks.append({"name": name, "status": "pass" if passed else "fail",
                            "detail": detail})

    def note_output(self, path):
        self.outputs.append(str(path))

    def ok(self) -> bool:
        return all(c["status"] == "pass" for c in self.checks)

    def as_dict(self, timing=False) -> dict:
        out = {
            "command": self.command,
            "conventions": dict(CONVENTIONS),
            "checks": self.checks,
            "verdict": "pass" if self.ok() else "fail",
        }
        if self.seed is not None:
            out["seed"] = self.seed
        if self.outputs:
            out["outputs"] = self.outputs
        if self.names:
            out["names"] = self.names
        if timing:
            out["wall_ms"] = round(1000 * (time.monotonic() - self.t0), 3)
        return out

    def render(self, as_json=False, timing=False) -> str:
        data = self.as_dict(timing=timing)
        if as_json:
            return json.dumps(data, indent=1, sort_keys=True)
        lines = [*self.names, f"# {' '.join(self.command)}"]
        lines.append(
            "conventions: "
            + ", ".join(f"{k}={v}" for k, v in sorted(CONVENTIONS.items()))
        )
        if self.seed is not None:
            lines.append(f"seed: {self.seed}")
        for c in self.checks:
            mark = "PASS" if c["status"] == "pass" else "FAIL"
            line = f"[{mark}] {c['name']}"
            if c["detail"]:
                line += f": {_render_detail(c['detail'])}"
            lines.append(line)
        for p in self.outputs:
            lines.append(f"wrote {p}")
        if timing:
            lines.append(f"wall_ms: {data['wall_ms']}")
        lines.append(f"verdict: {data['verdict']}")
        return "\n".join(lines)


def _render_detail(detail) -> str:
    if isinstance(detail, str):
        return detail
    return json.dumps(detail, sort_keys=True, default=str)


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return pio.loads(fh.read())
    except OSError as exc:
        raise pio.ParseError(f"cannot read {path}: {exc}") from exc


def _load_structure(args, report=None):
    """The command's structure file; given a report and no --no-validate, its
    PC1-PC8 are checked at load and added to the report as one check."""
    Q = pio.structure_from_json(_load_json(args.structure))
    if report is not None and not args.no_validate:
        pc = check_pc(Q)
        report.add(
            "load-validate PC1-PC8",
            pc["ok"],
            None if pc["ok"] else {k: len(v) for k, v in pc["residuals"].items() if v},
        )
    return Q


def _load_map(path, Q, kind):
    data = _load_json(path)
    src, dst = orientation(Q, kind)
    names = pio.map_orientation_of(data)
    expect = (src.name, dst.name)  # the parts of a loaded structure are named g and h
    if tuple(names) != expect:
        raise pio.ParseError(
            f"map orientation {names} does not match type {kind} (expect {expect})"
        )
    return pio.map_from_json(data, src, dst)


def _write(path, data, report):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(pio.dumps(data))
    report.note_output(path)


# -- subcommand bodies -------------------------------------------------------------


def cmd_check(args, report):
    Q = _load_structure(args)
    lie = check_lie(Q.omega())
    skew = lie["skew"]
    report.add("omega skew-symmetry", not skew, None if not skew else f"{len(skew)} residuals")
    report.add(
        "omega Jacobi identity",
        not lie["jacobi"],
        None if not lie["jacobi"] else {str(k): "nonzero" for k in lie["jacobi"]},
    )


def cmd_check_qt(args, report):
    Q = _load_structure(args)
    mc = check_mc_omega(Q)  # one PC evaluation: its residual tables come back with it
    for label in sorted(mc["residuals"]):
        fails = mc["residuals"][label]
        report.add(
            f"{label}",
            not fails,
            None if not fails else {str(k): pio.ptelem_to_json(v) for k, v in sorted(fails.items())},
        )
    report.add("[Omega,Omega]_NR = 0", mc["bracket_zero"])
    report.add("PC <-> NR component correspondence", mc["correspondence_ok"])
    report.add("PC verdict agrees with NR verdict", mc["agrees_with_pc"])


def cmd_dmap(args, report):
    from .deformation import dmap_residual
    Q = _load_structure(args, report)
    m = _load_map(args.map, Q, args.type)
    resid = dmap_residual(Q, m, args.type)
    report.add(
        f"type {args.type} deformation-map identity",
        resid.is_zero(),
        None if resid.is_zero() else {"residual": pio.table_to_json(resid)},
    )


def cmd_twist(args, report):
    from .deformation import twist1, twist2
    Q = _load_structure(args, report)
    m = _load_map(args.map, Q, args.type)
    if args.type == TYPE_I:
        result_struct, info = twist1(Q, m)
    else:
        (result_struct, xi), info = twist2(Q, m)
        if not xi.is_zero():
            result_struct = None
            report.add(
                "twisted structure quasi-twilled (xi = 0)",
                False,
                {"xi": pio.table_to_json(xi)},
            )
    report.add("closed form equals bracket series", info["closed_form_equals_series"])
    report.add("series equals conjugated bracket", info["series_equals_conjugation"])
    report.add("map is a deformation map", info["is_dmap"])
    if args.out and result_struct is not None:
        _write(args.out, pio.structure_to_json(result_struct), report)


def cmd_nr(args, report):
    f = pio.cochain_from_json(_load_json(args.f))
    g = pio.cochain_from_json(_load_json(args.g))
    if f.source != g.source or f.source != f.target or g.source != g.target:
        raise pio.ParseError("nr needs two cochains on one common module")
    out = nr_bracket(f, g)
    report.add("nr bracket computed", True, {"arity": out.arity})
    sk = skew_check(out)
    report.add("result skew-symmetric", not sk)
    if args.out:
        _write(args.out, pio.cochain_to_json(out), report)


def cmd_linf(args, report):
    from .deformation import LinfOps, linf_jacobi_check
    Q = _load_structure(args, report)
    ops = LinfOps(Q, args.type)
    rng = random.Random(args.seed)
    res = linf_jacobi_check(ops, args.max_arity, rng)
    for n in sorted(res["identities"]):
        report.add(f"higher Jacobi identity n={n}", res["identities"][n])


def cmd_ce(args, report):
    from .cohomology import handle_for
    Q = _load_structure(args, report)
    m = _load_map(args.map, Q, args.type)
    handle = handle_for(args.type, Q, m, convention=CLASSICAL)
    modules = {"g": Q.g, "h": Q.h}
    f = pio.cochain_from_json(_load_json(args.cochain), modules)
    if (f.source, f.target) != orientation(Q, args.type):
        raise pio.ParseError("cochain block does not match the complex")
    out = handle.diff(f)
    report.add("chevalley-eilenberg differential computed", True, {"arity": out.arity})
    sk = skew_check(out)
    report.add("output skew-symmetric", not sk)
    if args.out:
        _write(args.out, pio.cochain_to_json(out), report)


def cmd_cohomology(args, report):
    from .cohomology import handle_for, truncated_cohomology
    Q = _load_structure(args, report)
    m = _load_map(args.map, Q, args.type)
    handle = handle_for(args.type, Q, m, convention=CLASSICAL)
    dims = truncated_cohomology(handle, args.degree, args.max_pbw)
    report.add(
        f"truncated cohomology at arity {args.degree}, cap {args.max_pbw}",
        True,
        {k: dims[k] for k in ("dim_cochains", "dim_Z", "dim_B", "dim_H", "caveat")},
    )


def cmd_dictionary(args, report):
    from . import zoo as pzoo
    if args.trials < 0:
        raise pio.ParseError(f"--trials counts random maps; {args.trials} is below 0")
    if args.seed is not None and args.trials < 1:
        raise pio.ParseError("--seed seeds the --trials random maps; it needs --trials 1 or more")
    report.seed = 0 if args.seed is None else args.seed
    Q = _load_structure(args)
    kind = args.kind
    weight = _parse_weight(args.weight) if args.weight is not None else None
    ingredients = pzoo.ingredients_from_structure(kind, Q, weight)
    R = pzoo.build(kind, ingredients)
    # build's require_pc has passed on R, and the command goes on only if R
    # equals Q, so PC1-PC8 of Q are checked once, there
    if not args.no_validate:
        report.add("load-validate PC1-PC8", True)
    for name, part, again in (("g", Q.g, R.g), ("h", Q.h, R.h)):
        if part.rank != again.rank:
            raise pio.ParseError(f"the {kind} ingredients of the structure rebuild module "
                                 f"{name} with rank {again.rank}, not {part.rank}")
    given = pio.structure_to_json(Q)["maps"]
    rebuilt = pio.structure_to_json(R)["maps"]
    if rebuilt != given:
        other = ", ".join(name for name in given if rebuilt[name] != given[name])
        raise pio.ParseError(f"the {kind} ingredients of the structure rebuild other {other}")
    m = _load_map(args.map, Q, pzoo.map_type(kind))
    rng = random.Random(report.seed)
    res = pzoo.dictionary_check(kind, ingredients, m, rng=rng, trials=args.trials, Q=Q)
    report.add(
        "operator identity <=> deformation-map residual",
        res["ok"],
        None
        if res["ok"]
        else {
            "operator_residual": pio.table_to_json(res["operator_residual"]),
            "deformation_residual": pio.table_to_json(res["deformation_residual"]),
        },
    )
    given_ok = res["operator_residual"].is_zero()
    report.add(
        "given map satisfies the operator identity",
        given_ok,
        None if given_ok else {"residual": pio.table_to_json(res["operator_residual"])},
    )


def _parse_weight(weight):
    """The --weight option as an exact scalar, in the `num/den` form of io."""
    try:
        return coeff(pio.parse_rat(weight))
    except pio.ParseError as exc:
        raise pio.ParseError(f"--weight: {exc}") from exc


def cmd_zoo(args, report):
    from . import zoo as pzoo
    if args.list:
        if (args.name, args.out, args.map_out) != (None, None, None):
            raise pio.ParseError("--list takes no name, -o or --map-out")
        report.names = ["virasoro", "cur_sl2", "cur_2dim_nonabelian", *pzoo.ZOO_NAMES, *pzoo.DEMO_ALIASES]
        return
    name = args.name
    if name is None:
        raise pio.ParseError("zoo needs a name or --list")
    obj = pzoo.builtin(name)
    if args.map_out and not (args.out and isinstance(obj, dict)):
        # only a kind's bundle carries a map, and it is written next to -o's structure
        raise pio.ParseError("--map-out needs -o and a name with a map (a kind or demo alias)")
    if isinstance(obj, Cochain):  # a Lie pseudoalgebra's bracket; -o writes it
        report.add("Lie pseudoalgebra assembled and validated", check_lie(obj)["ok"])
        if args.out:
            _write(args.out, pio.cochain_to_json(obj), report)
        return
    bundle = obj if isinstance(obj, dict) else {"Q": obj}
    Q = bundle["Q"]
    meta = {"name": name, "kind": bundle["kind"]} if "kind" in bundle else {"name": name}
    report.add("structure assembled and PC-validated", check_pc(Q)["ok"])
    if args.out:
        _write(args.out, pio.structure_to_json(Q, meta=meta), report)
        if args.map_out:
            src, dst = orientation(Q, pzoo.map_type(bundle["kind"]))
            names = ("g" if part is Q.g else "h" for part in (src, dst))  # names on reload
            _write(args.map_out, pio.map_to_json(bundle["map"], *names), report)


def cmd_rank2(args, report):
    from .rank2 import rank2_search
    res = rank2_search(args.max_deg)
    report.add(
        "elimination complete (no unresolved branches)",
        res["unresolved"] == 0,
        {"families": len(res["families"])},
    )
    report.add(
        "sample instances verify PC",
        all(f["sample_ok"] for f in res["families"]),
    )
    others = [f for f in res["families"] if f["tag"] == "other"]
    report.add(
        "all families classified as types i/ii/iii",
        not others,
        None
        if not others
        else {"other_families": [{k: f[k] for k in ("subs", "free", "nonzero")} for f in others]},
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pa",
        description="Exact checks for quasi-twilled Lie pseudoalgebra structures.",
        epilog="exit codes: 0 pass; 1 a check failed; 2 input or usage error; "
        "3 resource budget or internal invariant; 4 unexpected exception (traceback on stderr)",
    )
    ap.add_argument("--json", action="store_true", help="structured report output")
    ap.add_argument("--timing", action="store_true", help="include wall time (non-deterministic)")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--no-validate", action="store_true")

    p = sub.add_parser("check", help="skew + Jacobi of the assembled bracket")
    p.add_argument("structure")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("check-qt", help="PC1-PC8 and the NR cross-check")
    p.add_argument("structure")
    p.set_defaults(fn=cmd_check_qt)

    p = sub.add_parser("dmap", help="deformation-map residual")
    p.add_argument("--type", choices=(TYPE_I, TYPE_II), required=True)
    p.add_argument("structure")
    p.add_argument("map")
    common(p)
    p.set_defaults(fn=cmd_dmap)

    p = sub.add_parser("twist", help="twist by a module map (three routes)")
    p.add_argument("--type", choices=(TYPE_I, TYPE_II), required=True)
    p.add_argument("structure")
    p.add_argument("map")
    p.add_argument("-o", "--out")
    common(p)
    p.set_defaults(fn=cmd_twist)

    p = sub.add_parser("nr", help="Nijenhuis-Richardson bracket of two cochains")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("-o", "--out")
    p.set_defaults(fn=cmd_nr)

    p = sub.add_parser("linf", help="higher Jacobi identities of the controlling operators")
    p.add_argument("--type", choices=(TYPE_I, TYPE_II), required=True)
    p.add_argument("structure")
    p.add_argument("--max-arity", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(fn=cmd_linf)

    p = sub.add_parser("ce", help="Chevalley-Eilenberg differential of a cochain")
    p.add_argument("--type", choices=(TYPE_I, TYPE_II), required=True)
    p.add_argument("structure")
    p.add_argument("map")
    p.add_argument("cochain")
    p.add_argument("-o", "--out")
    common(p)
    p.set_defaults(fn=cmd_ce)

    p = sub.add_parser("cohomology", help="degree-truncated cohomology dimensions")
    p.add_argument("--type", choices=(TYPE_I, TYPE_II), required=True)
    p.add_argument("structure")
    p.add_argument("map")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--max-pbw", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("dictionary", help="operator identity vs deformation map")
    p.add_argument("--kind", choices=ALL_KINDS, required=True)
    p.add_argument("--weight", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=0)
    p.add_argument("structure")
    p.add_argument("map")
    common(p)
    p.set_defaults(fn=cmd_dictionary)

    p = sub.add_parser("zoo", help="emit curated structures")
    p.add_argument("name", nargs="?")
    p.add_argument("--list", action="store_true")
    p.add_argument("-o", "--out")
    p.add_argument("--map-out")
    p.set_defaults(fn=cmd_zoo)

    p = sub.add_parser("rank2-search", help="bounded-degree rank-2 classification")
    p.add_argument("--max-deg", type=int, required=True)
    p.set_defaults(fn=cmd_rank2)
    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    report = Report(argv, seed=getattr(args, "seed", None))
    try:
        args.fn(args, report)
    except InputError as exc:  # io.ParseError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ResourceError, InternalInvariantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except Exception as exc:  # a program fault: the builtin hook prints its traceback
        sys.__excepthook__(type(exc), exc, exc.__traceback__)
        return EXIT_INTERNAL
    print(report.render(as_json=args.json, timing=args.timing))
    return EXIT_PASS if report.ok() else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
