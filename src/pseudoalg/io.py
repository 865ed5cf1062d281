"""Structure/map/cochain file schema (version "1") and deterministic round trips.

Rationals are "num/den" strings with den > 0 (plain integers allowed); no
float, and no JSON boolean, is read as a number anywhere.  A file or entry
of the wrong JSON shape raises ParseError, and a term of PBW degree above
MAX_INPUT_DEGREE raises ResourceError before any product is formed.
Serialization sorts every key and term so that serialize(parse(serialize(x)))
is byte-identical.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .hopf import HElem, InputError, LieAlgebra, ResourceError, Scalar
from .ptensor import FreeModule, PTElem, coordinates
from .cochains import Cochain, HModuleMap, MixedMap
from .structures import QuasiTwilled

SCHEMA_VERSION = "1"

# Largest total PBW degree (slots plus coefficient) of a term read from a
# file.  `pa check` on modified_r.json with the leading exponent of theta,
# eta and mu set to e takes about 0.3 s at e = 20, 2.3 s at 64 and 7 s at 80
# on a 2-vCPU host (about 8x per doubling), and overflows at e = 10**30.
MAX_INPUT_DEGREE = 64


class ParseError(InputError):
    """Malformed file contents (exit code 2 territory)."""


def _object(x, what: str) -> dict:
    if not isinstance(x, dict):
        raise ParseError(f"{what} must be a JSON object, got {type(x).__name__}")
    return x


def _list(x, what: str) -> list:
    if not isinstance(x, list):
        raise ParseError(f"{what} must be a JSON list, got {type(x).__name__}")
    return x


def _objects(x, what: str) -> list:
    """A JSON list of objects, such as a table of entries or of terms."""
    for item in _list(x, what):
        _object(item, f"each entry of {what}")
    return x


def parse_rat(s) -> Fraction:
    if type(s) is int:
        return Fraction(s)
    if not isinstance(s, str):
        raise ParseError(f"rational must be a string, got {type(s).__name__}")
    txt = s.strip()
    if "/" in txt:
        num, den = txt.split("/", 1)
        try:
            n, d = int(num), int(den)
        except ValueError as exc:
            raise ParseError(f"bad rational {s!r}") from exc
        if d <= 0:
            raise ParseError(f"rational denominator must be positive in {s!r}")
        return Fraction(n, d)
    try:
        return Fraction(int(txt))
    except ValueError as exc:
        raise ParseError(f"bad rational {s!r}") from exc


def fmt_rat(q: Scalar) -> str:
    """Render an exact scalar (an int when integral, else a Fraction; never a float)."""
    return f"{q.numerator}/{q.denominator}"


def _mi(v, dim) -> tuple:
    if not isinstance(v, list) or len(v) != dim or not all(
        type(x) is int and x >= 0 for x in v
    ):
        raise ParseError(f"bad multi-index {v!r} (dim {dim})")
    return tuple(v)


def _degree_budget(degree: int):
    if degree > MAX_INPUT_DEGREE:
        raise ResourceError(f"input term of PBW degree {degree} (budget {MAX_INPUT_DEGREE})")


def _args(args, sources, what: str) -> tuple:
    """The `args` of a table entry: a list of basis indices, one per source module.

    A map over one module in every slot (a cochain) is stored on
    non-decreasing tuples only, so there the args must be non-decreasing.
    """
    if not (
        isinstance(args, list)
        and len(args) == len(sources)
        and all(type(a) is int and 0 <= a < m.rank for a, m in zip(args, sources))
    ):
        raise ParseError(f"{what}: bad args {args!r}")
    if len(set(sources)) == 1 and args != sorted(args):
        raise ParseError(f"{what}: args must be non-decreasing, got {args}")
    return tuple(args)


def _table(entries, sources, module: FreeModule, arity: int, what: str) -> dict:
    """The {args, terms} entries of a Cochain or MixedMap table as {args: value}.

    Each args may appear once: a repeated one is refused, not summed or
    overwritten.
    """
    table = {}
    for ent in _objects(entries, what):
        key = _args(ent.get("args"), sources, what)
        if key in table:
            raise ParseError(f"{what}: args {list(key)} appear twice")
        table[key] = ptelem_from_json(ent.get("terms", []), module, arity)
    return table


# -- Hopf base -------------------------------------------------------------------


def hopf_to_json(alg: LieAlgebra) -> dict:
    brackets = []
    for (i, j), row in sorted(alg._brackets.items()):
        coeffs = [[str(k), fmt_rat(c)] for k, c in sorted(row.items())]
        brackets.append({"i": i, "j": j, "coeffs": coeffs})
    return {"generators": list(alg.names), "brackets": brackets}


def hopf_from_json(data) -> LieAlgebra:
    """The Lie algebra of a hopf section.

    A bracket (i, j) may appear once, and an index once in its coeffs: a
    repeat is refused, not overwritten.
    """
    if not isinstance(data, dict) or "generators" not in data:
        raise ParseError("hopf section must define generators")
    gens = _list(data["generators"], "hopf generators")
    brackets = {}
    for ent in _objects(data.get("brackets", []), "hopf brackets"):
        i, j = ent.get("i"), ent.get("j")
        if type(i) is not int or type(j) is not int:
            raise ParseError("bracket entries need integer i, j")
        row = {}
        for pair in _list(ent.get("coeffs", []), "bracket coeffs"):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ParseError("bracket coeffs must be [index, rational] pairs")
            k = pair[0]
            if isinstance(k, str) and k.isdecimal():
                k = int(k)
            if type(k) is not int:
                raise ParseError(f"bad bracket index {pair[0]!r}")
            if k in row:
                raise ParseError(f"bracket ({i}, {j}): index {k} appears twice")
            row[k] = parse_rat(pair[1])
        if (i, j) in brackets:
            raise ParseError(f"bracket ({i}, {j}) appears twice")
        brackets[(i, j)] = row
    try:
        return LieAlgebra(gens, brackets)
    except InputError as exc:
        raise ParseError(str(exc)) from exc


# -- values ----------------------------------------------------------------------


def ptelem_to_json(v: PTElem) -> list:
    out = []
    for (slots, K, k), c in sorted(v.terms.items()):
        out.append(
            {
                "slots": [list(s) for s in slots],
                "coeff": list(K),
                "basis": k,
                "q": fmt_rat(c),
            }
        )
    return out


def ptelem_from_json(terms, module: FreeModule, arity: int) -> PTElem:
    dim = module.alg.dim
    acc = {}
    for t in _objects(terms, "terms"):
        slots = _list(t.get("slots", []), "term slots")
        if len(slots) != arity - 1:
            raise ParseError(f"term needs {arity - 1} slots, got {len(slots)}")
        key = (
            tuple(_mi(s, dim) for s in slots),
            _mi(t.get("coeff"), dim),
            t.get("basis"),
        )
        if type(key[2]) is not int or not 0 <= key[2] < module.rank:
            raise ParseError(f"bad basis index {key[2]!r}")
        _degree_budget(sum(map(sum, key[0])) + sum(key[1]))
        acc[key] = acc.get(key, Fraction(0)) + parse_rat(t.get("q"))
    return PTElem(module, arity, acc)


def helem_from_json(terms, alg: LieAlgebra) -> HElem:
    acc = {}
    for t in _objects(terms, "terms"):
        K = _mi(t.get("exp"), alg.dim)
        _degree_budget(sum(K))
        acc[K] = acc.get(K, Fraction(0)) + parse_rat(t.get("q"))
    return HElem(alg, acc)


# -- structures ------------------------------------------------------------------


def table_to_json(f) -> list:
    """The {args, terms} entries of a Cochain or MixedMap table, sorted by args."""
    return [
        {"args": list(args), "terms": ptelem_to_json(v)} for args, v in sorted(f.terms.items())
    ]


def structure_to_json(Q: QuasiTwilled, meta=None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "hopf": hopf_to_json(Q.g.alg),
        "modules": {
            "g": {"basis": list(Q.g.basis)},
            "h": {"basis": list(Q.h.basis)},
        },
        "maps": {
            "pi": table_to_json(Q.pi),
            "rho": table_to_json(Q.rho),
            "mu": table_to_json(Q.mu),
            "eta": table_to_json(Q.eta),
            "theta": table_to_json(Q.theta),
        },
        "meta": dict(meta or {}),
    }


def _check_file(data, what: str):
    """A file's top level must be an object of the supported schema version."""
    _object(data, f"{what} file")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {data.get('schema_version')!r}")


def _module(name: str, spec, alg: LieAlgebra) -> FreeModule:
    basis = _list(_object(spec, f"module {name}").get("basis", []), f"module {name} basis")
    return FreeModule(name, basis, alg)


def structure_from_json(data) -> QuasiTwilled:
    _check_file(data, "structure")
    alg = hopf_from_json(data.get("hopf"))
    modules = data.get("modules")
    if not isinstance(modules, dict) or "g" not in modules or "h" not in modules:
        raise ParseError("modules section must define g and h")
    g = _module("g", modules["g"], alg)
    h = _module("h", modules["h"], alg)
    maps = _object(data.get("maps", {}), "maps section")
    unknown = set(maps) - {"pi", "rho", "mu", "eta", "theta"}
    if unknown:
        raise ParseError(f"unknown map sections {sorted(unknown)}")

    def load_pairs(name, sources, module):
        return _table(maps.get(name, []), sources, module, 2, f"maps.{name}")

    def as_cochain(name, src, tgt):
        return Cochain(2, src, tgt, load_pairs(name, (src, src), tgt))

    pi = as_cochain("pi", g, g)
    theta = as_cochain("theta", g, h)
    mu = as_cochain("mu", h, h)
    rho = MixedMap(g, h, h, load_pairs("rho", (g, h), h))
    eta = MixedMap(g, h, g, load_pairs("eta", (g, h), g))
    try:
        return QuasiTwilled(g, h, pi=pi, rho=rho, mu=mu, eta=eta, theta=theta)
    except InputError as exc:
        raise ParseError(str(exc)) from exc


def map_to_json(m: HModuleMap, from_name="g", to_name="h") -> dict:
    matrix = []
    for i in range(m.src.rank):
        img = dict(coordinates(m.apply_basis(i)))
        matrix.append(
            [
                [{"exp": list(K), "q": fmt_rat(c)} for K, c in sorted(img.get(j, {}).items())]
                for j in range(m.dst.rank)
            ]
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "from": from_name,
        "to": to_name,
        "matrix": matrix,
    }


def map_from_json(data, src: FreeModule, dst: FreeModule) -> HModuleMap:
    _check_file(data, "map")
    matrix = data.get("matrix")
    if not isinstance(matrix, list) or len(matrix) != src.rank:
        raise ParseError(f"matrix must have {src.rank} rows")
    rows = {}
    for i, row in enumerate(matrix):
        if not isinstance(row, list) or len(row) != dst.rank:
            raise ParseError(f"matrix row {i} must have {dst.rank} entries")
        rows[i] = PTElem.zero(dst, 1)
        for j, terms in enumerate(row):
            rows[i] = rows[i] + dst.elem(j, helem_from_json(terms, src.alg))
    return HModuleMap(src, dst, rows)


def map_orientation_of(data) -> tuple:
    _check_file(data, "map")
    return data.get("from"), data.get("to")


def cochain_to_json(f: Cochain) -> dict:
    """Self-contained cochain file: carries the Hopf base and both modules."""
    modules = {f.source.name: {"basis": list(f.source.basis)}}
    modules.setdefault(f.target.name, {"basis": list(f.target.basis)})
    return {
        "schema_version": SCHEMA_VERSION,
        "hopf": hopf_to_json(f.source.alg),
        "modules": modules,
        "source": f.source.name,
        "target": f.target.name,
        "arity": f.arity,
        "table": table_to_json(f),
    }


def cochain_from_json(data, modules: dict | None = None) -> Cochain:
    """A file's cochain over its own modules, or over `modules`; the file's
    Hopf base and the bases of its source and target must then match them."""
    _check_file(data, "cochain")
    alg = hopf_from_json(data.get("hopf"))
    specs = _object(data.get("modules") or {}, "modules section")
    own = {name: _module(name, spec, alg) for name, spec in specs.items()}
    modules = own if modules is None else modules
    names = (data.get("source"), data.get("target"))
    if not all(isinstance(n, str) and n in modules for n in names):
        raise ParseError(f"source and target must name modules, got {names}")
    for n in names:
        if own.get(n) != modules[n]:
            raise ParseError(f"module {n} of the cochain file differs from the structure's")
    src, tgt = (modules[n] for n in names)
    arity = data.get("arity")
    if type(arity) is not int or arity < 1:
        raise ParseError(f"bad arity {arity!r}")
    table = _table(data.get("table", []), (src,) * arity, tgt, arity, "cochain table")
    return Cochain(arity, src, tgt, table)


def dumps(data) -> str:
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
