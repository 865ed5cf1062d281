"""Source hygiene of the package, checked on its syntax trees (stdlib only)."""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from pseudoalg import io as pio
from pseudoalg.hopf import ResourceError

PACKAGE_DIR = Path(pio.__file__).parent
MODULES = sorted(PACKAGE_DIR.glob("*.py"))
REPO = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list:
    """Names bound by an import statement that the module never references."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_guard_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == [(1, "os")]
    assert unused_imports("from .a import b as c\nc()\n") == []
    assert unused_imports("def f():\n    from .a import b\n    return 1\n") == [(2, "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list:
    """Lines that read the process environment through `os`."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ENVIRONMENT
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ) or (
            isinstance(node, ast.ImportFrom)
            and node.module == "os"
            and any(alias.name in ENVIRONMENT for alias in node.names)
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_guard_sees_an_environment_read():
    assert environment_reads("import os\nx = os.environ.get('A')\n") == [2]
    assert environment_reads("import os\n\nos.getenv('A')\n") == [3]
    assert environment_reads("from os import environ as env\n") == [1]
    assert environment_reads("import os\nos.path.join('a', 'b')\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reads_the_environment(path):
    # no setting is read from the environment, so none can be parsed and ignored
    assert environment_reads(path.read_text(encoding="utf-8")) == []


MEMO_DECORATORS = {"lru_cache", "cache"}


def _is_empty_dict(node) -> bool:
    return (isinstance(node, ast.Dict) and not node.keys) or (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "dict"
        and not node.args
        and not node.keywords
    )


def module_memos(source: str) -> list:
    """Lines that set up a memo living as long as the process.

    That is functools' lru_cache or cache, however functools is imported, and
    an empty dict bound at module level, which only a cache would fill.
    """
    tree = ast.parse(source)
    functools_names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "functools"
    }
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in MEMO_DECORATORS
            and isinstance(node.value, ast.Name)
            and node.value.id in functools_names
        ) or (
            isinstance(node, ast.ImportFrom)
            and node.module == "functools"
            and any(alias.name in MEMO_DECORATORS for alias in node.names)
        ):
            lines.append(node.lineno)
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_empty_dict(node.value):
            lines.append(node.lineno)
    return sorted(lines)


def test_guard_sees_a_module_memo():
    assert module_memos("import functools\n@functools.lru_cache(None)\ndef f(x):\n    return x\n") == [2]
    assert module_memos("import functools\n\n@functools.cache\ndef f(x):\n    return x\n") == [3]
    assert module_memos("import functools as ft\n@ft.cache\ndef f(x):\n    return x\n") == [2]
    assert module_memos("from functools import lru_cache as memo\n") == [1]
    assert module_memos("from functools import cache\n") == [1]
    assert module_memos("_CACHE = {}\n") == [1]
    assert module_memos("import x\n_CACHE: dict = dict()\n") == [2]
    assert module_memos("import functools\nfunctools.reduce(max, [1])\n") == []
    assert module_memos("TABLE = {1: 2}\ndef f():\n    seen = {}\n    return seen\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_level_memo(path):
    # memos live on the LieAlgebra instance (kernels), on the CE handle (d
    # blocks) or within one call (solvers), so no cache outlives the objects
    # it was computed for
    assert module_memos(path.read_text(encoding="utf-8")) == []


def _identifiers(tree) -> Counter:
    """How often the tree refers to each name: as a name, attribute or imported name."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def unreferenced(source: str, elsewhere=Counter()) -> list:
    """Functions, classes and public methods of `source` that nothing refers to.

    `elsewhere` counts the references in other files.  A reference inside
    the definition itself, such as a recursive call, does not count.
    """
    tree = ast.parse(source)
    total = _identifiers(tree) + elsewhere
    methods = {
        id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef) for item in node.body
    }
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted(
        (node.lineno, node.name)
        for node in ast.walk(tree)
        if isinstance(node, kinds)
        and not (id(node) in methods and node.name.startswith("_"))
        and total[node.name] == _identifiers(node)[node.name]
    )


def test_guard_sees_an_unreferenced_definition():
    src = (
        "def f(n):\n    return f(n - 1)\n"
        "class A:\n    def used(self):\n        return A\n"
        "    def unused(self):\n        pass\n    def _private(self):\n        pass\n"
        "def g():\n    def inner():\n        pass\n    return A().used()\n"
    )
    assert unreferenced(src) == [(1, "f"), (6, "unused"), (10, "g"), (11, "inner")]
    other = _identifiers(ast.parse("from m import f, g\nx.unused\n"))
    assert unreferenced(src, other) == [(11, "inner")]


@pytest.fixture(scope="module")
def references() -> dict:
    """The reference counts of every Python file in src/, tests/ and perfbench/."""
    return {
        p: _identifiers(ast.parse(p.read_text(encoding="utf-8")))
        for folder in ("src", "tests", "perfbench")
        for p in sorted((REPO / folder).rglob("*.py"))
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_definition_is_referenced(path, references):
    # a definition nothing refers to is dead code, such as a wrapper left behind
    elsewhere = sum((c for p, c in references.items() if p != path.resolve()), Counter())
    assert unreferenced(path.read_text(encoding="utf-8"), elsewhere) == []


SPARSE_ARITHMETIC = {"__add__", "__sub__", "__neg__", "scale", "is_zero"}


def sparse_copies(source: str, module: str) -> list:
    """(class, method) pairs that define arithmetic `hopf.Sparse` provides.

    Only `Sparse` itself, in the module `hopf`, may define them.
    """
    return sorted(
        (node.name, item.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef) and (module, node.name) != ("hopf", "Sparse")
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and item.name in SPARSE_ARITHMETIC
    )


def test_guard_sees_copied_sparse_arithmetic():
    src = (
        "class Sparse:\n    def __add__(self, o):\n        pass\n"
        "class MElem(Sparse):\n    def scale(self, c):\n        pass\n"
        "    def act(self, h):\n        pass\n"
    )
    assert sparse_copies(src, "ptensor") == [("MElem", "scale"), ("Sparse", "__add__")]
    assert sparse_copies(src, "hopf") == [("MElem", "scale")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_linear_arithmetic_lives_only_in_sparse(path):
    # every linear value adds, negates and scales through hopf.Sparse, so no
    # class keeps a copy that can drift from it
    assert sparse_copies(path.read_text(encoding="utf-8"), path.stem) == []


def local_imports(source: str, module: str) -> list:
    """Lines of imports below the top level of a module.

    The one place allowed is the head of a `cmd_*` body in `cli`: a command
    imports there the modules only it runs, so start-up stays light and the
    kernel modules keep every import at their top.
    """
    tree = ast.parse(source)
    allowed = set()
    for node in tree.body if module == "cli" else ():
        if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_"):
            for stmt in node.body:
                if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                    break
                allowed.add(id(stmt))
    top = {id(node) for node in tree.body}
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top | allowed
    )


def test_guard_sees_a_local_import():
    src = (
        "import os\n"
        "def cmd_a(args):\n    from .b import c\n    import d\n    x = c\n    from .e import f\n"
        "def g():\n    import json\n"
        "class K:\n    def cmd_h(self):\n        import re\n"
        "if os:\n    import sys\n"
    )
    assert local_imports(src, "cli") == [6, 8, 11, 13]
    assert local_imports(src, "zoo") == [3, 4, 6, 8, 11, 13]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_stay_at_module_top(path):
    # a `pa` command loads only the modules its body runs; that lazy import
    # lives in its `cmd_*` body in cli and nowhere else
    assert local_imports(path.read_text(encoding="utf-8"), path.stem) == []


def linalg_imports(source: str) -> list:
    """Lines that import `pseudoalg.linalg` or anything from it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            hit = any(a.name.startswith("pseudoalg.linalg") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = (node.module or "").startswith("pseudoalg.linalg") or (
                node.module == "pseudoalg" and any(a.name == "linalg" for a in node.names)
            )
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def test_guard_sees_a_linalg_import():
    assert linalg_imports("import pseudoalg.linalg\n") == [1]
    assert linalg_imports("import os\nfrom pseudoalg.linalg import rank as r\n") == [2]
    assert linalg_imports("from pseudoalg import hopf, linalg\n") == [1]
    assert linalg_imports("from pseudoalg import hopf\nfrom fractions import Fraction\n") == []


def test_dense_oracle_is_independent_of_linalg():
    # fraction-free vs dense Gauss elimination is a cross-check only while the
    # two share no code
    source = (REPO / "tests" / "oracles.py").read_text(encoding="utf-8")
    assert linalg_imports(source) == []


def test_perfbench_trace_names_resolve():
    # the benchmark's --trace run finds each function it counts or times by its
    # dotted name, so a rename or deletion in the package fails here first
    spec = importlib.util.spec_from_file_location("perfbench_run", REPO / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    for name in run.CALLS + run.CUMULATIVE:
        filename, _line, fn = run.function_key(name)
        assert fn == name.rsplit(".", 1)[1], name
        assert name.startswith("sympy.") or Path(filename).parent == PACKAGE_DIR, name


def route_names(source: str, name: str) -> set:
    """The names function or class `name` of `source` refers to, with those of
    the module's functions and classes it reaches through them (a class
    through its bases and the bodies of its methods)."""
    kinds = (ast.FunctionDef, ast.ClassDef)
    defs = {n.name: n for n in ast.parse(source).body if isinstance(n, kinds)}
    names, todo, done = set(), [name], set()
    while todo:
        fn = todo.pop()
        if fn not in done:
            done.add(fn)
            refs = set(_identifiers(defs[fn]))
            names |= refs
            todo += sorted(refs & defs.keys())
    return names


def test_guard_sees_a_shared_route():
    src = (
        "def a(x):\n    return b(x) + 1\n"
        "def b(x):\n    return handle_for(x).diff(x)\n"
        "def c():\n    return ring\n"
    )
    assert {"b", "handle_for", "diff"} <= route_names(src, "a")
    assert "ring" not in route_names(src, "a")
    assert route_names(src, "c") == {"ring"}
    classes = (
        "def closed():\n    return 1\n"
        "class Base:\n    def m(self):\n        return closed()\n"
        "class Sub(Base):\n    def n(self):\n        return super().m()\n"
        "class Other:\n    pass\n"
    )
    assert {"Base", "closed"} <= route_names(classes, "Sub")
    assert "closed" not in route_names(classes, "Other")


def test_linf_operators_do_not_reach_the_closed_form_twist():
    # the l1-vs-d oracle checks the CE handle, whose induced structure comes
    # from the closed-form twist, against the twisted L-infinity operators;
    # TwistedLinfOps(Q, M, kind) equals LinfOps of the twisted structure, but
    # built that way it would share the closed form it checks
    source = (PACKAGE_DIR / "deformation.py").read_text(encoding="utf-8")
    for cls in ("TwistedLinfOps", "LinfOps"):
        assert route_names(source, cls) & {"twist1_components", "twist2_components"} == set()


# What the linearization and obstruction routes of tests/test_cohomology.py
# must not reach: the twists other than through handle_for, and the oracles'
# hand-expanded d.
LINEARIZATION_AVOIDS = {
    "twist1_components", "twist2_components", "TwistedLinfOps", "exp_twist", "conjugate_twist",
    "cocycle_check_type1", "cocycle_check_type2", "consistency_l1_vs_d", "_ce_reference",
}


def test_linearization_reaches_the_twists_only_through_the_handle():
    # d_M(delta) = the eps-linear part of dmap_residual(Q, M + eps delta) is
    # evidence only while the test takes d from handle_for alone
    source = (REPO / "tests" / "test_cohomology.py").read_text(encoding="utf-8")
    names = route_names(source, "test_d_is_the_linearized_defining_identity")
    assert {"handle_for", "dmap_residual", "residual_coefficients"} <= names
    assert names & LINEARIZATION_AVOIDS == set()


def test_obstructions_reach_the_twists_only_through_the_handle():
    # d of the eps^2 part of dmap_residual(Q, M + eps delta) vanishing for a
    # cocycle delta is evidence only while the test takes d from handle_for alone
    source = (REPO / "tests" / "test_cohomology.py").read_text(encoding="utf-8")
    names = route_names(source, "test_obstructions_are_cocycles")
    assert {"handle_for", "dmap_residual", "residual_coefficients", "cocycle_basis"} <= names
    assert names & LINEARIZATION_AVOIDS == set()


# Each oracle of tests/oracles.py that these tests compare a production route
# against, with the names of that route, which the oracle must not reach.
CE_HANDLE = {"handle_for", "ce_differential", "CEComplexHandle", "twist2_components"}
PRODUCTION_ROUTES = {
    "ce_diff_matched_type2": CE_HANDLE,
    "zeta_value": CE_HANDLE,
    "_interpolate_quadratics": {"residual_polynomials", "ring", "SparseZZ"},
    "lie_ce_cohomology": CE_HANDLE | {"truncated_cohomology", "skew_basis", "cochain_coords", "d_block"},
    "graph_check": {"dmap1_residual", "dmap_residual", "_type1_tables"},
    "mc_bullet_components": {"check_mc_omega", "pc_residuals", "omega"},
    "_ce_reference": {
        "shuffle_sum", "shuffles", "_circle_sum", "ce_differential", "CEComplexHandle", "handle_for",
    },
}


@pytest.mark.parametrize("oracle", sorted(PRODUCTION_ROUTES))
def test_oracle_is_independent_of_its_production_route(oracle):
    # the matched-pair d^T, the interpolated rank-2 residuals, the dense Lie
    # algebra CE complex, the graph closure, the bullet list and the printed
    # CE sum check the generic handle, the ring evaluation, the truncated
    # cohomology, the type I residual, the PC cross-check and the shuffle sum
    # only while they share no code
    source = (REPO / "tests" / "oracles.py").read_text(encoding="utf-8")
    assert route_names(source, oracle) & PRODUCTION_ROUTES[oracle] == set()


def test_only_cochains_places_composites():
    # the shuffle sum of cochains places the composites of the circle product,
    # the NR bracket and the CE differential; a module that places its own
    # would run a second copy of that loop
    users = {
        path.stem
        for path in MODULES
        if path.stem != "ptensor" and _identifiers(ast.parse(path.read_text(encoding="utf-8")))["placed"]
    }
    assert users == {"cochains"}


# The deformation side of the dictionary, which zoo.operator_residual must not
# reach: the two residuals it compares are evidence only while they share no code.
DEFORMATION_SIDE = {
    "dmap_residual", "dmap1_residual", "dmap2_residual", "_type1_tables", "pc_residuals", "omega",
}


def test_operator_residual_is_independent_of_the_deformation_side():
    source = (PACKAGE_DIR / "zoo.py").read_text(encoding="utf-8")
    assert route_names(source, "operator_residual") & DEFORMATION_SIDE == set()
    assert "dmap_residual" in route_names(source, "dictionary_check")


def method_calls(source: str, *names) -> list:
    """Lines that call a method of one of these names."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in names
    )


def test_guard_sees_a_subs_call():
    assert method_calls("e = x.subs({y: 1})\nf = x.xreplace({y: 1})\n", "subs") == [1]
    assert method_calls("e = x.subs({y: 1})\nf = x.xreplace({y: 1})\n", "subs", "xreplace") == [1, 2]
    assert method_calls("import sympy\n\nq = sympy.expand(p).subs(y, 0)\n", "subs") == [3]
    assert method_calls("family.subs.get(y, y)\nsubs = {}\nsubs(1)\n", "subs") == []


def test_rank2_calls_no_subs_or_xreplace():
    # a family's values are field elements, which the solver's own kernels
    # substitute; a sympy substitution would bring expressions back
    source = (PACKAGE_DIR / "rank2.py").read_text(encoding="utf-8")
    assert method_calls(source, "subs", "xreplace") == []


def expression_calls(source: str) -> list:
    """(line, scope) of each call of `sympy.expand` or an `as_expr` method.
    The scope is the innermost enclosing def, or for a lambda the name it is
    assigned to."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    out = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)) or not (
                node.func.attr == "as_expr" or node.func.attr == "expand"
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "sympy"):
            continue
        scope = node
        while not isinstance(scope, (ast.FunctionDef, ast.Lambda, ast.Module)):
            scope = parents[scope]
        if isinstance(scope, ast.Lambda):
            while not isinstance(scope, (ast.Assign, ast.Module)):
                scope = parents[scope]
            name = ast.unparse(scope.targets[0]) if isinstance(scope, ast.Assign) else "<lambda>"
        else:
            name = getattr(scope, "name", "<module>")
        out.append((node.lineno, name))
    return sorted(out)


def test_guard_sees_an_expression_call():
    src = (
        "import sympy\n"
        "def report(p):\n    return str(sympy.expand(p.as_expr()))\n"
        "def solve(eqs):\n    key = memo(lambda p: p.as_expr())\n"
        "    def leaf(v):\n        return v.as_expr()\n"
        "    return sympy.expand(eqs), expand(eqs), f(lambda q: q.as_expr())\n"
    )
    assert expression_calls(src) == [
        (3, "report"), (3, "report"), (5, "key"), (7, "leaf"), (8, "<lambda>"), (8, "solve")]


# Where rank2 may build sympy expressions: the report builders, and the
# solver's sort key, which orders equations by their expressions
EXPRESSION_SCOPES = {"rank2_search", "lemma_special_case", "_sorted_strs", "sort_key"}


def test_rank2_builds_expressions_only_for_its_reports():
    calls = expression_calls((PACKAGE_DIR / "rank2.py").read_text(encoding="utf-8"))
    assert calls and [c for c in calls if c[1] not in EXPRESSION_SCOPES] == []


def resource_budgets(source: str) -> list:
    """(line, names) of each `raise ResourceError`: the module-level constants
    named in it or in the test of the `if` whose body raises it."""
    tree = ast.parse(source)
    constants = {
        t.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        for t in node.targets
        if isinstance(t, ast.Name) and t.id.isupper()
    }
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and _identifiers(node)["ResourceError"]:
            scope = [node]
            if isinstance(parents[node], ast.If):
                scope.append(parents[node].test)
            names = {n.id for part in scope for n in ast.walk(part) if isinstance(n, ast.Name)}
            out.append((node.lineno, sorted(names & constants)))
    return sorted(out)


def test_guard_sees_a_budget():
    src = (
        "CAP = 3\nLIMIT = 9\n"
        "def f(n, cap=CAP):\n    if n > LIMIT:\n        raise ResourceError(f'{n}')\n"
        "    if n > cap:\n        raise ResourceError(f'{n} of {CAP}')\n"
        "    if n < 0:\n        raise ResourceError('negative')\n"
        "    raise InputError(LIMIT)\n"
    )
    assert resource_budgets(src) == [(5, ["LIMIT"]), (7, ["CAP"]), (9, [])]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_budget_is_listed_on_resource_error(path):
    # each refusal names the constant it enforces, and ResourceError's
    # docstring, the one list of budgets, names that constant
    for line, names in resource_budgets(path.read_text(encoding="utf-8")):
        assert names, (path.name, line)
        for name in names:
            assert f"{path.stem}.{name}" in ResourceError.__doc__, (path.name, line, name)
