"""File schema round trips, CLI exit codes, and report determinism."""

import ast
import inspect
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from pseudoalg import io as pio
from pseudoalg import structures, zoo
from pseudoalg.cli import main
from pseudoalg.cohomology import ResourceError
from pseudoalg.cochains import Cochain, MixedMap, random_cochain
from pseudoalg.deformation import HModuleMap
from pseudoalg.ptensor import FreeModule
from pseudoalg.structures import QuasiTwilled

from conftest import count_calls, pt


def run_cli(args, capsys):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- schema ------------------------------------------------------------------------


def test_rational_parsing():
    assert pio.parse_rat("3/4") == Fraction(3, 4)
    assert pio.parse_rat("2") == Fraction(2)
    assert pio.parse_rat("-5/2") == Fraction(-5, 2)
    with pytest.raises(pio.ParseError):
        pio.parse_rat("1/0")
    with pytest.raises(pio.ParseError):
        pio.parse_rat("2/-3")
    with pytest.raises(pio.ParseError):
        pio.parse_rat("0.5")


def test_structure_roundtrip_all_zoo():
    # serialize o parse is the identity on files (byte-normalized form);
    # module names normalize to g/h, so compare structures through the schema
    from pseudoalg.structures import check_pc

    for entry in zoo.zoo_structures():
        blob = pio.dumps(pio.structure_to_json(entry["Q"]))
        Q2 = pio.structure_from_json(pio.loads(blob))
        blob2 = pio.dumps(pio.structure_to_json(Q2))
        assert blob == blob2
        assert check_pc(Q2)["ok"]


def test_map_roundtrip(rng, modified_r_q):
    Q = modified_r_q
    m = zoo.random_hmap(rng, Q.g, Q.h)
    blob = pio.dumps(pio.map_to_json(m, "g", "h"))
    m2 = pio.map_from_json(pio.loads(blob), Q.g, Q.h)
    assert m2 == m
    assert pio.dumps(pio.map_to_json(m2, "g", "h")) == blob


def test_cochain_roundtrip(rng, modified_r_q):
    Q = modified_r_q
    f = random_cochain(rng, Q.g, Q.h, 2, max_deg=2)
    blob = pio.dumps(pio.cochain_to_json(f))
    f2 = pio.cochain_from_json(pio.loads(blob))
    assert f2 == f
    assert pio.dumps(pio.cochain_to_json(f2)) == blob


def test_parse_rejects_bad_files():
    with pytest.raises(pio.ParseError):
        pio.structure_from_json({"schema_version": "2"})
    with pytest.raises(pio.ParseError):
        pio.structure_from_json(
            {"schema_version": "1", "hopf": {"generators": ["d"]}, "modules": {"g": {"basis": []}}}
        )
    with pytest.raises(pio.ParseError):
        pio.loads("{not json")


# -- CLI ----------------------------------------------------------------------------


@pytest.fixture
def files(tmp_path):
    bundle = zoo.demo_bundle(zoo.MODIFIED_R)
    Q = bundle["Q"]
    struct = tmp_path / "mr.json"
    struct.write_text(pio.dumps(pio.structure_to_json(Q)))
    good = tmp_path / "d2.json"
    good.write_text(pio.dumps(pio.map_to_json(bundle["map"], "g", "h")))
    bad = tmp_path / "d1.json"
    bad.write_text(
        pio.dumps(pio.map_to_json(HModuleMap.scalar(Q.g, Q.h, Fraction(1)), "g", "h"))
    )
    return {"struct": struct, "good": good, "bad": bad, "dir": tmp_path}


def test_cli_check_qt_pass(files, capsys):
    code, out, _ = run_cli(["check-qt", str(files["struct"])], capsys)
    assert code == 0 and "verdict: pass" in out


def test_cli_dmap_exit_codes(files, capsys):
    code, out, _ = run_cli(["dmap", "--type", "I", str(files["struct"]), str(files["good"])], capsys)
    assert code == 0
    code, out, _ = run_cli(["dmap", "--type", "I", str(files["struct"]), str(files["bad"])], capsys)
    assert code == 1
    assert '"q": "6/1"' in out  # the 3[x*x] residual in canonical form


def test_cli_parse_error_exit2(files, capsys, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    code, _out, err = run_cli(["check", str(broken)], capsys)
    assert code == 2
    # denominator zero in a rational
    data = json.loads(files["struct"].read_text())
    data["maps"]["mu"][0]["terms"][0]["q"] = "1/0"
    bad = tmp_path / "denzero.json"
    bad.write_text(json.dumps(data))
    code, _out, err = run_cli(["check", str(bad)], capsys)
    assert code == 2


def test_cli_validation_failure_exit1(files, capsys, tmp_path):
    # corrupt mu so PC8 fails but the file still parses
    data = json.loads(files["struct"].read_text())
    data["maps"]["mu"][0]["terms"] = [
        {"slots": [[1]], "coeff": [0], "basis": 0, "q": "1/1"},
        {"slots": [[0]], "coeff": [1], "basis": 0, "q": "-1/2"},
    ]
    bad = tmp_path / "badmu.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run_cli(["dmap", "--type", "I", str(bad), str(files["good"])], capsys)
    assert code == 1 and "[FAIL] load-validate" in out


def test_cli_check_qt_non_skew_omega_reports_fail(files, capsys, tmp_path):
    # pi(x, x) = (1 (x) 1) (x)_H x is not skew, so SKEW-pi fails; the NR
    # cross-check presumes a skew Omega but must still give a whole report
    data = json.loads(files["struct"].read_text())
    data["maps"]["pi"] = [
        {"args": [0, 0], "terms": [{"slots": [[0]], "coeff": [0], "basis": 0, "q": "1/1"}]}
    ]
    bad = tmp_path / "nonskew.json"
    bad.write_text(json.dumps(data))
    code, out, err = run_cli(["--json", "check-qt", str(bad)], capsys)
    assert code == 1 and err == ""
    report = json.loads(out)
    assert report["verdict"] == "fail"
    status = {c["name"]: c["status"] for c in report["checks"]}
    assert status["SKEW-pi"] == "fail"
    assert status["PC <-> NR component correspondence"] == "fail"
    assert status["PC verdict agrees with NR verdict"] == "pass"


@pytest.mark.parametrize(
    "cmd, target, edit",
    [
        ("dmap", "good", None),
        ("nr", "cochain", None),
        ("ce", "cochain", None),
        ("check", "struct", ["modules", "g", ["x"]]),
        ("check", "struct", ["maps", ["pi"]]),
        ("check", "struct", ["maps", "pi", [1]]),
        ("check", "struct", ["maps", "mu", 0, "terms", ["q"]]),
        ("check", "struct", ["hopf", "brackets", [2]]),
        ("dmap", "good", ["matrix", 0, 0, [3]]),
        ("nr", "cochain", ["table", [[0]]]),
        ("nr", "cochain", ["modules", "g", "basis"]),
        # a cochain file for another structure: ce checks its hopf and modules
        ("ce", "cochain", ["hopf", "not even an object"]),
        ("ce", "cochain", ["hopf", {"generators": ["t"], "brackets": []}]),
        ("ce", "cochain", ["modules", "g", "basis", ["y"]]),
        ("ce", "cochain", ["modules", "h", "basis", ["x'", "y'"]]),
        ("ce", "cochain", ["modules", {"g": {"basis": ["x"]}}]),
    ],
    ids=[
        "map-list", "nr-list", "ce-list", "modules-g-list", "maps-list", "map-entry-int",
        "term-str", "bracket-int", "map-term-int", "cochain-entry-list", "module-spec-str",
        "ce-hopf-str", "ce-other-hopf", "ce-other-g", "ce-other-h", "ce-no-h",
    ],
)
def test_cli_wrong_json_shape_exit2(files, capsys, tmp_path, rng, cmd, target, edit):
    # a file of the wrong shape, or a cochain file that does not match the
    # structure, is an input error (exit 2), not a traceback; edit None
    # replaces the whole file by [], else it is (keys..., new value)
    Q = pio.structure_from_json(pio.loads(files["struct"].read_text()))
    paths = {"struct": files["struct"], "good": files["good"], "cochain": tmp_path / "c.json"}
    paths["cochain"].write_text(pio.dumps(pio.cochain_to_json(random_cochain(rng, Q.g, Q.h, 1))))
    data = []
    if edit is not None:
        data = json.loads(paths[target].read_text())
        *keys, last, value = edit
        node = data
        for k in keys:
            node = node[k]
        node[last] = value
    paths[target] = tmp_path / "malformed.json"
    paths[target].write_text(json.dumps(data))
    argv = {
        "check": ["check", paths["struct"]],
        "dmap": ["dmap", "--type", "I", paths["struct"], paths["good"]],
        "nr": ["nr", paths["cochain"], paths["cochain"]],
        "ce": ["ce", "--type", "I", paths["struct"], paths["good"], paths["cochain"]],
    }[cmd]
    code, out, err = run_cli([str(a) for a in argv], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "keys, value",
    [
        (["maps", "mu", 0, "terms", 0, "slots"], 5),
        (["hopf", "generators"], 5),
        (["hopf", "brackets"], [{"i": 0, "j": 0, "coeffs": [["x", "1"]]}]),
        (["hopf", "brackets"], [{"i": 0, "j": 0, "coeffs": 5}]),
        (["modules", "g", "basis"], 5),
    ],
    ids=["slots-int", "generators-int", "bracket-index-str", "coeffs-int", "basis-int"],
)
def test_cli_wrong_type_inside_entry_exit2(capsys, tmp_path, keys, value):
    # a value of the wrong type inside an entry is an input error, not a traceback
    data = json.loads((GOLDEN_DIR / "modified_r.json").read_text())
    *path, last = keys
    node = data
    for k in path:
        node = node[k]
    node[last] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, err = run_cli(["check", str(bad)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:")


def _first_term(data):
    return data["maps"]["eta"][0]["terms"][0]


# One JSON boolean per place io reads an integer or a rational.  Python takes
# true and false for 1 and 0, so each of these files loaded before and `pa`
# exited 0 or 1 on it.
BOOLEAN_EDITS = {
    "term-q": ("modified_r.json", lambda d: _first_term(d).update(q=True)),
    "term-basis": ("modified_r.json", lambda d: _first_term(d).update(basis=False)),
    "term-exponent": ("modified_r.json", lambda d: _first_term(d).update(coeff=[True])),
    "bracket-i": ("modified_r.json", lambda d: d["hopf"]["brackets"].append(
        {"i": False, "j": 0, "coeffs": []})),
    "bracket-j": ("modified_r.json", lambda d: d["hopf"]["brackets"].append(
        {"i": 0, "j": False, "coeffs": []})),
    "bracket-coeff-index": ("modified_r.json", lambda d: d["hopf"]["brackets"].append(
        {"i": 0, "j": 0, "coeffs": [[False, "0"]]})),
    "cochain-arity": ("nr_g.json", lambda d: d.update(arity=True)),
}


@pytest.mark.parametrize("edit", sorted(BOOLEAN_EDITS))
def test_cli_json_boolean_is_not_a_number_exit2(capsys, tmp_path, edit):
    name, change = BOOLEAN_EDITS[edit]
    data = json.loads((GOLDEN_DIR / name).read_text())
    change(data)
    bad = tmp_path / name
    bad.write_text(json.dumps(data))
    if name == "nr_g.json":
        argv = ["nr", str(GOLDEN_DIR / "nr_f.json"), str(bad)]
    else:
        argv = ["check", str(bad)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "key, value",
    [
        ("args", ["a", 0]),
        ("args", 5),
        ("args", [0, 7]),
        ("args", [-1, 0]),
        ("args", [0.0, 0]),
        ("source", ["g"]),
    ],
    ids=["args-str", "args-int", "args-above-rank", "args-negative", "args-float", "source-list"],
)
def test_cli_nr_bad_cochain_entry_exit2(capsys, tmp_path, key, value):
    # args must be in-range ints and source/target module names, else exit 2
    data = json.loads((GOLDEN_DIR / "nr_f.json").read_text())
    (data["table"][0] if key == "args" else data)[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, err = run_cli(["nr", str(bad), str(GOLDEN_DIR / "nr_g.json")], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "command, name, table",
    [("nr", "nr_f.json", ("table",)), ("check-qt", "modified_r.json", ("maps", "mu"))],
    ids=["cochain-table", "structure-map"],
)
def test_cli_repeated_args_exit2(capsys, tmp_path, command, name, table):
    # a table entry may not repeat the args of an earlier one: it is refused,
    # neither summed (structure maps) nor overwriting (cochain tables)
    data = json.loads((GOLDEN_DIR / name).read_text())
    entries = data
    for key in table:
        entries = entries[key]
    entries.append(entries[0])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    extra = [str(GOLDEN_DIR / "nr_g.json")] if command == "nr" else []
    code, out, err = run_cli([command, str(bad), *extra], capsys)
    assert code == 2 and out == ""
    assert "appear twice" in err


@pytest.mark.parametrize("repeat", ["bracket", "coeffs"])
def test_hopf_repeated_bracket_exit2(capsys, tmp_path, b2, repeat):
    # a repeated bracket (i, j), or index in its coeffs, is refused: the last
    # one is not kept over the first, whether or not the two agree
    data = pio.structure_to_json(QuasiTwilled(FreeModule("g", ["u"], b2), FreeModule("h", ["x"], b2)))
    good = tmp_path / "b2.json"
    good.write_text(json.dumps(data))
    assert run_cli(["check", str(good)], capsys)[0] == 0
    brackets = data["hopf"]["brackets"]
    if repeat == "bracket":
        brackets.append({"i": 0, "j": 1, "coeffs": [["1", "2"]]})
    else:
        brackets[0]["coeffs"].append(["1", "1"])
    with pytest.raises(pio.ParseError, match="twice"):
        pio.hopf_from_json(data["hopf"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, err = run_cli(["check", str(bad)], capsys)
    assert code == 2 and out == ""
    assert "twice" in err


@pytest.mark.parametrize("degree", ["0", "-1"])
def test_cli_cohomology_rejects_arity_below_one(files, capsys, degree):
    args = ["cohomology", "--type", "I", str(files["struct"]), str(files["good"])]
    code, out, err = run_cli([*args, "--degree", degree, "--max-pbw", "1"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_cli_orientation_mismatch_exit2(files, capsys):
    code, _out, _err = run_cli(
        ["dmap", "--type", "II", str(files["struct"]), str(files["good"])], capsys
    )
    assert code == 2


def test_cli_usage_error_exit2(capsys):
    assert run_cli(["dmap"], capsys)[0] == 2
    assert run_cli(["nonsense"], capsys)[0] == 2


def test_cli_twist_writes_structure(files, capsys, tmp_path):
    out_path = tmp_path / "twisted.json"
    code, out, _ = run_cli(
        ["twist", "--type", "I", str(files["struct"]), str(files["bad"]), "-o", str(out_path)],
        capsys,
    )
    assert code == 1  # D = id is not a deformation map; routes still agree
    assert "[PASS] closed form equals bracket series" in out
    Q2 = pio.structure_from_json(pio.loads(out_path.read_text()))
    assert not Q2.theta.is_zero()


def test_cli_twist_type2_writes_no_structure_with_xi(capsys, tmp_path):
    # T = id is not a Reynolds operator, so xi != 0 and the twist is not
    # quasi-twilled: the report names xi and -o writes nothing
    Q = zoo.demo_bundle(zoo.REYNOLDS)["Q"]
    q, m, out_path = tmp_path / "q.json", tmp_path / "m.json", tmp_path / "twisted.json"
    q.write_text(pio.dumps(pio.structure_to_json(Q)))
    m.write_text(pio.dumps(pio.map_to_json(HModuleMap.scalar(Q.h, Q.g, 1), "h", "g")))
    code, out, _ = run_cli(["twist", "--type", "II", str(q), str(m), "-o", str(out_path)], capsys)
    assert code == 1
    assert "[FAIL] twisted structure quasi-twilled (xi = 0)" in out
    assert "[PASS] closed form equals bracket series" in out
    assert not out_path.exists()


def test_cli_nr_and_ce(files, capsys, tmp_path, rng):
    Q = pio.structure_from_json(pio.loads(files["struct"].read_text()))
    f = random_cochain(rng, Q.g, Q.g, 1, max_deg=1)
    fpath = tmp_path / "f.json"
    fpath.write_text(pio.dumps(pio.cochain_to_json(f)))
    g = random_cochain(rng, Q.g, Q.g, 2, max_deg=1)
    gpath = tmp_path / "g.json"
    gpath.write_text(pio.dumps(pio.cochain_to_json(g)))
    out_path = tmp_path / "nr.json"
    code, _o, _e = run_cli(["nr", str(fpath), str(gpath), "-o", str(out_path)], capsys)
    assert code == 0
    h = pio.cochain_from_json(pio.loads(out_path.read_text()))
    assert h.arity == 2
    # ce of a block cochain
    c = random_cochain(rng, Q.g, Q.h, 1, max_deg=1)
    cpath = tmp_path / "c.json"
    cpath.write_text(pio.dumps(pio.cochain_to_json(c)))
    ce_out = tmp_path / "dc.json"
    code, _o, _e = run_cli(
        ["ce", "--type", "I", str(files["struct"]), str(files["good"]), str(cpath), "-o", str(ce_out)],
        capsys,
    )
    assert code == 0
    dc = pio.cochain_from_json(pio.loads(ce_out.read_text()))
    assert dc.arity == 2


def test_cli_linf_and_cohomology(files, capsys):
    code, out, _ = run_cli(
        ["linf", "--type", "I", str(files["struct"]), "--max-arity", "3", "--seed", "7"],
        capsys,
    )
    assert code == 0
    code, out, _ = run_cli(
        [
            "cohomology",
            "--type",
            "I",
            str(files["struct"]),
            str(files["good"]),
            "--degree",
            "1",
            "--max-pbw",
            "1",
        ],
        capsys,
    )
    assert code == 0 and "dim_H" in out


def test_cli_dictionary(files, capsys):
    code, out, _ = run_cli(
        [
            "dictionary",
            "--kind",
            "modified_r",
            "--weight",
            "4",
            "--seed",
            "3",
            "--trials",
            "2",
            str(files["struct"]),
            str(files["good"]),
        ],
        capsys,
    )
    assert code == 0


def test_cli_check_qt_evaluates_pc_once(capsys, monkeypatch):
    # the PC lines are read off check_mc_omega's own residual tables
    calls = count_calls(monkeypatch, "pc_residuals", structures)
    code, out, _ = run_cli(["--json", "check-qt", str(GOLDEN_DIR / "modified_r.json")], capsys)
    assert code == 0 and calls == [1]
    assert [c["status"] for c in json.loads(out)["checks"]] == ["pass"] * 13


def test_cli_dictionary_evaluates_pc_once(files, capsys, monkeypatch):
    # PC1-PC8 are checked once, by build on the rebuilt structure, which equals
    # the loaded one whenever the command goes on; the load-validate line comes
    # first, and only without --no-validate
    calls = count_calls(monkeypatch, "pc_residuals", structures)
    args = ["--json", "dictionary", "--kind", "modified_r", "--weight", "4", "--trials", "1"]
    for flag, lines in (([], ["load-validate PC1-PC8"]), (["--no-validate"], [])):
        calls.clear()
        code, out, _ = run_cli([*args, *flag, str(files["struct"]), str(files["good"])], capsys)
        names = [c["name"] for c in json.loads(out)["checks"]]
        assert code == 0 and calls == [1]
        assert names[: len(lines)] == lines and names.count("load-validate PC1-PC8") == len(lines)


@pytest.mark.parametrize("weight", ["1e-1", "0.1", "4.0", "1/0"])
def test_cli_dictionary_weight_is_an_exact_rational(files, capsys, weight):
    # --weight takes the num/den form of every other rational in pa; decimal
    # and exponent notation are input errors, not silently read as 1/10
    args = ["--json", "dictionary", "--kind", "modified_r", "--weight", weight, "--trials", "1"]
    code, out, err = run_cli([*args, str(files["struct"]), str(files["good"])], capsys)
    assert code == 2 and out == ""
    assert "--weight" in err and repr(weight) in err


def test_cli_dictionary_refuses_a_weight_the_kind_ignores(tmp_path, capsys):
    # only modified_r, crossed_hom and relative_rb read --weight; any other
    # kind refuses it rather than parse it and run without it
    bundle = zoo.demo_bundle(zoo.DERIVATION)
    q, m = tmp_path / "q.json", tmp_path / "m.json"
    q.write_text(pio.dumps(pio.structure_to_json(bundle["Q"])))
    m.write_text(pio.dumps(pio.map_to_json(bundle["map"], "g", "h")))
    args = ["dictionary", "--kind", "derivation", str(q), str(m)]
    assert run_cli(args, capsys)[0] == 0
    code, out, err = run_cli([*args, "--weight", "7"], capsys)
    assert code == 2 and out == ""
    assert "derivation takes no weight" in err


def test_cli_dictionary_refuses_a_structure_its_kind_does_not_rebuild(capsys):
    # relative_rb's structure has a mu that the o_operator ingredients (no
    # coefficient algebra) cannot rebuild; dmap passes on the same files
    q, m = (str(GOLDEN_DIR / f) for f in ("relative_rb.json", "relative_rb_map.json"))
    assert run_cli(["dmap", "--type", "II", q, m], capsys)[0] == 0
    code, out, err = run_cli(["dictionary", "--kind", "o_operator", q, m], capsys)
    assert code == 2 and out == ""
    assert "rebuild other mu" in err


def test_cli_dictionary_refuses_a_module_its_kind_does_not_rebuild(files, capsys):
    # modified_r's h is a copy of g: an idle extra basis element of h, with an
    # empty extra map column, rebuilds every map but not the module h
    data = pio.loads(files["struct"].read_text())
    data["modules"]["h"]["basis"].append("y")
    q = files["dir"] / "wide.json"
    q.write_text(pio.dumps(data))
    matrix = pio.loads(files["good"].read_text())
    matrix["matrix"][0].append([])
    m = files["dir"] / "wide_map.json"
    m.write_text(pio.dumps(matrix))
    assert run_cli(["dmap", "--type", "I", str(q), str(m)], capsys)[0] == 0
    code, out, err = run_cli(["dictionary", "--kind", "modified_r", "--weight", "4", str(q), str(m)],
                             capsys)
    assert code == 2 and out == ""
    assert "module h with rank 1, not 2" in err


def test_cli_dictionary_refuses_a_symmetric_bracket_unvalidated(tmp_path, capsys):
    # with --no-validate nothing is checked at load; rebuilding the structure
    # from its derivation ingredients checks the algebra as SKEW-pi and PC2
    Q = zoo.demo_bundle(zoo.DERIVATION)["Q"]
    symmetric = Cochain(2, Q.g, Q.g, {(0, 0): pt(Q.g, [(0, 0, 0, 0, 1)])})
    q, m = tmp_path / "q.json", tmp_path / "m.json"
    q.write_text(pio.dumps(pio.structure_to_json(QuasiTwilled(Q.g, Q.h, pi=symmetric, rho=Q.rho))))
    m.write_text(pio.dumps(pio.map_to_json(HModuleMap.zero(Q.g, Q.h), "g", "h")))
    code, out, err = run_cli(["dictionary", "--no-validate", "--kind", "derivation", str(q), str(m)],
                             capsys)
    assert code == 2 and out == ""
    assert "'SKEW-pi'" in err


def test_cli_dictionary_refuses_a_map_of_the_other_type(capsys):
    # a crossed homomorphism is a map g -> h; reynolds_map.json is h -> g
    q, m = (str(GOLDEN_DIR / f) for f in ("crossed_hom.json", "reynolds_map.json"))
    assert run_cli(["dmap", "--type", "I", q, m], capsys)[0] == 2
    code, out, err = run_cli(["dictionary", "--kind", "crossed_hom", "--weight", "1", q, m],
                             capsys)
    assert code == 2 and out == ""
    assert "orientation" in err


def test_cli_dictionary_refuses_a_seed_without_trials(files, capsys):
    # --seed only draws the --trials random maps, so with none it is refused;
    # without --seed the report names the default seed 0
    args = ["dictionary", "--kind", "modified_r", "--weight", "4",
            str(files["struct"]), str(files["good"])]
    for extra in (["--seed", "1"], ["--seed", "0", "--trials", "0"]):
        code, out, err = run_cli([*args, *extra], capsys)
        assert code == 2 and out == ""
        assert "--seed" in err
    for extra, seed in (([], 0), (["--trials", "1"], 0), (["--seed", "5", "--trials", "1"], 5)):
        code, out, _ = run_cli([*args, *extra], capsys)
        assert code == 0 and f"seed: {seed}\n" in out


@pytest.mark.parametrize("trials", ["-3", "-1"])
def test_cli_dictionary_refuses_negative_trials(files, capsys, trials):
    # a negative count ran no trial and still reported pass
    args = ["dictionary", "--kind", "modified_r", "--weight", "4", "--trials", trials,
            str(files["struct"]), str(files["good"])]
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert "--trials" in err and trials in err


@pytest.mark.parametrize(
    "extra", [["virasoro"], ["-o", "q.json"], ["--map-out", "m.json"]],
    ids=["name", "out", "map-out"],
)
def test_cli_zoo_list_refuses_what_it_would_ignore(tmp_path, capsys, monkeypatch, extra):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["zoo", "--list", *extra], capsys)
    assert code == 2 and out == ""
    assert "--list" in err
    assert list(tmp_path.iterdir()) == []


def test_cli_timing_adds_wall_ms_only_when_set(files, capsys):
    args = ["check-qt", str(files["struct"])]
    for timing in ([], ["--timing"]):
        code, out, _ = run_cli([*timing, *args], capsys)
        assert code == 0
        assert ("\nwall_ms: " in out) == bool(timing)
        code, out, _ = run_cli(["--json", *timing, *args], capsys)
        assert code == 0
        assert ("wall_ms" in json.loads(out)) == bool(timing)


def test_cli_no_validate_drops_the_load_check(tmp_path, capsys):
    # a rho that is no action fails PC5, while the zero map still solves the
    # type II identity: the verdict follows the checks that run
    bundle = zoo.demo_bundle(zoo.O_OPERATOR)
    Q = bundle["Q"]
    bad_rho = MixedMap(Q.g, Q.h, Q.h, {(0, 0): pt(Q.h, [(0, 0, 0, 0, 1)])})
    q, m = tmp_path / "q.json", tmp_path / "m.json"
    q.write_text(pio.dumps(pio.structure_to_json(QuasiTwilled(Q.g, Q.h, pi=Q.pi, rho=bad_rho))))
    m.write_text(pio.dumps(pio.map_to_json(HModuleMap.zero(Q.h, Q.g), "h", "g")))
    args = ["--json", "dmap", "--type", "II", str(q), str(m)]
    reports = {}
    for flag in ([], ["--no-validate"]):
        code, out, _ = run_cli([*args, *flag], capsys)
        data = json.loads(out)
        reports[bool(flag)] = (code, data["verdict"],
                               [(c["name"], c["status"]) for c in data["checks"]])
    dmap_check = ("type II deformation-map identity", "pass")
    assert reports[False] == (1, "fail", [("load-validate PC1-PC8", "fail"), dmap_check])
    assert reports[True] == (0, "pass", [dmap_check])


@pytest.mark.parametrize("arity", ["0", "-3"])
def test_cli_linf_refuses_max_arity_below_one(files, capsys, arity):
    # no identity would be checked, so a "pass" would claim nothing
    args = ["linf", "--type", "I", str(files["struct"]), "--max-arity", arity]
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "name, out",
    [("modified_r", False), ("rank2_type_i", True), ("virasoro", True)],
    ids=["map-without-out", "no-map", "algebra"],
)
def test_cli_zoo_refuses_a_map_out_it_cannot_write(tmp_path, capsys, name, out):
    # --map-out is written only beside -o and only for a name with a map;
    # otherwise it is refused before any file is written
    q, m = tmp_path / "q.json", tmp_path / "m.json"
    args = ["zoo", name, "--map-out", str(m)] + (["-o", str(q)] if out else [])
    code, stdout, err = run_cli(args, capsys)
    assert code == 2 and stdout == ""
    assert "--map-out" in err
    assert list(tmp_path.iterdir()) == []


def test_cli_report_determinism(files, capsys):
    args = ["--json", "check-qt", str(files["struct"])]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert (code1, out1) == (code2, out2)
    data = json.loads(out1)
    assert data["conventions"]["permutation_variant"] == "aligned"
    assert data["conventions"]["ce_sign_convention"] == "classical"
    assert "wall_ms" not in data


def test_cli_zoo_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "vir2.json"
    code, _o, _e = run_cli(["zoo", "rank2_type_ii", "-o", str(out_path)], capsys)
    assert code == 0
    blob = out_path.read_text()
    Q = pio.structure_from_json(pio.loads(blob))
    redump = pio.dumps(pio.structure_to_json(Q, meta={"name": "rank2_type_ii"}))
    assert redump == blob
    code, _o, _e = run_cli(["check-qt", str(out_path)], capsys)
    assert code == 0


def cli_child(*args, cwd=None, timeout=None, **env):
    """Run `python -m pseudoalg.cli` in a fresh interpreter, in `cwd` if given.

    The child inherits this process's environment, with the directory this
    suite imported `pseudoalg` from put first on PYTHONPATH, so it imports the
    same `pseudoalg` from any working directory.  A child still running after
    `timeout` seconds is killed and raises `subprocess.TimeoutExpired`.
    """
    path = os.pathsep.join(
        filter(None, [str(Path(pio.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", "pseudoalg.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, **env},
        cwd=cwd,
        timeout=timeout,
    )


def test_cli_entry_point_subprocess():
    # the module entry point (what the `pa` console script calls) honors the
    # exit-code contract end to end in a fresh process
    out = cli_child("zoo", "--list")
    assert out.returncode == 0
    assert "virasoro" in out.stdout


def _builtin_names() -> set:
    """The names zoo.builtin serves: the kinds, the demo aliases and every
    string it compares `name` with."""
    names = set(zoo.ALL_KINDS) | set(zoo.DEMO_ALIASES)
    for node in ast.walk(ast.parse(inspect.getsource(zoo.builtin))):
        if isinstance(node, ast.Compare) and getattr(node.left, "id", None) == "name":
            names |= {
                c.value
                for comp in node.comparators
                for c in ast.walk(comp)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            }
    return names


def test_zoo_list_names_what_zoo_accepts(capsys):
    # every listed name is a `pa zoo` name, and every name zoo.builtin serves is listed
    code, out, _ = run_cli(["zoo", "--list"], capsys)
    assert code == 0
    listed = list(itertools.takewhile(lambda line: not line.startswith("#"), out.splitlines()))
    assert len(listed) == len(set(listed))
    assert set(listed) == _builtin_names()
    for name in listed:
        assert run_cli(["zoo", name], capsys)[0] == 0, name
    with pytest.raises(pio.InputError):
        zoo.builtin("no_such_structure")


def test_zoo_list_json_is_one_document(capsys):
    # with --json the names go into the report, so stdout parses as JSON
    code, out, _ = run_cli(["--json", "zoo", "--list"], capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["names"]) == len(set(data["names"]))
    assert set(data["names"]) == _builtin_names()
    assert data["verdict"] == "pass"


def test_rank2_report_identical_across_hash_seeds():
    # str hashing is salted per process; the report must not depend on it
    outs = [
        cli_child("--json", "rank2-search", "--max-deg", "1", PYTHONHASHSEED=seed)
        for seed in ("1", "3")
    ]
    assert [o.returncode for o in outs] == [1, 1]
    assert outs[0].stdout == outs[1].stdout
    assert json.loads(outs[0].stdout)["checks"][1]["status"] == "pass"


def test_rank2_search_over_unknowns_budget_exits_3():
    # degree 4 declares 42 unknowns, over rank2.MAX_UNKNOWNS: the search is
    # refused before any evaluation instead of running without limit
    out = cli_child("rank2-search", "--max-deg", "4", timeout=20)
    assert out.returncode == 3
    assert "42 unknowns" in out.stderr


def test_rank2_search_over_sum_budget_exits_3():
    # degree 3 passes MAX_UNKNOWNS, but early in its solve it meets a 29-term
    # sum, over rank2.MAX_FACTOR_TERMS, instead of running without limit
    out = cli_child("rank2-search", "--max-deg", "3", timeout=20)
    assert out.returncode == 3
    assert "sum of 29 terms (budget 24)" in out.stderr


def test_cli_cohomology_over_budget_exits_3_every_time(files, capsys):
    # an over-budget window is refused before it is built, so it is never
    # memoised: the same request in the same process is refused again
    args = ["cohomology", "--type", "I", str(files["struct"]), str(files["good"]),
            "--degree", "4", "--max-pbw", "40"]
    for _ in range(2):
        code, _out, err = run_cli(args, capsys)
        assert code == 3 and "budget" in err


def _leading_exponent(e: int, slot: int = 0) -> dict:
    """modified_r.json with the first term of theta, eta and mu at slot
    exponent `slot` and coefficient exponent e, of PBW degree slot + e."""
    data = json.loads((GOLDEN_DIR / "modified_r.json").read_text(encoding="utf-8"))
    for name in ("theta", "eta", "mu"):
        term = data["maps"][name][0]["terms"][0]
        term["slots"], term["coeff"] = [[slot]], [e]
    return data


@pytest.mark.parametrize("e", [400, 10**30])
def test_cli_input_degree_over_budget_exits_3(capsys, tmp_path, e):
    # refused at load: at e = 400 `pa check` ran for minutes, and at 10**30
    # it ended in an OverflowError traceback, which exits 1 and reads as FAIL
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(_leading_exponent(e)))
    t0 = time.perf_counter()
    code, _out, err = run_cli(["check", str(path)], capsys)
    assert code == 3 and "budget" in err
    assert time.perf_counter() - t0 < 1


def test_input_degree_budget_is_exact(modified_r_q):
    cap = pio.MAX_INPUT_DEGREE
    for slot in (0, 1):
        assert pio.structure_from_json(_leading_exponent(cap - slot, slot)).max_degree() == cap
        with pytest.raises(ResourceError):
            pio.structure_from_json(_leading_exponent(cap + 1 - slot, slot))
    data = pio.map_to_json(HModuleMap.zero(modified_r_q.g, modified_r_q.h))
    data["matrix"][0][0] = [{"exp": [cap], "q": "1"}]
    assert pio.map_from_json(data, modified_r_q.g, modified_r_q.h).apply_basis(0).degree() == cap
    data["matrix"][0][0] = [{"exp": [cap + 1], "q": "1"}]
    with pytest.raises(ResourceError):
        pio.map_from_json(data, modified_r_q.g, modified_r_q.h)


# No traceback on mutated inputs: each case deletes one key or list entry of one
# input file, or swaps in a value of another type, and runs the command
# in-process.  Every outcome must be an exit code of the contract.
MUTATED = {
    "check": ["check", "modified_r.json"],
    "check-qt": ["check-qt", "modified_r.json"],
    "dmap": ["dmap", "--type", "I", "modified_r.json", "modified_r_map.json"],
    "nr": ["nr", "nr_f.json", "nr_g.json"],
    "ce": ["ce", "--type", "II", "reynolds.json", "reynolds_map.json", "ce_II.json"],
    "cohomology": ["cohomology", "--type", "I", "modified_r.json", "modified_r_map.json",
                   "--degree", "2", "--max-pbw", "1"],
    "twist": ["twist", "--type", "I", "modified_r.json", "modified_r_map.json"],
    "linf": ["linf", "--type", "I", "modified_r.json", "--max-arity", "3"],
    "dictionary": ["dictionary", "--kind", "modified_r", "--weight", "4", "modified_r.json",
                   "modified_r_map.json"],
}
OTHER_TYPES = (None, True, -1, 0.5, "", "x", "1/0", [], [0], [[0]], {}, {"args": [0]})


def _mutate(data, rng):
    """data with one key or entry deleted, or one value replaced by another type's."""
    places = []

    def walk(node):
        if isinstance(node, (dict, list)):
            for key in node if isinstance(node, dict) else range(len(node)):
                places.append((node, key))
                walk(node[key])

    walk(data)
    node, key = rng.choice(places)
    if rng.random() < 0.3:
        del node[key]
    else:
        node[key] = rng.choice([v for v in OTHER_TYPES if type(v) is not type(node[key])])
    return data


@pytest.mark.parametrize("command", MUTATED)
def test_cli_mutated_inputs_never_escape(command, capsys, tmp_path):
    rng = random.Random(f"mutated-{command}")
    argv = MUTATED[command]
    inputs = [i for i, a in enumerate(argv) if a.endswith(".json")]
    escaped, codes = [], Counter()
    for case in range(100):
        target = rng.choice(inputs)
        data = _mutate(json.loads((GOLDEN_DIR / argv[target]).read_text()), rng)
        bad = tmp_path / f"{case}.json"
        bad.write_text(json.dumps(data))
        args = [str(GOLDEN_DIR / a) if i in inputs else a for i, a in enumerate(argv)]
        args[target] = str(bad)
        code = main(args)
        codes[code] += 1
        if code == 4:  # an unexpected exception: its traceback ends stderr
            escaped.append((case, argv[target], capsys.readouterr().err.splitlines()[-1]))
    capsys.readouterr()
    assert escaped == []
    assert set(codes) <= {0, 1, 2, 3} and codes[2] > 0, codes


def test_cli_unexpected_exception_exits_4_with_traceback(capsys, monkeypatch):
    # a fault in the program is not a FAIL (1): it exits 4, traceback on stderr
    def broken(Q):
        raise RuntimeError("kernel fault")

    monkeypatch.setattr("pseudoalg.cli.check_mc_omega", broken)
    assert main(["check-qt", str(GOLDEN_DIR / "modified_r.json")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):")
    assert err.splitlines()[-1] == "RuntimeError: kernel fault"


# Golden reports: tests/golden holds the inputs (written by `pa zoo`, plus each
# demo map scaled by 1/2, which is not a deformation map and so gives residual
# dumps with non-integral coefficients, and four cochain files) and the exact
# stdout of each command, run from that directory.  A command that writes files
# also has each written file there, under the name it writes.
# name -> (argv, exit code, written files).
GOLDEN_DIR = Path(__file__).parent / "golden"


def _golden_commands():
    commands = {
        "rank2_search_deg1": (["--json", "rank2-search", "--max-deg", "1"], 1, ()),
        "cohomology_relative_rb_II": (
            ["--json", "cohomology", "--type", "II", "relative_rb.json", "relative_rb_map.json",
             "--degree", "3", "--max-pbw", "4"],
            0,
            (),
        ),
        "nr": (["--json", "nr", "nr_f.json", "nr_g.json", "-o", "nr_out.json"], 0, ("nr_out.json",)),
    }
    for kind, typ in (("modified_r", "I"), ("reynolds", "II")):
        q, m = f"{kind}.json", f"{kind}_map.json"
        commands.update({
            f"check_{kind}": (["--json", "check", q], 0, ()),
            f"check_qt_{kind}": (["--json", "check-qt", q], 0, ()),
            f"linf_{kind}": (["--json", "linf", "--type", typ, q, "--max-arity", "3"], 0, ()),
            f"cohomology_{kind}": (
                ["--json", "cohomology", "--type", typ, q, m, "--degree", "2", "--max-pbw", "2"],
                0,
                (),
            ),
            f"ce_{typ}": (
                ["--json", "ce", "--type", typ, q, m, f"ce_{typ}.json", "-o", f"ce_{typ}_out.json"],
                0,
                (f"ce_{typ}_out.json",),
            ),
            f"twist_out_{kind}": (
                ["--json", "twist", "--type", typ, q, m, "-o", f"twisted_{kind}.json"],
                0,
                (f"twisted_{kind}.json",),
            ),
        })
    weights = {"modified_r": "4", "crossed_hom": "1", "relative_rb": "2"}
    for kind in zoo.ALL_KINDS:
        typ = "I" if kind in zoo.TYPE_I_KINDS else "II"
        q, m, half = f"{kind}.json", f"{kind}_map.json", f"{kind}_half_map.json"
        weight = ["--weight", weights[kind]] if kind in weights else []
        commands.update({
            f"zoo_{kind}": (["--json", "zoo", kind, "-o", q, "--map-out", m], 0, (q, m)),
            f"dmap_{kind}": (["--json", "dmap", "--type", typ, q, m], 0, ()),
            f"dmap_{kind}_half": (["--json", "dmap", "--type", typ, q, half], 1, ()),
            f"twist_{kind}": (["--json", "twist", "--type", typ, q, m], 0, ()),
            f"twist_{kind}_half": (["--json", "twist", "--type", typ, q, half], 1, ()),
            f"dictionary_{kind}": (
                ["--json", "dictionary", "--kind", kind, *weight, "--trials", "2", q, m],
                0,
                (),
            ),
        })
    return commands


GOLDEN = _golden_commands()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_report_identical_across_hash_seeds(name, tmp_path):
    # same bytes and exit code as the committed golden, under two hash seeds;
    # a command that writes files runs in a copy of the directory with those
    # files removed first, and each file it writes must equal the golden one
    argv, code, written = GOLDEN[name]
    expect = (GOLDEN_DIR / f"{name}.out").read_text(encoding="utf-8")
    cwd = GOLDEN_DIR
    if written:
        cwd = tmp_path / "golden"
        shutil.copytree(GOLDEN_DIR, cwd)
    for seed in ("1", "3"):
        for f in written:
            (cwd / f).unlink()
        out = cli_child(*argv, cwd=cwd, PYTHONHASHSEED=seed)
        assert (out.returncode, out.stdout) == (code, expect), (seed, out.stderr)
        for f in written:
            assert (cwd / f).read_bytes() == (GOLDEN_DIR / f).read_bytes(), (seed, f)


@pytest.mark.parametrize("kind", ["modified_r", "reynolds"])
def test_demo_alias_writes_its_kinds_golden_files(kind, tmp_path, capsys):
    # `<kind>_demo` names the kind's demo bundle: the golden structure file
    # under the alias's name, and the golden map file byte for byte
    alias = f"{kind}_demo"
    q, m = tmp_path / "q.json", tmp_path / "m.json"
    code, _, err = run_cli(["zoo", alias, "-o", str(q), "--map-out", str(m)], capsys)
    assert code == 0, err
    golden = (GOLDEN_DIR / f"{kind}.json").read_bytes()
    assert golden.count(f'"name": "{kind}"'.encode()) == 1
    assert q.read_bytes() == golden.replace(f'"name": "{kind}"'.encode(), f'"name": "{alias}"'.encode())
    assert m.read_bytes() == (GOLDEN_DIR / f"{kind}_map.json").read_bytes()
