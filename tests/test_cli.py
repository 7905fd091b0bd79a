"""CLI surface: commands, exit codes, schema-stable JSON, rendering."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hcm import barpage, cli, f2linalg, render, resolution as rs, stmodule as sm
from hcm.stems_data import BUNDLED_STEMS


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    payload = json.loads(out) if out.strip() else {}
    return code, payload, err


def sha256_of(obj) -> str:
    """The digest of ``obj``'s sorted-key JSON: the chart pins' recipe."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def test_ext_builtin_d2_chart(capsys):
    code, out, err = run(capsys, "ext", "--module", "builtin:d2-o", "--n", "16",
                         "--max-s", "3")
    assert code == 0
    assert "Q0(y15)" in out and "h1·Q1(y15)" in out
    assert err == ""


def test_ext_sphere_row(capsys):
    code, payload, _ = run_json(capsys, "ext", "--module", "builtin:sphere",
                                "--max-s", "3", "--max-t", "8")
    assert code == 0 and payload["schema"] == 1
    dims = {(s, t): d for s, t, d in payload["chart"]["dims"]}
    assert dims[(1, 1)] == dims[(1, 2)] == dims[(1, 4)] == dims[(1, 8)] == 1


def test_ext_missing_file_exit_2(capsys):
    code, out, err = run(capsys, "ext", "--module", "missing.json")
    assert code == 2
    assert out == "" and "missing.json" in err


def test_unknown_builtin_exit_2(capsys):
    code, out, err = run(capsys, "ext", "--module", "builtin:nope")
    assert (code, out, err) == (2, "", "error: unknown builtin module 'nope'\n")


def test_builtin_n_checked_once(capsys):
    # A residue without cell data is one range error, whichever module needs it.
    errs = set()
    for name in ("o", "d2-o", "tensor-o"):
        code, out, err = run(capsys, "ext", "--module", f"builtin:{name}", "--n", "14")
        assert code == 3 and out == "" and err.startswith("error:") and "o:6" not in err
        errs.add(err)
    assert len(errs) == 1
    # So is an n below 3, before its residue is looked at (-7 is 1 mod 8).
    errs = set()
    for name in ("o", "d2-o", "tensor-o"):
        for n in ("1", "0", "-7"):
            code, out, err = run(capsys, "ext", "--module", f"builtin:{name}", "--n", n)
            assert code == 3 and out == "", (name, n)
            errs.add(err)
    assert errs == {"error: n must be at least 3\n"}
    for name in ("o", "o:0", "o:1", "o:4", "Z", "d2-o", "d2-sphere", "d2-Z", "tensor-o"):
        code, out, err = run(capsys, "ext", "--module", f"builtin:{name}")
        assert code == 2 and out == "" and "needs --n" in err, name
    code, _, err = run(capsys, "ext", "--module", "builtin:o:1", "--n", "16")
    assert code == 2 and "'o:1' needs n = 1 mod 8" in err


def test_n_rejected_where_it_does_not_apply(tmp_path, capsys):
    # The sphere and a module file have no n, so an --n given to either
    # is an error, not silently dropped.
    path = _module_file(tmp_path)
    for argv in (("ext", "--module", "builtin:sphere", "--n", "7", "--max-s", "1", "--max-t", "3"),
                 ("d2", "--module", "builtin:sphere", "--n", "3"),
                 ("ext", "--module", path, "--n", "5", "--max-s", "1"),
                 ("d2", "--module", path, "--n", "5")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: --n does not apply to ") and err.count("\n") == 1, argv


def test_ext_empty_sphere_range_exit_3(capsys):
    for flag in ("--max-s", "--max-t"):
        code, out, err = run(capsys, "ext", "--module", "builtin:sphere", flag, "-1")
        assert (code, out, err) == (3, "", "error: empty resolution range\n"), flag


def _drop_a_relation(monkeypatch):
    real = rs._Stage.kernel

    def lossy(self, t, piv):
        return list(real(self, t, piv))[:-1]

    monkeypatch.setattr(rs._Stage, "kernel", lossy)


def _repeat_a_relation(monkeypatch):
    # The basis of the kernel off the image's pivots gains a copy of one of
    # its vectors: the span, and so every generator drawn from it, is
    # unchanged, and only the check on the basis's size can see it.
    real = f2linalg.relations

    def repeated(rows):
        rels = real(rows)
        return rels + rels[-1:]

    monkeypatch.setattr(f2linalg, "relations", repeated)


def _zero_an_augmentation(monkeypatch):
    # Stage 0 draws each generator into its own pivot table, so only the
    # recount of the images it recorded can see an augmentation of 0.
    real = rs._Stage.add_generator

    def zeroed(self, t, image, label):
        real(self, t, 0 if self.prev is None else image, label)

    monkeypatch.setattr(rs._Stage, "add_generator", zeroed)


def _corrupt_a_known_row(monkeypatch):
    monkeypatch.setitem(barpage._EXPECTED, 0, ((2,), (2,), (2,)))


@pytest.mark.parametrize("break_engine, argv, message", [
    (_drop_a_relation, ("ext", "--module", "builtin:sphere", "--max-s", "4", "--max-t", "12"),
     "resolution not exact"),
    (_repeat_a_relation, ("ext", "--module", "builtin:sphere", "--max-s", "4", "--max-t", "12"),
     "resolution not exact at stage 1, degree 1: image rank 0 plus 2 relations off its "
     "pivots, kernel dim 1"),
    (_zero_an_augmentation, ("ext", "--module", "builtin:sphere", "--max-s", "4", "--max-t", "12"),
     "resolution not exact at stage 0, degree 0: image dim 0, expected 1"),
    (_corrupt_a_known_row, ("bar-e1", "--n", "16"), "computed summand"),
], ids=["resolver", "kernel-basis-size", "zero-augmentation", "bar-page"])
def test_engine_self_check_exit_5(capsys, monkeypatch, break_engine, argv, message):
    # A bug caught by the engine's own self-check is not bad input.
    monkeypatch.delenv("HCM_CACHE_DIR", raising=False)
    break_engine(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert code == 5 and out == ""
    assert err.startswith("error: " + message) and "Traceback" not in err


def _module_file(tmp_path, **change):
    obj = {"window": [0, 3],
           "cells": [{"label": "a", "degree": 1}, {"label": "b", "degree": 2}],
           "edges": [{"from": "b", "to": "a", "sq": 1}],
           "unstable": False}
    for key, value in change.items():
        if key == "degree":
            obj["cells"][0]["degree"] = value
        elif key == "sq":
            obj["edges"][0]["sq"] = value
        else:
            obj[key] = value
    path = tmp_path / "module.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("field, value", [
    ("degree", 1.9), ("degree", True), ("degree", "1"),
    ("window", [0.7, 3.9]), ("window", [False, 3]),
    ("sq", 1.2),
    ("unstable", "no"), ("unstable", "false"), ("unstable", 0),
])
def test_module_fields_are_read_by_type(tmp_path, capsys, field, value):
    # A value of the wrong JSON type is rejected, never truncated or coerced.
    code, _, _ = run(capsys, "ext", "--module", _module_file(tmp_path), "--max-s", "2")
    assert code == 0
    code, out, err = run(capsys, "ext", "--module", _module_file(tmp_path, **{field: value}),
                         "--max-s", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: bad module JSON:") and repr(field) in err


@pytest.mark.parametrize("where, key, value", [
    ("cell", "label", 5), ("edge", "from", 5), ("edge", "to", 5),
    ("module", "unstabel", False), ("module", "extra", 1),
    ("cell", "extra", 1), ("edge", "extra", 1),
])
def test_module_names_are_strings_and_keys_are_known(tmp_path, capsys, where, key, value):
    # A number where a name belongs is not turned into a name, and a key
    # the format does not have (a typo included) is not dropped.
    obj = json.loads(Path(_module_file(tmp_path)).read_text(encoding="utf-8"))
    {"module": obj, "cell": obj["cells"][0], "edge": obj["edges"][0]}[where][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, out, err = run(capsys, "ext", "--module", str(path), "--max-s", "1", "--json")
    assert (code, out) == (2, "")
    assert err.startswith("error: bad module JSON:") and repr(key) in err


def test_module_warnings_go_to_stderr(tmp_path, capsys):
    # No Sq^2 edge from b (degree 7) to a (degree 5): the action defaults
    # to zero and both ext and d2 say so on stderr, leaving stdout as data.
    obj = {"window": [5, 7], "cells": [{"label": "a", "degree": 5}, {"label": "b", "degree": 7}],
           "unstable": False}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    module = sm.from_json(obj)
    assert module.warnings == ("Sq^2 on a defaulted to zero (degree 7 inhabited)",)
    line = "warning: Sq^2 on a defaulted to zero (degree 7 inhabited)\n"
    code, payload, err = run_json(capsys, "ext", "--module", str(path), "--max-s", "2")
    assert (code, err) == (0, line)
    chart = rs.ext_chart(rs.minimal_resolution(module, 2, 9))
    assert payload["chart"] == json.loads(json.dumps(chart.to_json()))
    for extra in ((), ("--json",)):
        code, out, err = run(capsys, "d2", "--module", str(path), *extra)
        assert (code, err) == (0, line) and "warning" not in out and "Q2(a)" in out
    obj["edges"] = [{"from": "b", "to": "a", "sq": 2}]
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, _, err = run(capsys, "ext", "--module", str(path), "--max-s", "2")
    assert (code, err) == (0, "")


def test_ext_svg(capsys):
    code, out, _ = run(capsys, "ext", "--module", "builtin:d2-o", "--n", "12",
                       "--format", "svg")
    assert code == 0 and out.startswith("<svg") and "circle" in out


def test_ext_out_file(tmp_path, capsys):
    target = tmp_path / "chart.txt"
    code, out, _ = run(capsys, "--out", str(target),
                       "ext", "--module", "builtin:d2-o", "--n", "16")
    assert code == 0 and out == ""
    assert "Q0(y15)" in target.read_text(encoding="utf-8")


@pytest.mark.parametrize("module", ["builtin:sphere", "empty"])
def test_out_file_equals_stdout(tmp_path, capsys, module):
    # The chart of a module with no cells ends in a blank line; the file keeps it.
    if module == "empty":
        module = str(tmp_path / "empty.json")
        Path(module).write_text('{"window": [0, 3], "cells": []}', encoding="utf-8")
    argv = ("ext", "--module", module, "--max-s", "2")
    code, out, _ = run(capsys, *argv)
    target = tmp_path / "chart.txt"
    assert code == 0 and run(capsys, "--out", str(target), *argv) == (0, "", "")
    assert target.read_text(encoding="utf-8") == out


def test_out_to_an_unwritable_path_exit_2(tmp_path, capsys):
    # A missing directory and a path that is a directory: one typed error
    # that names the path, no traceback, nothing on stdout.
    for target in (tmp_path / "missing" / "x", tmp_path):
        code, out, err = run(capsys, "--out", str(target), "bar-e1", "--n", "20")
        assert code == 2 and out == ""
        assert err.startswith("error:") and str(target) in err and err.count("\n") == 1


def test_d2_command(capsys):
    code, out, _ = run(capsys, "d2", "--module", "builtin:o", "--n", "17")
    assert code == 0
    assert "y16·y17" in out and "Sq_2: Q0(y17) -> Q0(y16)" in out


def test_d2_range_error_exit_3(capsys):
    code, out, err = run(capsys, "d2", "--module", "builtin:o", "--n", "17",
                         "--lo", "32", "--hi", "60")
    assert code == 3 and "error" in err


@pytest.mark.parametrize("flag", ["--lo", "--hi"])
def test_d2_half_window_exit_2(capsys, flag):
    # One window flag alone is not silently replaced by the default window.
    code, out, err = run(capsys, "d2", "--module", "builtin:o", "--n", "16", flag, "31")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "--lo" in err and "--hi" in err


@pytest.mark.parametrize("cells, code, message", [
    ([], 2, "cannot form the quadratic power of a zero module"),
    ([{"label": "a", "degree": 0}], 3, "no quadratic window above degree 0: "),
])
def test_d2_without_a_quadratic_window(tmp_path, capsys, cells, code, message):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"window": [0, 3], "cells": cells}), encoding="utf-8")
    got, out, err = run(capsys, "d2", "--module", str(path))
    assert (got, out) == (code, "") and err.startswith(f"error: {message}")


def test_d2_reversed_window_exit_2(capsys):
    # The error names the window given, not the default one.
    code, out, err = run(capsys, "d2", "--module", "builtin:o", "--n", "16",
                         "--lo", "40", "--hi", "30")
    assert (code, out) == (2, "")
    assert err == "error: --lo 40 is above --hi 30\n"


def test_bar_e1(capsys):
    code, out, _ = run(capsys, "bar-e1", "--n", "17")
    assert code == 0
    assert "Z/4" in out
    code, payload, _ = run_json(capsys, "bar-e1", "--n", "16")
    assert code == 0 and payload["n"] == 16
    entry = [e for e in payload["entries"] if e["s"] == 2][0]
    assert entry["summands"][0]["group"] == {"free_rank": 0, "torsion": [2]}


def test_bar_e1_exceptional_exit_3(capsys):
    code, _, err = run(capsys, "bar-e1", "--n", "8")
    assert code == 3 and "exceptional" in err


def test_bounds_table_text_and_csv(capsys):
    code, out, _ = run(capsys, "bounds", "table", "--from", "25", "--to", "32")
    assert code == 0
    assert "paper-discrepancy" in out and "15.2" in out
    code, out, _ = run(capsys, "bounds", "table", "--from", "25", "--to", "32", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,2M1-3")
    assert lines[1].split(",")[1] == "15"
    assert any("paper-discrepancy" in line for line in lines)
    # fraction column present
    assert lines[1].split(",")[3] == "76/5"


def test_bounds_scan(capsys):
    code, out, _ = run(capsys, "bounds", "scan", "--case", "d1")
    assert code == 0 and "N = 26" in out and "Prop 5.6" in out
    code, payload, _ = run_json(capsys, "bounds", "scan", "--case", "d2-mod0")
    assert code == 0 and payload["N"] == 48 and payload["dominance"]["certified"]


def test_bounds_check(capsys):
    code, out, _ = run(capsys, "bounds", "check", "--k", "52", "--s", "17", "--l", "1")
    assert code == 0 and "all conditions hold" in out
    code, payload, _ = run_json(capsys, "bounds", "check", "--k", "52", "--s", "17", "--l", "1")
    assert code == 0 and payload["all_hold"] is True
    assert set(payload) == {"schema", "k", "s", "l", "all_hold", "conditions"}
    assert [c["name"] for c in payload["conditions"]] == ["filtration", "stem", "davis-mahowald"]
    assert all(set(c) == {"name", "holds", "lhs", "rhs", "margin"} for c in payload["conditions"])


def test_bounds_check_bad_s_exit_2(capsys):
    for s in ("abc", "1/0"):
        code, out, err = run(capsys, "bounds", "check", "--k", "52", "--s", s, "--l", "1")
        assert code == 2 and out == "", s
        assert err.startswith("error:") and repr(s) in err and err.count("\n") == 1


def test_classify_output(capsys):
    code, out, _ = run(capsys, "classify", "--n", "9", "--normal-h", "1")
    assert code == 0
    assert "Z/8" in out and "bSpin_19" in out and "[Thm 1.2]" in out
    code, payload, _ = run_json(capsys, "classify", "--n", "63")
    assert code == 0 and "open" in payload["status"]
    assert payload["citations"]


def test_classify_invariant_flag_only_for_its_n(capsys):
    # --p1 decides n = 4, --p2 n = 8 and --normal-h n = 9; a flag given
    # with any other n is bad input, never read as another n's invariant.
    for argv in (["--n", "8", "--p1", "7"], ["--n", "4", "--p1", "8", "--p2", "3"],
                 ["--n", "5", "--p2", "7"], ["--n", "4", "--normal-h", "0"],
                 ["--n", "9", "--p1", "8", "--normal-h", "1"]):
        code, out, err = run(capsys, "classify", *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and err.count("\n") == 1, argv
    for argv, inertia in ((["--n", "4", "--p1", "8"], "I(M) = 0 "),
                          (["--n", "4", "--p1", "4"], "I(M) = Z/2"),
                          (["--n", "8", "--p2", "7"], "I(M) = Z/2"),
                          (["--n", "9", "--normal-h", "0"], "I(M) = 0 ")):
        code, out, _ = run(capsys, "classify", *argv)
        assert code == 0 and inertia in out, argv


def test_classify_citations_always_present(capsys):
    for n in ("3", "4", "8", "9", "10", "63", "64"):
        code, out, _ = run(capsys, "classify", "--n", n)
        assert code == 0 and "Thm" in out


def test_stems_queries(capsys):
    code, out, _ = run(capsys, "stems", "query", "--stem", "7")
    assert code == 0 and "Z/16" in out and "im J order 16" in out
    code, out, _ = run(capsys, "stems", "query", "--product", "sigma", "mu9")
    assert code == 0 and "eta*rho" in out
    code, _, err = run(capsys, "stems", "query", "--stem", "99")
    assert code == 2


def test_stems_product_json(capsys):
    code, payload, _ = run_json(capsys, "stems", "query", "--product", "sigma", "mu9")
    assert code == 0
    assert payload == {"schema": 1, "a": "sigma", "b": "mu9", "result": "eta*rho",
                       "note": "lands in the image of J", "stems": [7, 9]}
    code, out, err = run(capsys, "stems", "query", "--product", "eta", "eta", "--json")
    assert (code, out, err) == (2, "", "error: no recorded product eta * eta\n")


def test_stems_second_record_for_a_stem_exit_2(tmp_path, capsys):
    rec = {"k": 7, "cyclic_orders": [16], "im_j_order": 16,
           "generators": [{"label": "first"}]}
    path = tmp_path / "stems.json"
    path.write_text(json.dumps({"stems": [rec, {**rec, "generators": [{"label": "second"}]}]}),
                    encoding="utf-8")
    code, out, err = run(capsys, "--stems", str(path), "stems", "query", "--stem", "7")
    assert (code, out) == (2, "")
    assert err == "error: bad stems JSON: stems[1]: a second record for stem 7\n"


@pytest.mark.parametrize("a, b", [("mu9", "sigma"), ("mu", "h3")])
def test_stems_second_product_for_a_pair_exit_2(tmp_path, capsys, a, b):
    # The bundled data already records sigma * mu9; a second product for
    # the pair, in either order or by aliases, once loaded and lost to the
    # first.
    data = {**BUNDLED_STEMS,
            "products": BUNDLED_STEMS["products"] + [{"a": a, "b": b, "result": "0"}]}
    path = tmp_path / "stems.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "--stems", str(path), "stems", "query", "--product", "mu9",
                         "sigma")
    assert (code, out) == (2, "")
    assert err == (f"error: bad stems JSON: product {a} * {b}: a second product for "
                   "mu9 and sigma\n")


def _nu_product_file(tmp_path, b):
    obj = {"stems": [{"k": 3, "cyclic_orders": [8], "im_j_order": 8,
                      "generators": [{"label": "nu", "aliases": ["h2"], "im_j": True}]}],
           "products": [{"a": "h2", "b": b, "result": "0", "note": "by hand"}]}
    path = tmp_path / "stems.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_stems_product_named_by_an_alias_is_found(tmp_path, capsys):
    # A product is stored under its factors' canonical labels, so it is
    # found whichever of their names the file or the query uses.
    path = _nu_product_file(tmp_path, "h2")
    for a, b in (("h2", "h2"), ("nu", "h2"), ("nu", "nu")):
        code, out, err = run(capsys, "--stems", path, "stems", "query", "--product", a, b)
        assert (code, out, err) == (0, "nu * nu = 0  (by hand)\n", ""), (a, b)


def test_stems_product_naming_an_unknown_label_exit_2(tmp_path, capsys):
    path = _nu_product_file(tmp_path, "nosuch")
    code, out, err = run(capsys, "--stems", path, "stems", "query", "--stem", "3")
    assert (code, out) == (2, "")
    assert err == "error: bad stems JSON: unknown generator label 'nosuch'\n"


def _eta_nu_file(tmp_path, eta=None, nu=None, products=()):
    eta = {"k": 1, "cyclic_orders": [2], "im_j_order": 2, "generators": [{"label": "eta"}],
           **(eta or {})}
    nu = {"k": 3, "cyclic_orders": [8], "im_j_order": 8, "generators": [{"label": "nu"}],
          **(nu or {})}
    path = tmp_path / "stems.json"
    path.write_text(json.dumps({"stems": [eta, nu], "products": list(products)}),
                    encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("order", [0, -2])
def test_stems_im_j_order_below_1_exit_2(tmp_path, capsys, order):
    # 0 once divided the group's order and crashed; -2 loaded and was printed.
    path = _eta_nu_file(tmp_path, eta={"im_j_order": order})
    code, out, err = run(capsys, "--stems", path, "stems", "query", "--stem", "1")
    assert (code, out) == (2, "")
    assert err == f"error: bad stems JSON: stems[0]: im_j_order must be at least 1, got {order}\n"


@pytest.mark.parametrize("eta, nu, named", [
    ({}, {"generators": [{"label": "nu", "aliases": ["eta"]}]}, "'eta' is named twice, in stem 1 "
                                                               "and in stem 3"),
    ({}, {"relations": [{"label": "eta", "sum": ["nu"]}]}, "'eta' is named twice, in stem 1 "
                                                          "and in stem 3"),
    ({"generators": [{"label": "eta", "aliases": ["eta"]}]}, {}, "'eta' is named twice, in stem 1 "
                                                                "and in stem 1"),
])
def test_stems_label_named_twice_exit_2(tmp_path, capsys, eta, nu, named):
    # Before, the later name won: eta resolved to nu and "eta * eta" read nu * nu.
    path = _eta_nu_file(tmp_path, eta, nu, [{"a": "nu", "b": "nu", "result": "0"}])
    code, out, err = run(capsys, "--stems", path, "stems", "query", "--product", "eta", "eta")
    assert (code, out, err) == (2, "", f"error: bad stems JSON: label {named}\n")


@pytest.mark.parametrize("result", ["nonsense", "nu"])
def test_stems_product_result_outside_its_stem_exit_2(tmp_path, capsys, result):
    # A nonzero result must name a class of stem k_a + k_b: "nonsense" names
    # nothing, and nu sits in stem 3, not 2.
    path = _eta_nu_file(tmp_path, products=[{"a": "eta", "b": "eta", "result": result}])
    code, out, err = run(capsys, "--stems", path, "stems", "query", "--product", "eta", "eta")
    assert (code, out) == (2, "")
    assert err == (f"error: bad stems JSON: product eta * eta: result {result!r} names nothing "
                   "in stem 2\n")


def test_stems_product_result_named_by_an_alias_loads(tmp_path, capsys):
    path = _eta_nu_file(tmp_path, nu={"k": 2, "cyclic_orders": [2], "im_j_order": 1,
                                      "generators": [{"label": "eta^2", "aliases": ["h1^2"]}]},
                        products=[{"a": "eta", "b": "eta", "result": "h1^2"}])
    code, out, err = run(capsys, "--stems", path, "stems", "query", "--product", "eta", "eta")
    assert (code, out, err) == (0, "eta * eta = h1^2\n", "")


@pytest.mark.parametrize("total", [["nonsense", "eta"], [], ["eta", "h1"], ["nu"]])
def test_stems_relation_sum_names_distinct_generators_of_its_stem_exit_2(tmp_path, capsys,
                                                                          total):
    # Before, every one of these loaded: a name of nothing, an empty sum,
    # one generator twice (by its label and its alias), and a generator of
    # another stem.
    eta = {"generators": [{"label": "eta", "aliases": ["h1"]}],
           "relations": [{"label": "eta2", "sum": total}]}
    path = _eta_nu_file(tmp_path, eta=eta)
    code, out, err = run(capsys, "--stems", path, "stems", "query", "--stem", "1")
    assert (code, out) == (2, "")
    assert err == (f"error: bad stems JSON: relation 'eta2': sum {total} does not name "
                   "distinct generators of stem 1\n")


@pytest.mark.parametrize("eta", [
    {"generators": [{"label": "0"}]},
    {"generators": [{"label": "eta", "aliases": ["0"]}]},
    {"relations": [{"label": "0", "sum": ["eta"]}]},
])
def test_stems_name_0_exit_2(tmp_path, capsys, eta):
    # Before, a generator named "0" loaded, and "eta * eta = 0" could read
    # as the zero product or as that generator.
    path = _eta_nu_file(tmp_path, eta=eta, products=[{"a": "nu", "b": "nu", "result": "0"}])
    code, out, err = run(capsys, "--stems", path, "stems", "query", "--product", "nu", "nu")
    assert (code, out) == (2, "")
    assert err == "error: bad stems JSON: label '0' in stem 1 would read as the zero product\n"


def test_stems_relation_sum_by_label_or_alias_loads(tmp_path, capsys):
    nu = {"cyclic_orders": [8, 2], "generators": [{"label": "nu"}, {"label": "x", "aliases": ["y"]}],
          "relations": [{"label": "nu+x", "sum": ["nu", "y"]}]}
    path = _eta_nu_file(tmp_path, nu=nu)
    code, out, err = run(capsys, "--stems", path, "stems", "query", "--stem", "3")
    assert (code, err) == (0, "")


@pytest.mark.parametrize("field, message", [
    ({"cyclic_orders": [3]}, "torsion orders must be powers of 2"),
    ({"k": 0}, "stem must be positive"),
    # im J is cyclic: these orders divide the group's order, not its largest cyclic order.
    ({"k": 9, "cyclic_orders": [2, 2, 2], "im_j_order": 4,
      "generators": [{"label": "nu^3"}, {"label": "mu9"}, {"label": "eta*epsilon"}]},
     "im_j_order 4 does not divide |pi_9|'s largest cyclic order 2: im J is cyclic"),
    ({"cyclic_orders": [4, 2], "generators": [{"label": "nu"}, {"label": "x"}]},
     "im_j_order 8 does not divide |pi_3|'s largest cyclic order 4: im J is cyclic"),
])
def test_stems_record_check_fails_with_its_place(tmp_path, capsys, field, message):
    # A record's own checks read as every other fault of the file, naming the record.
    path = _eta_nu_file(tmp_path, nu=field)
    code, out, err = run(capsys, "--stems", path, "stems", "query", "--stem", "1")
    assert (code, out, err) == (2, "", f"error: bad stems JSON: stems[1]: {message}\n")


def test_stems_override_file(tmp_path, capsys):
    payload = {"stems": [{"k": 7, "cyclic_orders": [16], "im_j_order": 16,
                          "generators": [{"label": "sigma-alt", "aliases": [],
                                          "im_j": True, "mu_family": False}]}],
               "products": []}
    path = tmp_path / "alt.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, out, _ = run(capsys, "--stems", str(path), "stems", "query", "--stem", "7")
    assert code == 0 and "sigma-alt" in out


def _stems_file(tmp_path, where=None, key=None, value=None):
    gen = {"label": "sigma", "aliases": ["h3"], "im_j": True, "mu_family": False}
    rel = {"label": "sigma'", "sum": ["sigma"], "im_j": True}
    prod = {"a": "sigma", "b": "h3", "result": "0", "note": "a note"}
    # the record's product is another pair: a pair is given one product
    rec = {"k": 7, "cyclic_orders": [16], "im_j_order": 16, "generators": [gen],
           "relations": [rel], "notes": ["a note"], "products": [{**prod, "b": "sigma'"}]}
    obj = {"schema": 1, "stems": [rec], "products": [prod]}
    if where is not None:
        {"top": obj, "record": rec, "generator": gen, "relation": rel,
         "product": prod}[where][key] = value
    path = tmp_path / "stems.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("where, key, value", [
    ("top", "schema", "1"), ("top", "stems", {}), ("top", "products", {}), ("top", "extra", 1),
    ("record", "k", 7.9), ("record", "k", "7"), ("record", "k", True),
    ("record", "cyclic_orders", [16.0]), ("record", "cyclic_orders", 16),
    ("record", "im_j_order", "16"), ("record", "generators", {}), ("record", "notes", "note"),
    ("record", "extra", 1),
    ("generator", "label", 5), ("generator", "aliases", "sig"), ("generator", "aliases", [5]),
    ("generator", "im_j", "false"), ("generator", "mu_family", 0), ("generator", "extra", 1),
    ("relation", "label", 5), ("relation", "sum", "sigma"), ("relation", "im_j", 1),
    ("relation", "extra", 1),
    ("product", "a", 5), ("product", "result", 0), ("product", "note", 5),
    ("product", "extra", 1),
])
def test_stems_fields_are_read_by_type(tmp_path, capsys, where, key, value):
    # As in a module file: a value of the wrong JSON type is rejected, never
    # truncated or coerced, and an unknown key is not dropped, at every level.
    argv = ("stems", "query", "--stem", "7", "--stems")
    code, out, _ = run(capsys, *argv, _stems_file(tmp_path))
    assert code == 0 and "sigma" in out
    code, out, err = run(capsys, *argv, _stems_file(tmp_path, where, key, value))
    assert (code, out) == (2, "")
    assert err.startswith("error: bad stems JSON:") and repr(key) in err


@pytest.mark.parametrize("what, argv", [
    ("module", ("ext", "--module")),
    ("stems", ("stems", "query", "--stem", "7", "--stems")),
])
def test_unreadable_files_exit_2(tmp_path, capsys, what, argv):
    # Module and stems files share one reader: a missing file, one that is
    # not UTF-8, one that is not JSON and one nested too deeply for the
    # decoder's recursion each end in one line naming the file.
    missing, latin, bad = tmp_path / "missing.json", tmp_path / "latin.json", tmp_path / "bad.json"
    deep = tmp_path / "deep.json"
    latin.write_bytes(b'{"k": "\xff"}')
    bad.write_text('{"k": 7,\n oops', encoding="utf-8")
    deep.write_text("[" * 200000 + "]" * 200000, encoding="utf-8")  # json.dumps would recurse
    for path, start in ((missing, f"cannot read {what} file"), (latin, f"cannot read {what} file"),
                        (deep, f"{what} file"), (bad, f"{what} file")):
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {start} {str(path)!r}: ") and err.count("\n") == 1
        if path == deep:
            assert err.endswith(": JSON nested too deeply\n")
    assert err == f"error: {what} file {str(bad)!r}: bad JSON at line 2\n"


@pytest.mark.parametrize("argv", [
    ("classify", "--n", "9", "--stems", "/nonexistent"),
    ("--stems", "/nonexistent", "classify", "--n", "9"),
    ("bounds", "scan", "--case", "d1", "--stems", "/nonexistent"),
    ("ext", "--module", "builtin:Z", "--n", "3", "--stems", "/nonexistent"),
])
def test_stems_flag_outside_stems_query_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: --stems applies only to stems query\n"


def test_stems_query_takes_stem_or_product_not_both(capsys):
    code, out, err = run(capsys, "stems", "query", "--stem", "7", "--product", "eta", "eta")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "--stem" in err and "--product" in err
    code, out, err = run(capsys, "stems", "query")
    assert (code, out) == (2, "")
    assert err == "error: stems query needs --stem K or --product A B\n"


@pytest.mark.parametrize("n, noted", [("15", True), ("16", False)])
def test_massey_note_only_for_odd_cells(capsys, n, noted):
    argv = ("ext", "--module", "builtin:d2-sphere", "--n", n, "--max-s", "3")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and (cli.MASSEY_NOTE in out) == noted
    code, payload, _ = run_json(capsys, *argv)
    assert code == 0
    assert payload["chart"]["annotations"] == ([cli.MASSEY_NOTE] if noted else [])


def test_chart_cache_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HCM_CACHE_DIR", str(tmp_path))
    code, out1, _ = run(capsys, "ext", "--module", "builtin:d2-o", "--n", "16")
    assert code == 0
    cached = list(tmp_path.glob("*.json"))
    assert cached
    code, out2, _ = run(capsys, "ext", "--module", "builtin:d2-o", "--n", "16")
    assert code == 0 and out1 == out2
    # the entry's digest is the one the chart pins use, of the chart --json prints
    code, payload, _ = run_json(capsys, "ext", "--module", "builtin:d2-o", "--n", "16")
    assert code == 0
    stored = json.loads(cached[0].read_text(encoding="utf-8"))
    assert stored["sha256"] == sha256_of(payload["chart"])
    # a truncated entry is a miss: the chart is recomputed and the entry rewritten
    whole = cached[0].read_text(encoding="utf-8")
    cached[0].write_text(whole[: len(whole) // 2], encoding="utf-8")
    code, out3, _ = run(capsys, "ext", "--module", "builtin:d2-o", "--n", "16")
    assert code == 0 and out3 == out1
    assert cached[0].read_text(encoding="utf-8") == whole
    assert sorted(tmp_path.iterdir()) == cached
    # an unwritable cache is a typed error, not a traceback, and leaves no
    # temp file: an entry that is a directory, then a cache path that is a file
    cached[0].unlink()
    cached[0].mkdir()
    code, out4, err4 = run(capsys, "ext", "--module", "builtin:d2-o", "--n", "16")
    assert code == 2 and out4 == "" and err4.startswith("error:")
    assert sorted(tmp_path.iterdir()) == cached
    monkeypatch.setenv("HCM_CACHE_DIR", str(tmp_path / "plain"))
    (tmp_path / "plain").write_text("", encoding="utf-8")
    code, out5, err5 = run(capsys, "ext", "--module", "builtin:sphere",
                           "--max-s", "2", "--max-t", "4")
    assert code == 2 and out5 == ""
    assert err5.startswith("error:") and "HCM_CACHE_DIR" in err5
    assert "Traceback" not in err5
    # the key holds the chart version: after a bump the old entry is not
    # served, a second entry is written, and the chart printed is the same
    versioned = tmp_path / "versioned"
    monkeypatch.setenv("HCM_CACHE_DIR", str(versioned))
    code, out6, _ = run(capsys, "ext", "--module", "builtin:d2-o", "--n", "16")
    assert code == 0 and out6 == out1
    assert len(list(versioned.glob("*.json"))) == 1
    monkeypatch.setattr(rs, "CHART_VERSION", 2)
    code, out7, _ = run(capsys, "ext", "--module", "builtin:d2-o", "--n", "16")
    assert code == 0 and out7 == out1
    assert len(list(versioned.glob("*.json"))) == 2


def test_chart_cache_key_holds_truncation(tmp_path, capsys, monkeypatch):
    # A one-cell module file has the sphere's JSON but is truncated, so its
    # chart trusts fewer stems; the sphere's cached chart must not serve it.
    spec = tmp_path / "x0.json"
    spec.write_text(json.dumps({"window": [0, 12], "cells": [{"label": "x0", "degree": 0}],
                                "unstable": True}), encoding="utf-8")
    argv = ["ext", "--max-s", "4", "--max-t", "12", "--module"]
    monkeypatch.setenv("HCM_CACHE_DIR", str(tmp_path / "cold"))
    code, cold, _ = run_json(capsys, *argv, str(spec))
    assert code == 0 and cold["chart"]["trusted_stem_max"] == 11
    monkeypatch.setenv("HCM_CACHE_DIR", str(tmp_path / "warm"))
    code, sphere, _ = run_json(capsys, *argv, "builtin:sphere")
    assert code == 0 and sphere["chart"]["trusted_stem_max"] is None
    code, warm, _ = run_json(capsys, *argv, str(spec))
    assert code == 0 and warm == cold
    assert len(list((tmp_path / "warm").glob("*.json"))) == 2


def _cut_down(entry):
    return {"max_s": entry["max_s"], "max_t": entry["max_t"]}


def _string_dim(entry):
    (s, t, d), *rest = entry["dims"]
    return {**entry, "dims": [[s, t, str(d)], *rest]}


def _true_dim(entry):
    (s, t, d), *rest = entry["dims"]
    return {**entry, "dims": [[s, t, True], *rest]}


def _float_dim(entry):
    (s, t, d), *rest = entry["dims"]
    return {**entry, "dims": [[s, t, float(d)], *rest]}


def _number_label(entry):
    (s, t, ls), *rest = entry["labels"]
    return {**entry, "labels": [[s, t, [5, *ls[1:]]], *rest]}


def _string_stem_max(entry):
    return {**entry, "trusted_stem_max": "11"}


def _number_annotation(entry):
    return {**entry, "annotations": [1]}


def _extra_key(entry):
    return {**entry, "extra": 1}


def _dim_disagrees_with_labels(entry):
    (s, t, d), *rest = entry["dims"]
    return {**entry, "dims": [[s, t, d + 2], *rest]}


def _dims_without_labels(entry):
    return {**entry, "labels": entry["labels"][1:]}


def _product_past_dim(entry):
    first, *rest = entry["products"]
    s, t, i = first["from"]
    return {**entry, "products": [{**first, "from": [s, t, i + 1]}, *rest]}


def _product_wrong_target(entry):
    # the last h2 edge, sent to a spot that exists but is not t + 4 above
    *rest, last = entry["products"]
    return {**entry, "products": [*rest, {**last, "to": [3, 3, 0]}]}


def _product_k3(entry):
    return {**entry, "products": [*entry["products"], {"k": 3, "from": [0, 0, 0],
                                                       "to": [1, 8, 0]}]}


def _product_repeated(entry):
    return {**entry, "products": [*entry["products"], entry["products"][-1]]}


def _products_unsorted(entry):
    first, second, *rest = entry["products"]
    return {**entry, "products": [second, first, *rest]}


# Three edits that leave the chart consistent with itself, so no check of
# the chart alone can see them; each would change what group assembly trusts.
def _last_h0_edge_dropped(entry):
    last = max(i for i, p in enumerate(entry["products"]) if p["k"] == 0)
    return {**entry, "products": [p for i, p in enumerate(entry["products"]) if i != last]}


def _last_stage_floor_raised(entry):
    *rest, last = entry["stage_min_degree"]
    return {**entry, "stage_min_degree": [*rest, last + 5]}


def _stem_3_flagged_torsion_free(entry):
    return {**entry, "torsion_free_top_stems": sorted({*entry["torsion_free_top_stems"], 3})}


def _pre_digest_entry(entry):
    return entry["chart"]


def _digest_over_a_chart_without_labels(entry):
    chart = {k: v for k, v in entry["chart"].items() if k != "labels"}
    return {"sha256": sha256_of(chart), "chart": chart}


def _in_chart(spoil):
    """A case that spoils the entry's chart and keeps its stored digest."""
    return pytest.param(lambda entry: {**entry, "chart": spoil(entry["chart"])},
                        id=spoil.__name__)


@pytest.mark.parametrize("rewrite", [
    *map(_in_chart, [_cut_down, _string_dim, _true_dim, _float_dim, _number_label,
                     _string_stem_max, _number_annotation, _extra_key,
                     _dim_disagrees_with_labels, _dims_without_labels, _product_past_dim,
                     _product_wrong_target, _product_k3, _product_repeated, _products_unsorted,
                     _last_h0_edge_dropped, _last_stage_floor_raised,
                     _stem_3_flagged_torsion_free]),
    _pre_digest_entry, _digest_over_a_chart_without_labels])
def test_chart_cache_serves_only_an_exact_entry(tmp_path, capsys, monkeypatch, rewrite):
    # An entry whose chart does not match its stored digest, or that has no
    # digest or no decodable chart, is a miss: the chart is recomputed and
    # the entry rewritten in full.
    monkeypatch.setenv("HCM_CACHE_DIR", str(tmp_path))
    argv = ("ext", "--module", "builtin:sphere", "--max-s", "3", "--max-t", "8")
    code, fresh, _ = run(capsys, *argv)
    assert code == 0
    entry, = tmp_path.glob("*.json")
    whole = entry.read_text(encoding="utf-8")
    spoiled = json.dumps(rewrite(json.loads(whole)))
    assert spoiled != whole
    entry.write_text(spoiled, encoding="utf-8")
    assert run(capsys, *argv) == (0, fresh, "")
    assert entry.read_text(encoding="utf-8") == whole
    assert list(tmp_path.iterdir()) == [entry]


@pytest.mark.parametrize("forge", [_dim_disagrees_with_labels, _last_stage_floor_raised])
def test_a_forged_chart_cache_entry_shows_what_its_labels_imply(tmp_path, capsys,
                                                                monkeypatch, forge):
    # A forger who writes the digest again is served, but dimensions and
    # stage floors are read off the labels, so editing them changes nothing.
    monkeypatch.setenv("HCM_CACHE_DIR", str(tmp_path))
    argv = ("ext", "--module", "builtin:sphere", "--max-s", "2", "--max-t", "4")
    grid, payload = run(capsys, *argv), run_json(capsys, *argv)
    assert grid[0] == 0 and payload[0] == 0
    entry, = tmp_path.glob("*.json")
    chart = forge(json.loads(entry.read_text(encoding="utf-8"))["chart"])
    entry.write_text(json.dumps({"sha256": sha256_of(chart), "chart": chart}),
                     encoding="utf-8")
    assert run(capsys, *argv) == grid
    assert run_json(capsys, *argv) == payload


def test_a_deeply_nested_chart_cache_entry_is_a_miss(tmp_path, capsys, monkeypatch):
    # json.dumps would recurse as deep as the decoder, so the text is written raw
    monkeypatch.setenv("HCM_CACHE_DIR", str(tmp_path))
    argv = ("ext", "--module", "builtin:sphere", "--max-s", "3", "--max-t", "8")
    code, fresh, _ = run(capsys, *argv)
    assert code == 0
    entry, = tmp_path.glob("*.json")
    whole = entry.read_text(encoding="utf-8")
    entry.write_text("[" * 200000 + "]" * 200000, encoding="utf-8")
    assert run(capsys, *argv) == (0, fresh, "")
    assert entry.read_text(encoding="utf-8") == whole


def test_rendered_chart_round_trip():
    res = rs.minimal_resolution(sm.sphere_module(10), 4, 10)
    chart = rs.ext_chart(res)
    again = rs.chart_from_json(chart.to_json())
    assert again.dims == {k: v for k, v in chart.dims.items() if v}
    assert again.products == chart.products
    assert again.labels == {k: v for k, v in chart.labels.items() if v}
    assert render.ascii_chart(again)
    assert render.svg_chart(again).startswith("<svg")


def test_json_outputs_are_schema_versioned(capsys):
    for argv in (["bounds", "table", "--from", "25", "--to", "26"],
                 ["bounds", "scan", "--case", "d1"],
                 ["classify", "--n", "5"],
                 ["stems", "query", "--stem", "3"],
                 ["bar-e1", "--n", "16"],
                 ["ext", "--module", "builtin:d2-o", "--n", "16"]):
        code, payload, _ = run_json(capsys, *argv)
        assert code == 0 and payload["schema"] == 1


def test_stdout_data_stderr_diagnostics(capsys):
    code, out, err = run(capsys, "bar-e1", "--n", "8")
    assert out == "" and err != ""
    code, out, err = run(capsys, "classify", "--n", "5")
    assert err == "" and out != ""


_SRC = str(Path(__file__).resolve().parents[1] / "src")
_ENGINE = {"barpage", "bounds", "classify", "extpower", "f2linalg", "render",
           "resolution", "steenrod", "stmodule"}
# Each process also reports whether it loaded dataclasses or its import
# inspect: about 10 ms of start-up that the NamedTuple records do not pay.
_REPORT_ENGINE = ("import sys\nfrom hcm import cli\ncode = cli.main(sys.argv[1:])\n"
                  "print(code, *sorted(m[4:] for m in sys.modules if m.startswith('hcm.')),\n"
                  "      *(m for m in ('dataclasses', 'inspect') if m in sys.modules))")


@pytest.mark.parametrize("argv, engine", [
    (["stems", "query", "--stem", "7"], {"classify"}),
    (["classify", "--n", "9", "--normal-h", "1"], {"classify"}),
    (["bounds", "scan", "--case", "d1"], {"bounds"}),
    (["ext", "--module", "builtin:sphere", "--max-s", "1", "--max-t", "3"],
     {"f2linalg", "render", "resolution", "steenrod", "stmodule"}),
    (["d2", "--module", "builtin:o", "--n", "9"],
     {"extpower", "f2linalg", "steenrod", "stmodule"}),
    (["bar-e1", "--n", "16"],
     {"barpage", "extpower", "f2linalg", "resolution", "steenrod", "stmodule"}),
    (["--help"], set()),
], ids=["stems", "classify", "bounds-scan", "ext-sphere", "d2", "bar-e1", "help"])
def test_each_command_imports_only_its_engine(tmp_path, argv, engine):
    # A fresh interpreter per command, as a user's shell runs it.
    env = {k: v for k, v in os.environ.items() if k != "HCM_CACHE_DIR"}
    env["PYTHONPATH"] = _SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", _REPORT_ENGINE, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    code, *loaded = proc.stdout.splitlines()[-1].split()
    assert code == "0"
    assert set(loaded) & _ENGINE == engine
    assert not set(loaded) & {"dataclasses", "inspect"}
