"""Command-line behavior: exit codes, JSON documents, round trips."""

import contextlib
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from partialmetric import FinitePMSpace
from partialmetric.analysis import MAX_HORIZON
from partialmetric.cli import main
from partialmetric.core import MAX_DEN_BITS
from partialmetric.catalog import MAX_RANDOM_POINTS, get_entry
from partialmetric.points import (format_point, format_value, parse_rational, read_list,
                                  read_points, read_ratio)

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAxioms:
    def test_catalog_pass(self, capsys):
        code, out, _ = run(capsys, "axioms", "--space", "ex3.2")
        assert code == 0 and "pass" in out

    def test_broken_symmetry_exits_one_with_p3(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "points": ["a", "b"],
            "p": [["0/1", "1/1"], ["2/1", "0/1"]],
        }))
        code, out, _ = run(capsys, "axioms", "--space", str(bad))
        assert code == 1
        assert "P3" in out

    def test_malformed_json_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code, _, err = run(capsys, "axioms", "--space", str(bad))
        assert code == 2 and "error" in err

    def test_non_list_rows_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"points": ["a", "b"], "p": [1, 2]}))
        code, _, err = run(capsys, "axioms", "--space", str(bad))
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("ids", ["ab", {"a": 1, "b": 2}])
    def test_non_list_points_exit_two(self, capsys, tmp_path, ids):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"points": ids, "p": [["0/1", "1/1"], ["1/1", "0/1"]]}))
        code, _, err = run(capsys, "axioms", "--space", str(bad))
        assert code == 2 and "points" in err

    @pytest.mark.parametrize("ids", [[None, "b"], ["a", True], [["a"], "b"], [{"a": 1}, "b"]])
    def test_point_id_neither_string_nor_number_exits_two(self, capsys, tmp_path, ids):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"points": ids, "p": [["0/1", "1/1"], ["1/1", "0/1"]]}))
        code, out, err = run(capsys, "axioms", "--space", str(bad))
        assert code == 2 and out == "" and "a point id is a string or a number" in err

    @pytest.mark.parametrize("doc", [[1], 7, None, "x"], ids=["list", "number", "null", "string"])
    def test_a_space_file_that_is_no_object_is_refused_by_name(self, capsys, tmp_path, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "axioms", "--space", str(bad))
        assert (code, out, err) == (2, "", "error: space JSON must be an object\n")

    def test_unknown_space_exits_two(self, capsys):
        code, _, err = run(capsys, "axioms", "--space", "ex9.1")
        assert code == 2 and "error" in err

    def test_json_mode_single_document(self, capsys):
        code, out, _ = run(capsys, "axioms", "--space", "ex5.8", "--json")
        assert code == 0
        doc = json.loads(out)  # exactly one document on stdout
        assert doc["verdict"] == "pass"


class TestAnalyze:
    def test_plain_convergence(self, capsys):
        code, out, _ = run(capsys, "analyze", "seq", "--space", "ex4.8",
                           "--seq", "ex4.8.naturals", "--target", "0/1",
                           "--tol", "1/25", "--horizon", "100")
        assert code == 0 and "converges" in out

    def test_proper_refuted_exits_one(self, capsys):
        code, out, _ = run(capsys, "analyze", "seq", "--space", "ex5.5",
                           "--seq", "ex5.5.recip", "--target", "0/1",
                           "--mode", "proper", "--horizon", "64")
        assert code == 1 and "refuted" in out

    def test_cauchy_mode(self, capsys):
        code, out, _ = run(capsys, "analyze", "seq", "--space", "ex3.2",
                           "--seq", "ex3.2.alt", "--mode", "cauchy")
        assert code == 1 and "refuted" in out

    def test_explicit_sequence_file(self, capsys, tmp_path):
        seq = tmp_path / "seq.json"
        seq.write_text(json.dumps({"explicit": ["b", "b", "b", "b"]}))
        code, out, _ = run(capsys, "analyze", "seq", "--space", "ex5.8",
                           "--seq", str(seq), "--target", "b")
        assert code == 0 and "converges" in out

    def test_explicit_sequence_file_reads_set_ids_against_the_space(self, capsys, tmp_path):
        # the file's own braced ids span only {a,b}; ex3.2's ground set is {a,b,c}
        seq = tmp_path / "seq.json"
        seq.write_text(json.dumps({"explicit": ["{a}", "{b}"] * 4}))
        code, out, _ = run(capsys, "analyze", "seq", "--space", "ex3.2",
                           "--seq", str(seq), "--target", "{a,b}")
        assert code == 0 and "converges" in out

    def test_generator_sequence_file(self, capsys, tmp_path):
        seq = tmp_path / "seq.json"
        seq.write_text(json.dumps({"generator": "ex4.8.naturals", "horizon": 100}))
        code, _, _ = run(capsys, "analyze", "seq", "--space", "ex4.8",
                         "--seq", str(seq), "--target", "0/1", "--tol", "1/25")
        assert code == 0

    @pytest.mark.parametrize("seq", ["ex4.8.naturals", "ex3.2.alt"])
    def test_horizon_zero_exits_two(self, capsys, seq):
        space = seq.rsplit(".", 1)[0]
        target = {"ex3.2": "{}"}.get(space, "0/1")  # a point of the space, so the analyzer runs
        code, _, err = run(capsys, "analyze", "seq", "--space", space, "--seq", seq,
                           "--target", target, "--horizon", "0")
        assert code == 2 and "horizon" in err

    @pytest.mark.parametrize("doc", [5, {"explicit": 5}, {"generator": "ex4.8.naturals",
                                                          "horizon": [1]},
                                     {"generator": "ex4.8.naturals", "horizon": 64.9},
                                     {"generator": "ex4.8.naturals", "horizon": True},
                                     {"explicit": [None]}, {"explicit": ["0/1", True]}])
    def test_malformed_sequence_file_exits_two(self, capsys, tmp_path, doc):
        seq = tmp_path / "seq.json"
        seq.write_text(json.dumps(doc))
        code, _, err = run(capsys, "analyze", "seq", "--space", "ex4.8",
                           "--seq", str(seq), "--target", "0/1")
        assert code == 2 and "error" in err

    def test_horizon_zero_overrides_generator_file(self, capsys, tmp_path):
        seq = tmp_path / "seq.json"
        seq.write_text(json.dumps({"generator": "ex4.8.naturals", "horizon": 100}))
        code, _, err = run(capsys, "analyze", "seq", "--space", "ex4.8",
                           "--seq", str(seq), "--target", "0/1", "--horizon", "0")
        assert code == 2 and "horizon" in err

    @staticmethod
    def _cauchy_argv(tmp_path, horizon, by_file):
        argv = ["analyze", "seq", "--space", "ex4.8", "--mode", "cauchy", "--tol", "1/25"]
        if not by_file:
            return argv + ["--seq", "ex4.8.naturals", "--horizon", str(horizon)]
        seq = tmp_path / "seq.json"
        seq.write_text(json.dumps({"generator": "ex4.8.naturals", "horizon": horizon}))
        return argv + ["--seq", str(seq)]

    @pytest.mark.parametrize("by_file", [False, True], ids=["flag", "file"])
    def test_horizon_at_the_cap_is_read(self, capsys, tmp_path, by_file):
        code, out, _ = run(capsys, *self._cauchy_argv(tmp_path, MAX_HORIZON, by_file))
        assert code == 0 and "cauchy_to" in out

    @pytest.mark.parametrize("by_file", [False, True], ids=["flag", "file"])
    def test_horizon_past_the_cap_exits_two_at_once(self, capsys, tmp_path, by_file):
        start = time.monotonic()
        code, out, err = run(capsys, *self._cauchy_argv(tmp_path, MAX_HORIZON + 1, by_file))
        assert code == 2 and out == ""
        assert f"horizon {MAX_HORIZON + 1} is past the cap of {MAX_HORIZON}" in err
        assert time.monotonic() - start < 1

    @pytest.mark.parametrize("mode", ["plain", "proper"])
    def test_an_empty_target_is_an_id_past_the_cap_too(self, capsys, mode):
        # "--target=" names the empty id, which ex3.2 does not hold: it is not a missing --target.
        code, out, err = run(capsys, "analyze", "seq", "--space", "ex3.2", "--seq", "ex3.2.alt",
                             "--target=", "--mode", mode, "--horizon", str(MAX_HORIZON + 1))
        assert code == 2 and out == ""
        assert "is not in ex3.2" in err and "needs --target" not in err

    def test_a_missing_target_still_needs_target(self, capsys):
        code, out, err = run(capsys, "analyze", "seq", "--space", "ex3.2", "--seq", "ex3.2.alt")
        assert code == 2 and out == "" and "plain/proper analysis needs --target" in err

    def test_help_names_the_horizon_cap(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "seq", "--help"])
        text = " ".join(capsys.readouterr().out.split())  # argparse wraps the help
        assert exc.value.code == 0 and f"1 to {MAX_HORIZON}" in text
        # The cap counts terms; the help states what wide terms cost.
        assert "ex5.4.orbit0's n-th term has about n bits" in text
        assert "grow about quadratically with the horizon" in text


class TestTopology:
    def test_separation(self, capsys):
        code, out, _ = run(capsys, "topology", "separation", "--space", "ex5.6")
        assert code == 0 and "hausdorff=False" in out

    def test_separation_of_a_table_that_fails_the_axioms(self, capsys, tmp_path):
        # b lies in every ball around a, not a in one around b: T0, not T1, not Hausdorff.
        table = tmp_path / "t.json"
        table.write_text(json.dumps({"points": ["a", "b"], "p": [["2", "1"], ["1", "0"]]}))
        code, out, _ = run(capsys, "topology", "separation", "--space", str(table))
        assert code == 0 and out == "t0=True t1=False hausdorff=False\n"

    def test_gdelta(self, capsys):
        code, out, _ = run(capsys, "topology", "gdelta", "--space", "ex5.8", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["equals_diagonal"] is True

    def test_order_and_maximal(self, capsys):
        code, out, _ = run(capsys, "topology", "maximal", "--space", "ex5.6")
        assert code == 0 and "0/1" in out

    def test_cover_failure_exits_one(self, capsys):
        code, out, _ = run(capsys, "topology", "cover", "--space", "apex",
                           "--centers", "x1,x2", "--eps", "1/2")
        assert code == 1 and "a" in out

    def test_net_with_restrict(self, capsys):
        code, out, _ = run(capsys, "topology", "net", "--space", "apex",
                           "--eps", "1/2", "--restrict", "x1,x2,x3")
        assert code == 0 and "net size 3" in out


# A set id names one point in any member order or spacing, wherever an id is
# read, and keeps its commas in an id list: each command, with the id (or the
# sequence file) appended, gives one output and exit code for all its spellings.
SET_ID_SPELLINGS = [
    (["analyze", "seq", "--seq", "ex3.2.alt", "--target"], ["{a,b}", "{b,a}", "{ b , a }"], 0),
    (["analyze", "seq", "--target", "{a,b}", "--seq"],
     [{"explicit": ["{a,b}"] * 3}, {"explicit": ["{b,a}"] * 3}, {"explicit": ["{ a,b}"] * 3}], 0),
    (["fixedpoint", "check", "--map"], ["const.{a,b}", "const.{b,a}"], 1),
    (["fixedpoint", "iterate", "--map", "const.{a,b}", "--from"], ["{a,b}", "{ b , a }"], 0),
    (["topology", "cover", "--centers"], ["{a,b,c}", "{c, b,a}", "{a},{a,b,c}"], 0),
    (["topology", "net", "--restrict"], ["{a,b},{}", "{b,a},{ }", "{},{b ,a}"], 0),
]


class TestSetIds:
    @pytest.fixture(params=["catalog", "table"])
    def space(self, request, capsys, tmp_path):
        """ex3.2, or its exported table with each set id's members reversed: "{b, a}"."""
        if request.param == "catalog":
            return "ex3.2"
        doc = json.loads(run(capsys, "catalog", "export", "ex3.2")[1])
        doc["points"] = ["{" + ", ".join(reversed(i[1:-1].split(","))) + "}"
                         for i in doc["points"]]
        table = tmp_path / "ex32.json"
        table.write_text(json.dumps(doc))
        return str(table)

    @pytest.mark.parametrize("argv, spellings, code", SET_ID_SPELLINGS,
                             ids=["target", "seq-file", "map", "from", "centers", "restrict"])
    def test_every_spelling_of_a_set_id_reads_the_same(self, capsys, tmp_path, space,
                                                       argv, spellings, code):
        got = set()
        for spelling in spellings:
            if isinstance(spelling, dict):  # a sequence file
                path = tmp_path / "seq.json"
                path.write_text(json.dumps(spelling))
                spelling = str(path)
            got.add(run(capsys, *argv[:2], "--space", space, *argv[2:], spelling)[:2])
        assert len(got) == 1 and got.pop()[0] == code

    @pytest.mark.parametrize("text, ids", [("{a,b},{}", ["{a,b}", "{}"]),
                                           ("{a,b,c}", ["{a,b,c}"]),
                                           ("x1,x2,,x3", ["x1", "x2", "", "x3"]),
                                           ("", [""]), ("1/2,{a, b}", ["1/2", "{a, b}"])])
    def test_id_list_keeps_the_commas_of_a_set_id(self, text, ids):
        assert read_list(text) == ids
        if "{" not in text:
            assert ids == text.split(",")


class TestFixedpoint:
    def test_check_violated_exits_one(self, capsys):
        code, out, _ = run(capsys, "fixedpoint", "check", "--space", "ex5.8",
                           "--map", "const.b", "--cond", "max", "--alpha", "1/2")
        assert code == 1 and "violated" in out

    @pytest.mark.parametrize("point, code", [("{}", 0), ("{a}", 1), ("{ }", 0), ("{b,a}", 1)])
    def test_constant_map_names_a_set_point(self, capsys, point, code):
        got, out, _ = run(capsys, "fixedpoint", "check", "--space", "ex3.2",
                          "--map", f"const.{point}", "--cond", "max")
        assert got == code and "36 sample pairs" in out

    @pytest.mark.parametrize("action", ["check", "iterate"])
    def test_missing_map_exits_two(self, capsys, action):
        start = ["--from", "a"] if action == "iterate" else []  # only iterate reads --from
        code, _, err = run(capsys, "fixedpoint", action, "--space", "ex5.8", *start)
        assert code == 2 and "needs --map" in err

    @pytest.mark.parametrize("action", ["check", "iterate"])
    def test_formula_map_on_other_point_kind_exits_two(self, capsys, action):
        start = ["--from", "{}"] if action == "iterate" else []
        code, _, err = run(capsys, "fixedpoint", action, "--space", "ex3.2",
                           "--map", "ex5.4.T", *start)
        assert code == 2 and "not defined" in err

    def test_iterate_ex54(self, capsys):
        code, out, _ = run(capsys, "fixedpoint", "iterate", "--space", "ex5.4",
                           "--map", "ex5.4.T", "--from", "0/1")
        assert code == 0 and "fixed point 1/1" in out

    def test_enumerate(self, capsys):
        code, out, _ = run(capsys, "fixedpoint", "enumerate", "--space", "ex5.8",
                           "--cond", "max", "--alpha-grid", "0,1/2,3/4")
        assert code == 0 and "1 surviving" in out

    def test_bottom(self, capsys):
        code, out, _ = run(capsys, "fixedpoint", "bottom", "--space", "ex5.5")
        assert code == 0 and "1/2" in out and "0/1" not in out

    @pytest.mark.parametrize("grid", ["0,1/2", "", "5"])
    def test_bottom_refuses_a_factor_grid(self, capsys, grid):
        code, out, err = run(capsys, "fixedpoint", "bottom", "--space", "ex5.5",
                             "--alpha-grid", grid)
        assert code == 2 and out == ""
        assert err == ("error: fixedpoint bottom reads no factor flag, not --alpha-grid "
                       "(it reads no option)\n")

    # Each message names the flags of the refused flag's kind that the action
    # reads, or "no <kind>"; the topology probes are refused the same way.
    @pytest.mark.parametrize("argv, reads", [
        (["fixedpoint", "bottom", "--space", "ex5.5", "--alpha", "5"], "no factor flag"),
        (["fixedpoint", "enumerate", "--space", "ex5.8", "--cond", "max", "--alpha", "3/4"],
         "--alpha-grid"),
        (["fixedpoint", "enumerate", "--space", "ex5.8", "--cond", "contraction",
          "--alpha-grid", "1/2"], "--alpha"),
        (["fixedpoint", "enumerate", "--space", "ex5.8", "--cond", "min", "--alpha", "1/2"],
         "--k"),
        (["fixedpoint", "check", "--space", "ex5.8", "--map", "const.a", "--alpha-grid", "9/10"],
         "--alpha"),
        (["fixedpoint", "check", "--space", "ex5.8", "--map", "const.a", "--cond", "min",
          "--alpha", "1/2"], "--k"),
        (["fixedpoint", "iterate", "--space", "ex5.4", "--map", "ex5.4.T", "--from", "0/1",
          "--alpha", "1/2"], "no factor flag"),
        (["fixedpoint", "bottom", "--space", "ex5.5", "--k", "3"], "no factor flag"),
        (["fixedpoint", "iterate", "--space", "ex5.4", "--map", "ex5.4.T", "--from", "0/1",
          "--cond", "min", "--k", "7"], "no factor flag"),
        (["fixedpoint", "check", "--space", "ex5.4", "--map", "ex5.4.T", "--k", "2"], "--alpha"),
        (["fixedpoint", "bottom", "--space", "ex5.5", "--cond", "max"], "no condition"),
        (["fixedpoint", "iterate", "--space", "ex5.4", "--map", "ex5.4.T", "--from", "0/1",
          "--cond", "min"], "no condition"),
        (["fixedpoint", "bottom", "--space", "ex5.5", "--map", "ex5.4.T", "--from", "7",
          "--budget", "3", "--tol", "1/2"], "no map"),
        (["fixedpoint", "enumerate", "--space", "ex5.8", "--from", "a"], "no start point"),
        (["fixedpoint", "enumerate", "--space", "ex5.8", "--tol", "1/2"], "no tolerance"),
        (["fixedpoint", "check", "--space", "ex5.4", "--map", "ex5.4.T", "--budget", "3"],
         "no budget"),
        (["topology", "separation", "--space", "ex5.6", "--eps", "1/3", "--centers", "a",
          "--restrict", "b"], "no centers"),
        (["topology", "maximal", "--space", "ex5.6", "--eps", "1/3"], "no radius"),
        (["topology", "cover", "--space", "apex", "--centers", "x1", "--restrict", "x1"],
         "no restriction"),
        (["topology", "net", "--space", "apex", "--centers", "x1"], "no centers"),
    ])
    def test_unread_factor_flag_exits_two(self, capsys, argv, reads):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and f"reads {reads}, not --" in err

    @pytest.mark.parametrize("argv, reads", [
        (["fixedpoint", "check", "--space", "ex5.4", "--map", "ex5.4.T", "--k", "2"],
         "--map, --cond, --alpha"),
        (["fixedpoint", "enumerate", "--space", "ex5.8", "--cond", "min", "--alpha", "1/2"],
         "--cond, --k"),
        (["fixedpoint", "iterate", "--space", "ex5.4", "--map", "ex5.4.T", "--from", "0/1",
          "--alpha", "1/2"], "--map, --from, --tol, --budget"),
        (["fixedpoint", "bottom", "--space", "ex5.5", "--map", "ex5.4.T"], "no option"),
        (["topology", "gdelta", "--space", "ex5.8", "--eps", "1/3"], "no option"),
        (["topology", "net", "--space", "apex", "--centers", "x1"], "--eps, --restrict"),
    ])
    def test_refusal_names_every_flag_the_action_reads(self, capsys, argv, reads):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and f"(it reads {reads})" in err

    def test_negative_iteration_tolerance_exits_two_at_once(self, capsys):
        start = time.monotonic()
        code, _, err = run(capsys, "fixedpoint", "iterate", "--space", "ex5.4", "--map",
                           "ex5.4.T", "--from", "0/1", "--tol=-1/2")
        assert code == 2 and "tolerance" in err
        assert time.monotonic() - start < 1


class TestNegativeIds:
    """A value that starts with "-", as pm prints ex3.4's points, is read as its flag's value."""

    def test_iterate_from_a_negative_point(self, capsys):
        code, out, _ = run(capsys, "fixedpoint", "iterate", "--space", "ex3.4",
                           "--map", "ex3.4.T", "--from", "-7/1")
        assert code == 0 and "fixed point -5/1" in out

    def test_a_negative_radius_gets_the_library_refusal(self, capsys):
        code, out, err = run(capsys, "topology", "net", "--space", "ex3.4", "--eps", "-1/2")
        assert code == 2 and out == "" and err == "error: net radius must be positive\n"

    @pytest.mark.parametrize("argv, want, line", [
        (("analyze", "seq", "--space", "ex3.4", "--seq", "ex3.4.recip", "--target", "-5/1"),
         1, "convergence to -5/1: inconclusive"),
        (("topology", "cover", "--space", "ex3.4", "--centers", "-7/1,0/1"),
         1, "covers: False uncovered=-6/1"),
        (("topology", "net", "--space", "ex3.4", "--restrict", "-7/1,-5/1"),
         0, "net size 2: -7/1, -5/1"),
        (("random", "property-run", "--seeds", "-3:5", "--max-n", "3"),
         0, "seeds -3..4, 8 spaces, 0 failures"),
    ], ids=["target", "centers", "restrict", "seeds"])
    def test_every_value_flag_reads_a_negative_id(self, capsys, argv, want, line):
        code, out, _ = run(capsys, *argv)
        assert code == want and out.startswith(line)

    def test_a_negative_id_after_a_switch_is_still_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["topology", "net", "--space", "ex3.4", "--json", "-7/1"])
        assert exc.value.code == 2 and "--json" in capsys.readouterr().err


# Every fixed-point action's --json output, byte for byte, with its exit code and
# the text lines it writes to stderr.
GOLDEN = json.loads((Path(__file__).parent / "fixedpoint_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: "-".join(case["argv"][1:]))
def test_fixedpoint_json_is_golden(capsys, case):
    code, out, err = run(capsys, *case["argv"], "--json")
    assert code == case["exit"]
    assert out == json.dumps(case["json"], indent=2) + "\n"
    assert err.splitlines() == case["stderr"]


class TestCatalog:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0 and "ex5.4" in out

    def test_export_then_import_round_trips(self, capsys, tmp_path):
        code, out, _ = run(capsys, "catalog", "export", "ex3.2")
        assert code == 0
        doc = json.loads(out)
        space = FinitePMSpace.from_json_dict(doc)
        assert space.to_json_dict() == doc

    def test_exported_space_feeds_axioms(self, capsys, tmp_path):
        code, out, _ = run(capsys, "catalog", "export", "ex5.4")
        f = tmp_path / "ex54.json"
        f.write_text(out)
        code, out, _ = run(capsys, "axioms", "--space", str(f))
        assert code == 0 and "pass" in out

    def test_verify_single_entry(self, capsys):
        code, out, _ = run(capsys, "catalog", "verify", "ex5.8")
        assert code == 0
        assert "0 failed" in out

    def test_verify_all(self, capsys):
        code, out, _ = run(capsys, "catalog", "verify", "--all")
        assert code == 0

    def test_verify_all_json_is_golden(self, capsys):
        # every fact's id, anchor, verdict and details, byte for byte
        case = json.loads((Path(__file__).parent / "catalog_verify_golden.json").read_text())
        code, out, err = run(capsys, *case["argv"])
        assert code == case["exit"]
        assert out == json.dumps(case["json"], indent=2) + "\n"
        assert err.splitlines() == case["stderr"]


class TestRandom:
    def test_generate_emits_valid_space(self, capsys):
        code, out, _ = run(capsys, "random", "generate", "--seed", "5", "-n", "4")
        assert code == 0
        space = FinitePMSpace.from_json_dict(json.loads(out))
        assert len(space) == 4

    def test_property_run_small(self, capsys):
        code, out, _ = run(capsys, "random", "property-run", "--seeds", "0:25")
        assert code == 0 and "0 failures" in out

    def test_max_n_zero_exits_two(self, capsys):
        code, _, err = run(capsys, "random", "property-run", "--seeds", "0:3", "--max-n", "0")
        assert code == 2 and "max_n" in err

    @pytest.mark.parametrize("span", ["5:2", "3:3", "0"])
    def test_empty_seed_span_exits_two(self, capsys, span):
        code, out, err = run(capsys, "random", "property-run", "--seeds", span)
        assert code == 2 and out == "" and "holds no seed" in err

    @pytest.mark.parametrize("span", [":5", "a", "0:5:7"])
    def test_malformed_seed_span_exits_two(self, capsys, span):
        code, out, err = run(capsys, "random", "property-run", "--seeds", span)
        assert code == 2 and out == "" and f"seed span {span!r} is not N or A:B" in err

    def test_bad_argument_exits_two(self, capsys):
        code, _, err = run(capsys, "random", "generate", "-n", "0")
        assert code == 2 and "error" in err

    def test_help_names_the_cap(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["random", "--help"])
        assert exc.value.code == 0 and f"1 to {MAX_RANDOM_POINTS}" in capsys.readouterr().out


class TestBoundedInput:
    """Exponent notation, digit separators and too deeply nested JSON are refused at once."""

    @pytest.mark.parametrize("text, value", [("1/2", F(1, 2)), ("3", F(3)), ("0.5", F(1, 2)),
                                             ("-1/2", F(-1, 2))])
    def test_rational_forms_still_parse(self, text, value):
        assert parse_rational(text) == value
        assert read_points([text]) == [value]

    @pytest.mark.parametrize("text", ["1e3", "2E-1", "1/2e3", "1e99999999"])
    def test_exponent_is_no_rational(self, text):
        with pytest.raises(ValueError, match="not a rational"):
            parse_rational(text)
        assert read_points([text]) == [text]

    @pytest.mark.parametrize("text", ["1_000", "1_0/2", "1/2_0", "0.5_0", "_1"])
    def test_digit_separator_is_no_rational(self, text):
        with pytest.raises(ValueError, match="not a rational"):
            parse_rational(text)
        assert read_points([text]) == [text]

    @pytest.mark.parametrize("argv", [
        ["topology", "net", "--space", "apex", "--eps", ""],
        ["fixedpoint", "check", "--space", "ex5.8", "--map", "const.b", "--alpha", ""],
        ["fixedpoint", "iterate", "--space", "ex5.4", "--map", "ex5.4.T", "--from", "0/1",
         "--tol", ""],
        ["fixedpoint", "enumerate", "--space", "ex5.8", "--cond", "max", "--alpha-grid", ""],
        ["analyze", "seq", "--space", "ex3.4", "--seq", "ex3.4.recip", "--target", "0/1",
         "--tol", ""],
    ], ids=lambda argv: argv[1] + argv[argv.index("") - 1])
    def test_empty_rational_flag_exits_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "not a rational: ''" in err

    def test_empty_restriction_exits_two(self, capsys):
        code, out, err = run(capsys, "topology", "net", "--space", "apex", "--eps", "1/2",
                             "--restrict", "")
        assert code == 2 and out == "" and "not in space" in err

    def test_empty_centers_exit_two(self, capsys):
        code, out, err = run(capsys, "topology", "cover", "--space", "apex", "--eps", "1/2",
                             "--centers", "")
        assert code == 2 and out == "" and "is not in the space" in err

    def test_digit_separator_rational_exits_two(self, capsys):
        code, out, err = run(capsys, "topology", "net", "--space", "apex", "--eps", "1_0/2")
        assert code == 2 and out == "" and "not a rational" in err

    def test_digit_separator_point_id_is_a_tag(self, capsys, tmp_path):
        # read as the rational 10, "1_0" would duplicate the point "10"
        table = tmp_path / "t.json"
        table.write_text(json.dumps({"points": ["1_0", "10"],
                                     "p": [["0/1", "1/1"], ["1/1", "0/1"]]}))
        code, out, _ = run(capsys, "axioms", "--space", str(table))
        assert code == 0 and "pass" in out

    def test_ids_are_resolved_against_points_formatted_once(self):
        points = get_entry("ex3.2").space.canonical_sample + tuple(F(i, 7) for i in range(150))
        texts = ["{a}", "{a,b,c}", "3/7", "6/14", "x", "1_0"] * 2000
        start = time.monotonic()
        got = read_points(texts, points)
        assert time.monotonic() - start < 1  # one id at a time formats 158 ids per text
        assert got == [read_points([t], points)[0] for t in texts[:6]] * 2000

    def test_exponent_rational_exits_two_at_once(self, capsys):
        start = time.monotonic()
        code, out, err = run(capsys, "topology", "net", "--space", "apex",
                             "--eps", "1e99999999")
        assert time.monotonic() - start < 1
        assert code == 2 and out == "" and "not a rational" in err

    def test_exponent_point_id_loads_at_once_as_a_tag(self, capsys, tmp_path):
        table = tmp_path / "t.json"
        table.write_text(json.dumps({"points": ["1e99999999", "b"],
                                     "p": [["0/1", "1/1"], ["1/1", "0/1"]]}))
        start = time.monotonic()
        code, out, _ = run(capsys, "axioms", "--space", str(table))
        assert code == 0 and "pass" in out
        code, out, _ = run(capsys, "topology", "net", "--space", str(table),
                           "--restrict", "1e99999999")
        assert time.monotonic() - start < 1
        assert code == 0 and "net size 1: 1e99999999" in out

    def test_wide_common_denominator_exits_two_at_once(self, capsys, tmp_path):
        # 576 distinct 300-digit denominators: their lcm alone would pass 500k bits.
        table = tmp_path / "wide.json"
        table.write_text(json.dumps({"points": [str(i) for i in range(24)],
                                     "p": [[f"{10**299 + 24 * i + j}/{10**299 + 24 * i + j + 1}"
                                            for j in range(24)] for i in range(24)]}))
        start = time.monotonic()
        code, out, err = run(capsys, "axioms", "--space", str(table), "--json")
        assert time.monotonic() - start < 1
        assert code == 2 and out == "" and f"more than {MAX_DEN_BITS} bits" in err

    @pytest.mark.parametrize("argv", [
        ["axioms", "--space", "@deep"],
        ["analyze", "seq", "--space", "ex5.8", "--seq", "@deep", "--mode", "cauchy"],
    ])
    def test_too_deeply_nested_json_exits_two(self, capsys, tmp_path, argv):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000)
        code, out, err = run(capsys, *[str(deep) if a == "@deep" else a for a in argv])
        assert code == 2 and out == "" and "bad JSON" in err


@contextlib.contextmanager
def digit_limit(digits):
    """Python's int-to-str digit limit, lowered for the block so a cheap run crosses it."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


class TestLongValues:
    """A value past Python's int-to-str digit limit is printed in full, not an exit 2."""

    K = 2200  # the ex5.4.T orbits of 0 and 1/2 meet within 2^-(K+1), 663 digits

    @pytest.mark.parametrize("as_json", [False, True])
    def test_min_check_reports_its_violation(self, capsys, as_json):
        den = str(2 ** (self.K + 1))
        with digit_limit(640):
            code, out, err = run(capsys, "fixedpoint", "check", "--space", "ex5.4", "--map",
                                 "ex5.4.T", "--cond", "min", "--k", str(self.K),
                                 *(["--json"] if as_json else []))
        assert code == 1 and "error" not in err
        if as_json:
            doc = json.loads(out)
            assert doc["verdict"] == "violated"
            assert doc["violation"] == {"x": "0/1", "y": "1/2", "lhs": f"1/{den}", "rhs": "0/1"}
        else:
            assert out.splitlines()[1] == f"  violated at (0/1, 1/2): 1/{den} > 0"

    @pytest.mark.parametrize("as_json", [False, True])
    def test_iterate_reports_an_exhausted_budget(self, capsys, as_json):
        den = 2 ** self.K
        last = f"{den - 1}/{den}"
        with digit_limit(640):
            code, out, err = run(capsys, "fixedpoint", "iterate", "--space", "ex5.4", "--map",
                                 "ex5.4.T", "--from", "0/1", "--tol", "0", "--budget",
                                 str(self.K), *(["--json"] if as_json else []))
        assert code == 1 and "error" not in err
        if as_json:
            doc = json.loads(out)
            assert doc["outcome"] == "budget_exhausted" and doc["iterates"][-1] == last
        else:
            assert out == f"outcome: budget_exhausted after {self.K} steps\n"

    @pytest.mark.parametrize("value", [F(0), F(-3), F(7, 2), F(-1, 3), F(10**60 + 1, 3)])
    def test_values_print_as_fractions_do(self, value):
        assert format_value(value) == str(value)
        assert format_point(value) == f"{value.numerator}/{value.denominator}"

    def test_over_long_input_is_still_refused(self):
        with digit_limit(640):
            with pytest.raises(ValueError, match="not a rational"):
                read_ratio("9" * 700)
