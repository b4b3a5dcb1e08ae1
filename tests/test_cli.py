"""Command-line behavior: exit codes, JSON documents, round trips."""

import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from partialmetric import FinitePMSpace
from partialmetric.cli import main
from partialmetric.points import parse_point_ids, parse_rational, resolve_point

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
                                     {"generator": "ex4.8.naturals", "horizon": True}])
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


class TestTopology:
    def test_separation(self, capsys):
        code, out, _ = run(capsys, "topology", "separation", "--space", "ex5.6")
        assert code == 0 and "hausdorff=False" in out

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


class TestFixedpoint:
    def test_check_violated_exits_one(self, capsys):
        code, out, _ = run(capsys, "fixedpoint", "check", "--space", "ex5.8",
                           "--map", "const.b", "--cond", "max", "--alpha", "1/2")
        assert code == 1 and "violated" in out

    @pytest.mark.parametrize("point, code", [("{}", 0), ("{a}", 1)])
    def test_constant_map_names_a_set_point(self, capsys, point, code):
        got, out, _ = run(capsys, "fixedpoint", "check", "--space", "ex3.2",
                          "--map", f"const.{point}", "--cond", "max")
        assert got == code and "36 sample pairs" in out

    @pytest.mark.parametrize("action", ["check", "iterate"])
    def test_missing_map_exits_two(self, capsys, action):
        code, _, err = run(capsys, "fixedpoint", action, "--space", "ex5.8", "--from", "a")
        assert code == 2 and "--map" in err

    @pytest.mark.parametrize("action", ["check", "iterate"])
    def test_formula_map_on_other_point_kind_exits_two(self, capsys, action):
        code, _, err = run(capsys, "fixedpoint", action, "--space", "ex3.2",
                           "--map", "ex5.4.T", "--from", "{}")
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

    @pytest.mark.parametrize("argv, reads", [
        (["bottom", "--space", "ex5.5", "--alpha", "5"], "--alpha-grid"),
        (["enumerate", "--space", "ex5.8", "--cond", "max", "--alpha", "3/4"], "--alpha-grid"),
        (["enumerate", "--space", "ex5.8", "--cond", "contraction", "--alpha-grid", "1/2"],
         "--alpha"),
        (["enumerate", "--space", "ex5.8", "--cond", "min", "--alpha", "1/2"], "--k"),
        (["check", "--space", "ex5.8", "--map", "const.a", "--alpha-grid", "9/10"], "--alpha"),
        (["check", "--space", "ex5.8", "--map", "const.a", "--cond", "min", "--alpha", "1/2"],
         "--k"),
        (["iterate", "--space", "ex5.4", "--map", "ex5.4.T", "--from", "0/1", "--alpha", "1/2"],
         "no factor flag"),
        (["bottom", "--space", "ex5.5", "--k", "3"], "--alpha-grid"),
        (["iterate", "--space", "ex5.4", "--map", "ex5.4.T", "--from", "0/1", "--cond", "min",
          "--k", "7"], "no factor flag"),
        (["check", "--space", "ex5.4", "--map", "ex5.4.T", "--k", "2"], "--alpha"),
        (["bottom", "--space", "ex5.5", "--cond", "max"], "no condition"),
        (["iterate", "--space", "ex5.4", "--map", "ex5.4.T", "--from", "0/1", "--cond", "min"],
         "no condition"),
    ])
    def test_unread_factor_flag_exits_two(self, capsys, argv, reads):
        code, out, err = run(capsys, "fixedpoint", *argv)
        assert code == 2 and out == "" and f"reads {reads}, not --" in err

    def test_negative_iteration_tolerance_exits_two_at_once(self, capsys):
        start = time.monotonic()
        code, _, err = run(capsys, "fixedpoint", "iterate", "--space", "ex5.4", "--map",
                           "ex5.4.T", "--from", "0/1", "--tol=-1/2")
        assert code == 2 and "tolerance" in err
        assert time.monotonic() - start < 1


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

    def test_bad_argument_exits_two(self, capsys):
        code, _, err = run(capsys, "random", "generate", "-n", "0")
        assert code == 2 and "error" in err


class TestBoundedInput:
    """Exponent notation, digit separators and too deeply nested JSON are refused at once."""

    @pytest.mark.parametrize("text, value", [("1/2", F(1, 2)), ("3", F(3)), ("0.5", F(1, 2)),
                                             ("-1/2", F(-1, 2))])
    def test_rational_forms_still_parse(self, text, value):
        assert parse_rational(text) == value
        assert parse_point_ids([text]) == (value,)
        assert resolve_point((), text) == value

    @pytest.mark.parametrize("text", ["1e3", "2E-1", "1/2e3", "1e99999999"])
    def test_exponent_is_no_rational(self, text):
        with pytest.raises(ValueError, match="not a rational"):
            parse_rational(text)
        assert parse_point_ids([text]) == (text,)

    @pytest.mark.parametrize("text", ["1_000", "1_0/2", "1/2_0", "0.5_0", "_1"])
    def test_digit_separator_is_no_rational(self, text):
        with pytest.raises(ValueError, match="not a rational"):
            parse_rational(text)
        assert parse_point_ids([text]) == (text,)

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

    @pytest.mark.parametrize("argv", [
        ["axioms", "--space", "@deep"],
        ["analyze", "seq", "--space", "ex5.8", "--seq", "@deep", "--mode", "cauchy"],
    ])
    def test_too_deeply_nested_json_exits_two(self, capsys, tmp_path, argv):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000)
        code, out, err = run(capsys, *[str(deep) if a == "@deep" else a for a in argv])
        assert code == 2 and out == "" and "bad JSON" in err
