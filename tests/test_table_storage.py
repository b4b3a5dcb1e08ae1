"""A table is stored once: integer numerators ``num`` over one denominator ``den``.

The ``Fraction`` view ``matrix`` agrees with it entry by entry, the
integer derived metrics are ``den`` times the pointwise ones that the
fact suite uses, and no verdict or comparison-only probe builds the view.
Text is read by ``points.read_ratio``, which agrees with ``Fraction`` on
its grammar less digit separators and exponents, and an unreduced entry
still gives the least common denominator. ``benchmarks/bench_scan.py``
scans the same integer tables.
"""

import importlib.util
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import table_by_cells

from partialmetric import (
    FinitePMSpace,
    ball_cover_check,
    bottom_set,
    catalog_names,
    catalog_space,
    check_axioms,
    d_metric,
    diameter,
    gdelta_diagonal,
    maximal_points,
    p_bar,
    p_m,
    random_pm_space,
    separation_class,
    specialization_order,
    totally_bounded_at,
)
from partialmetric import core
from partialmetric.core import MAX_DEN_BITS, ball, d_matrix, p_bar_matrix, p_m_matrix
from partialmetric.errors import StructureError
from partialmetric.points import parse_rational, read_ratio

F = Fraction


def _load(name, relative):
    path = Path(__file__).resolve().parent.parent / relative
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up while the class is built
    spec.loader.exec_module(module)
    return module


bench_scan = _load("bench_scan", "benchmarks/bench_scan.py")
# The benchmark's table generator, read only: it builds Fractions and never imports partialmetric.
bench_tables = _load("bench_tables", "perfbench/tables.py")
PRIMES = bench_scan.WIDE_DENOMINATORS  # the eight largest primes below 2^12


def _inputs():
    """(id, points, rational rows) for tables whose entries are known up front."""
    for seed in range(6):
        sp = random_pm_space(seed, seed % 5 + 2, zero_f=seed % 2 == 1)
        yield f"random-{seed}", sp.points, [list(row) for row in sp.matrix]
    for name in catalog_names():
        sp = catalog_space(name).finite_sample()
        yield name, sp.points, [list(row) for row in sp.matrix]
    n = 9  # entries over all eight primes, so den is their product times 6
    rows = [[F(1 + (i * n + j) % 5, PRIMES[(i + j) % 8]) if i != j else F(1, 6)
             for j in range(n)] for i in range(n)]
    yield "primes", tuple(F(i) for i in range(n)), rows
    yield "integers", (F(0), F(1)), [[F(0), F(3)], [F(3), F(0)]]


INPUTS = list(_inputs())


def assert_one_table(sp, rows):
    assert sp.den == math.lcm(*(F(v).denominator for row in rows for v in row))
    assert all(type(v) is int for row in sp.num for v in row)
    n = len(sp)
    assert [list(row) for row in sp.matrix] == [[F(v) for v in row] for row in rows]
    assert all(sp.matrix[i][j] == F(sp.num[i][j], sp.den) for i in range(n) for j in range(n))


def assert_derived_are_scaled(sp):
    pts, den = sp.points, sp.den
    assert p_m_matrix(sp) == [[den * p_m(sp, x, y) for y in pts] for x in pts]
    assert d_matrix(sp) == [[den * d_metric(sp, x, y) for y in pts] for x in pts]
    assert p_bar_matrix(sp) == [[den * p_bar(sp, x, y) for y in pts] for x in pts]
    bottom = bottom_set(sp)
    assert p_bar_matrix(sp, restrict=bottom) == [[den * p_bar(sp, x, y) for y in bottom]
                                                  for x in bottom]


@pytest.mark.parametrize("points, rows", [pytest.param(p, r, id=i) for i, p, r in INPUTS])
def test_num_over_den_is_the_table(points, rows):
    sp = FinitePMSpace(points, rows)
    assert_one_table(sp, rows)
    assert_derived_are_scaled(sp)


def test_primes_table_has_the_wide_denominator():
    _, _, rows = next(t for t in INPUTS if t[0] == "primes")
    assert FinitePMSpace(range(9), rows).den == 6 * math.prod(PRIMES)


@pytest.mark.parametrize("n", [8, 16])
def test_bench_scan_wide_tables_keep_reduced_denominators(n):
    sp = bench_scan.build_space(n, wide=True)
    assert sp.den == math.lcm(*(v.denominator for row in sp.matrix for v in row))
    assert sp.den % math.prod(PRIMES) == 0
    assert_derived_are_scaled(sp)


entries = st.builds(F, st.integers(0, 40), st.sampled_from((1, 2, 3, 12) + PRIMES))


@st.composite
def mixed_tables(draw):
    n = draw(st.integers(1, 5))
    return draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))


@settings(max_examples=100, deadline=None)
@given(mixed_tables())
def test_mixed_denominator_tables(rows):
    sp = FinitePMSpace([F(i) for i in range(len(rows))], rows)
    assert_one_table(sp, rows)
    assert_derived_are_scaled(sp)


def _loaded(rows):
    return FinitePMSpace.from_json(json.dumps({
        "points": [f"{i}/1" for i in range(len(rows))],
        "p": [[f"{v.numerator}/{v.denominator}" for v in row] for row in rows]}))


VALID = [[F(1, 2), F(1), F(4, 3)], [F(1), F(1, 3), F(4, 3)], [F(4, 3), F(4, 3), F(1, 7)]]
BROKEN = {
    "P2": [[F(1), F(1, 2)], [F(1, 2), F(1, 3)]],
    "P4": [[F(0), F(3), F(1)], [F(3), F(0), F(1)], [F(1), F(1), F(0)]],
}


def test_check_axioms_leaves_the_view_unbuilt():
    sp = _loaded(VALID)
    assert check_axioms(sp).ok
    assert "matrix" not in vars(sp)
    sp = FinitePMSpace.from_json(json.dumps({"points": ["a", "b"],
                                             "p": [["0.50", "3/2"], ["6/4", "2/6"]]}))
    assert check_axioms(sp).ok and (sp.num, sp.den) == (((3, 9), (9, 2)), 6)
    assert "matrix" not in vars(sp)
    for axiom, rows in BROKEN.items():
        sp = _loaded(rows)
        report = check_axioms(sp)
        assert report.violated_axiom == axiom
        assert "matrix" not in vars(sp)
        assert all(type(v) is Fraction for v in report.values.values())


def test_comparison_probes_leave_the_view_unbuilt():
    sp = _loaded(VALID)
    separation_class(sp)
    specialization_order(sp)
    maximal_points(sp)
    gdelta_diagonal(sp)
    bottom_set(sp)
    ball(sp, F(0), F(1, 3))
    ball_cover_check(sp, [F(0)], F(1, 2))
    totally_bounded_at(sp, F(1, 2))
    diameter(sp)
    p_m_matrix(sp), d_matrix(sp), p_bar_matrix(sp, restrict=bottom_set(sp))
    assert "matrix" not in vars(sp)


def test_ball_radius_is_exact_at_the_boundary():
    sp = _loaded(VALID)  # p(0,1) - p(0,0) = 1/2, p(0,2) - p(0,0) = 5/6
    assert ball(sp, F(0), F(1, 2)) == {F(0)}
    assert ball(sp, F(0), F(1, 2) + F(1, 10**30)) == {F(0), F(1)}
    assert ball(sp, F(0), F(5, 6)) == {F(0), F(1)}
    assert ball(sp, F(0), 1) == {F(0), F(1), F(2)}


def test_bench_scan_main_runs_small(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["bench_scan.py", "--sizes", "8", "--repeats", "1"])
    bench_scan.main()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
    assert [row[0] for row in rows] == ["8"] * 3
    assert [" ".join(row[1:-2]) for row in rows] == ["axioms", "p_m metric", "axioms wide"]
    assert int(rows[2][-2]) > 96  # the wide table's numerators pass 2^96


# Text that Fraction's grammar touches: digits (ASCII, Arabic-Indic, fullwidth),
# signs, "/", ".", exponent letters, "_", whitespace and "d"; either shaped as
# [sign] digits [mark digits] with whitespace anywhere, or in any order.
RATIO_PIECES = ("0", "1", "7", "12", "١", "１", "/", ".", "-", "+", "e", "E", "_", " ", "\t",
                "\n", "\u00a0", "d")
_space = st.sampled_from(("", "", " ", "\t", "\n", "\u00a0"))
_digits = st.text(alphabet="0123456789١１", max_size=3)
ratio_texts = (
    st.tuples(_space, st.sampled_from(("", "-", "+")), _space, _digits, _space,
              st.sampled_from(("", "/", ".", "e", "E", "_", "d", "/-", "e-")), _space, _digits,
              _space).map("".join)
    | st.lists(st.sampled_from(RATIO_PIECES), max_size=7).map("".join)
    | st.text(alphabet="".join(RATIO_PIECES), max_size=10))


@settings(max_examples=1000, deadline=None)
@given(ratio_texts)
def test_read_ratio_reads_text_as_fraction_does(text):
    if "_" in text or "e" in text or "E" in text:
        # Digit separators and exponents are refused; Fraction is not asked,
        # since "1e99999999" would keep it busy for minutes.
        with pytest.raises(ValueError, match="not a rational"):
            read_ratio(text)
        return
    try:
        want = F(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError, match="not a rational"):
            read_ratio(text)
        return
    num, den = read_ratio(text)
    assert type(num) is int and type(den) is int and den > 0
    assert F(num, den) == want == parse_rational(text)


UNREDUCED = [
    (("2/4", "0/7", "3/6", "0.50"), 2),
    (("0/7", "0.0", "00/3", "0"), 1),
    (("4/6", "1/9", "0.10", "10/15"), 90),
    (("-0/5", "0.250", "6/8", "12/16"), 4),
]


@pytest.mark.parametrize("entries, den", UNREDUCED)
def test_unreduced_text_gives_the_least_common_denominator(entries, den):
    a, b, c, d = entries
    sp = FinitePMSpace.from_json(json.dumps({"points": ["x", "y"], "p": [[a, b], [c, d]]}))
    assert sp.den == den == math.lcm(*(F(v).denominator for v in entries))
    assert [F(v, sp.den) for row in sp.num for v in row] == [F(v) for v in entries]


def test_common_denominator_past_the_cap_is_refused():
    top = F(1, 1 << (MAX_DEN_BITS - 1))  # a denominator of MAX_DEN_BITS bits
    assert FinitePMSpace(["x", "y"], [[top, F(1, 2)], [1, 0]]).den.bit_length() == MAX_DEN_BITS
    with pytest.raises(StructureError, match=f"more than {MAX_DEN_BITS} bits"):
        FinitePMSpace(["x", "y"], [[top, F(1, 3)], [1, 0]])


def _text_table(rows):
    return json.dumps({"points": [f"p{i}" for i in range(len(rows))], "p": rows})


def _rows(n, edits):
    """An n x n text table of "1" off the diagonal and "0" on it, with ``edits`` {(i, j): text};
    an edit (i, None) drops the last entry of row i."""
    rows = [["0" if i == j else "1" for j in range(n)] for i in range(n)]
    for (i, j), text in edits.items():
        if j is None:
            rows[i].pop()
        else:
            rows[i][j] = text
    return rows


# Each table has two faults; the first one met row by row is reported: a row's
# length, then its first malformed entry in row order, then its sign.
@pytest.mark.parametrize("edits, message", [
    ({(0, 2): "x", (5, None): ""}, "not a rational: 'x'"),
    ({(2, 1): "-1", (2, 4): "y"}, "not a rational: 'y'"),
    ({(1, 3): "-2", (3, 0): "z"}, "distances must be nonnegative"),
    ({(0, 1): "w", (3, 4): "w"}, "not a rational: 'w'"),
    ({(0, 1): "1e5", (0, 3): "1e5", (4, 2): "1e5"}, "not a rational: '1e5'"),
    ({(0, j): f"bad{j}" for j in range(1, 6)}, "not a rational: 'bad1'"),
    ({(1, 0): "1/0", (1, 2): "1_0", (1, 3): "", (1, 4): "1/0"}, "not a rational: '1/0'"),
    ({(5, None): "", (0, 2): "1/2"}, "table is not square"),
], ids=["malformed-before-short-row", "malformed-after-negative", "negative-row-before-malformed",
        "same-malformed-text-twice", "repeated-exponent", "first-of-many-in-row-order",
        "first-of-mixed-faults", "short-row"])
def test_the_first_fault_in_row_order_is_reported(edits, message):
    with pytest.raises(StructureError, match=f"^{message}$"):
        FinitePMSpace.from_json(_text_table(_rows(6, edits)))


@pytest.mark.parametrize("rows", [
    [["0", [1]], ["1", "0"]],
    [["0", {}], ["1", "0"]],
    [[[1], "x"], ["1", "0"]],
    [["0", None], ["1", "0"]],
], ids=["list", "dict", "list-before-malformed", "none"])
def test_an_entry_that_is_no_number_is_a_type_error(rows):
    # Reachable only from the Python API; a JSON cell is always read as text.
    with pytest.raises(TypeError, match="^argument should be a string or a Rational instance$"):
        FinitePMSpace(["x", "y"], rows)


def test_a_malformed_text_beside_an_unhashable_entry_is_reported_first():
    with pytest.raises(StructureError, match="^not a rational: 'x'$"):
        FinitePMSpace(["x", "y"], [["x", [1]], ["1", "0"]])


def test_text_rows_may_hold_other_entries():
    rows = [["1/2", F(1, 3), "0.50"], [1, "0.5", F(2)], ["3/6", 2, "1"]]
    sp = FinitePMSpace(["x", "y", "z"], rows)
    assert (sp.num, sp.den) == table_by_cells(rows)


def test_each_distinct_text_is_read_once(monkeypatch):
    calls = []

    def counting(text):
        calls.append(text)
        return read_ratio(text)

    monkeypatch.setattr(core, "read_ratio", counting)
    rows = [["1/2" if i == j else "3/4" if (i + j) % 2 else "1" for j in range(7)]
            for i in range(7)]
    sp = FinitePMSpace.from_json(_text_table(rows))
    assert sorted(calls) == ["1", "1/2", "3/4"]
    assert (sp.num, sp.den) == table_by_cells(rows)


def _unreduced(text):
    """The entry's value written unreduced: a decimal with a trailing zero ("0.50")
    where its denominator divides a power of ten, else "2a/2b" ("2/4")."""
    q = F(text)
    k = next((k for k in range(64) if 10 ** k % q.denominator == 0), None)
    if k is None:
        return f"{2 * q.numerator}/{2 * q.denominator}"
    whole, frac = divmod(q.numerator * 10 ** k // q.denominator, 10 ** k)
    return f"{whole}.{frac:0{k}d}0" if k else f"{whole}.0"


def _docs():
    """(id, table JSON document) for every table whose entries are in read_ratio's grammar."""
    def text(rows):
        return [[f"{F(v).numerator}/{F(v).denominator}" for v in row] for row in rows]

    for name, points, rows in INPUTS:
        yield f"input-{name}", {"points": [f"p{i}" for i in range(len(points))], "p": text(rows)}
    for name, rows in [("valid", VALID), *((f"broken-{k}", r) for k, r in BROKEN.items())]:
        yield name, json.loads(_text_table(text(rows)))
    for k, ((a, b, c, d), _) in enumerate(UNREDUCED):
        yield f"unreduced-{k}", {"points": ["x", "y"], "p": [[a, b], [c, d]]}
    for kind in bench_tables.KINDS:
        for n in (16, 64):
            yield f"perfbench-{kind}-{n}", json.loads(bench_tables.make_table(kind, n, 1).to_json())
    for name in catalog_names():
        yield f"catalog-{name}", catalog_space(name).finite_sample().to_json_dict()


@pytest.mark.parametrize("doc", [pytest.param(doc, id=i) for i, doc in _docs()])
@pytest.mark.parametrize("written", ["as-stated", "unreduced"])
def test_num_and_den_match_a_per_cell_read(doc, written):
    rows = doc["p"]
    if written == "unreduced":
        rows = [[_unreduced(v) for v in row] for row in rows]
    sp = FinitePMSpace.from_json_dict({**doc, "p": rows})
    assert (sp.num, sp.den) == table_by_cells(rows)


def test_unreduced_rewrites_keep_the_value():
    assert [_unreduced(v) for v in ("1/2", "1/3", "3", "7/20", "0/1")] == \
        ["0.50", "2/6", "3.0", "0.350", "0.0"]
