"""A table is stored once: integer numerators ``num`` over one denominator ``den``.

The ``Fraction`` view ``matrix`` agrees with it entry by entry, the
integer derived metrics are ``den`` times the pointwise ones that the
fact suite uses, and no verdict or comparison-only probe builds the view.
``benchmarks/bench_scan.py`` scans the same integer tables.
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
from partialmetric.core import ball, d_matrix, p_bar_matrix, p_m_matrix

F = Fraction


def _load_bench_scan():
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_scan.py"
    spec = importlib.util.spec_from_file_location("bench_scan", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_scan = _load_bench_scan()
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
