"""The table scans against the brute-force oracle."""

import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from partialmetric import kernels, random_pm_space
from partialmetric.core import p_m_matrix

from oracles import axiom_violation, metric_violation, triangle_rows, upper_triangle_rows

# The benchmark's table builder, so the path tests run on the tables it times.
_spec = importlib.util.spec_from_file_location(
    "bench_scan", Path(__file__).resolve().parents[1] / "benchmarks" / "bench_scan.py")
bench_scan = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_scan)

F = Fraction

# Large numerators: the packed triangle scan's exact fields are as wide as
# the table's spread, so these tables test the field width at ~61 bits,
# and, being wider than ``kernels.COARSE_BITS``, the coarse pass too.
WIDE_TOPS = (2**61 - 1, 2**61)


def int_matrices(max_n=5):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(st.integers(min_value=0, max_value=12),
                           min_size=n * n, max_size=n * n).map(
            lambda vals: [vals[i * n:(i + 1) * n] for i in range(n)]))


def small_matrices(max_n=5):
    return int_matrices(max_n).map(lambda m: [[F(v, 6) for v in row] for row in m])


def _widen(base, top):
    """Shift an integer table up so that its largest numerator is ``top``."""
    hi = max(max(row) for row in base)
    return [[F(top - hi + v) for v in row] for row in base]


def _narrow(base):
    """1 + v/10^12: entries a multiple of 1/10^12 apart."""
    return [[1 + F(v, 10**12) for v in row] for row in base]


def edge_matrices():
    """Tables with numerators near ``WIDE_TOPS``, and tables with gaps of 1/10^12."""
    return st.one_of(
        st.tuples(int_matrices(), st.sampled_from(WIDE_TOPS)).map(lambda t: _widen(*t)),
        st.sampled_from(WIDE_TOPS).map(lambda top: [[F(0), F(top)], [F(top), F(0)]]),
        st.sampled_from(WIDE_TOPS).map(
            lambda top: [[F(0), F(top), F(1)], [F(top), F(0), F(1)], [F(1), F(1), F(0)]]),
        int_matrices().map(_narrow),
    )


@st.composite
def triangle_tables(draw, metric=False, tops=WIDE_TOPS):
    """Tables that pass every pair axiom, so each scan reaches its triangle phase.

    Symmetric, off-diagonal entries in [low, 12]; the diagonal is zero
    (metric) or at most its row, lowered by one where two points would
    share self/cross/self values (P1). Some tables are mixed-width: one
    pair is near a value of ``tops`` while the rest stay small, since the
    largest spread sets the packed scan's field width. Axiom tables may
    also be shifted whole so that their top is near a value of ``tops``.
    """
    n = draw(st.integers(1, 8))
    low = draw(st.sampled_from((1, 6, 10)))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = draw(st.integers(low, 12))
    if n > 1 and draw(st.booleans()):
        event("mixed width")
        i, j = draw(st.permutations(range(n)))[:2]
        m[i][j] = m[j][i] = draw(st.sampled_from(tops)) - draw(st.integers(0, 13))
    if not metric:
        for i in range(n):
            m[i][i] = min([m[i][j] for j in range(n) if j != i], default=1) - draw(
                st.integers(0, 2))
        for i in range(n):
            if any(m[i][i] == m[i][j] == m[j][j] for j in range(n) if j != i):
                m[i][i] -= 1
        if draw(st.booleans()):
            return _widen(m, draw(st.sampled_from(tops)))
    return [[F(v) for v in row] for row in m]


def scaled(matrix):
    """The scans' input: a rational table as integer numerators over its lcm denominator."""
    den = math.lcm(*{q.denominator for row in matrix for q in row})
    return [[q.numerator * (den // q.denominator) for q in row] for row in matrix]


def any_matrices():
    return st.one_of(small_matrices(), edge_matrices(), triangle_tables(),
                     triangle_tables(metric=True))


@settings(max_examples=200, deadline=None)
@given(any_matrices())
def test_axiom_scan_matches_oracle(matrix):
    assert _axiom_witness(kernels.axiom_scan(scaled(matrix))) == axiom_violation(matrix)


def _axiom_witness(hit):
    """An axiom scan hit in the oracle's (name, i, j, k) form."""
    return None if hit is None else (f"P{hit[0]}", *hit[1:])


METRIC_NAMES = {1: "identity", 2: "positivity", 3: "symmetry", 4: "triangle"}


def _metric_witness(hit):
    """A metric scan hit in the oracle's (name, i, j[, k]) form."""
    if hit is None:
        return None
    code, i, j, k = hit
    return (METRIC_NAMES[code], i, j) + ((k,) if code == 4 else ())


@settings(max_examples=200, deadline=None)
@given(any_matrices())
def test_metric_scan_matches_oracle(matrix):
    assert _metric_witness(kernels.metric_scan(scaled(matrix))) == metric_violation(matrix)


def assert_packed_rows_exact(matrix):
    """The packed test names exactly the rows with a triangle violation at some j > i.

    A row named without one would only cost a walk, so the verdicts alone
    cannot show it; this checks the field arithmetic itself. The first
    row named is the first row with any violation, the one the scans walk.
    On a table whose spread is wider than ``kernels.COARSE_BITS`` the
    coarse pass must name every such row (the lemma in ``_violating_rows``).
    """
    table = scaled(matrix)
    rows = list(kernels._violating_rows(table))
    assert rows == upper_triangle_rows(matrix)
    assert rows[:1] == triangle_rows(matrix)[:1]
    if table:
        assert set(upper_triangle_rows(matrix)) <= set(coarse_rows(table)), "a row was lost"


def coarse_rows(table):
    """The rows of a nonempty integer table that the coarse pass flags."""
    lo = min(map(min, table))
    return list(kernels._coarse_rows(table, lo, max(map(max, table)) - lo))


# Entries near 2^100 as well: packed fields over 100 bits wide.
WIDER_TOPS = WIDE_TOPS + (2**100,)


@settings(max_examples=300, deadline=None)
@given(triangle_tables(tops=WIDER_TOPS))
def test_axiom_triangle_phase_matches_oracle(matrix):
    hit = kernels.axiom_scan(scaled(matrix))
    assert hit is None or hit[0] == 4, "the table must pass P1-P3"
    event("P4 violation" if hit else "no violation")
    assert _axiom_witness(hit) == axiom_violation(matrix)
    assert_packed_rows_exact(matrix)


@settings(max_examples=300, deadline=None)
@given(triangle_tables(metric=True, tops=WIDER_TOPS))
def test_metric_triangle_phase_matches_oracle(matrix):
    hit = kernels.metric_scan(scaled(matrix))
    assert hit is None or hit[0] == 4, "the table must pass identity, positivity, symmetry"
    event("triangle violation" if hit else "no violation")
    assert _metric_witness(hit) == metric_violation(matrix)
    assert_packed_rows_exact(matrix)


# A metric on four points where only the pair {1, 3} breaks the triangle
# (3 > 1 + 1 through 0 or 2): row 3 fails only at j = 1 < 3.
LOWER_ONLY = [[0, 1, 1, 1], [1, 0, 1, 3], [1, 1, 0, 1], [1, 3, 1, 0]]


@pytest.mark.parametrize("shift", [0, 1, F(1, 3)], ids=["zero", "one", "third"])
def test_row_failing_only_below_the_diagonal_is_not_named(shift):
    # Adding ``shift`` to every entry keeps P1-P3 and each triangle's verdict.
    matrix = [[F(v) + shift for v in row] for row in LOWER_ONLY]
    assert triangle_rows(matrix) == [1, 3] and upper_triangle_rows(matrix) == [1]
    assert_packed_rows_exact(matrix)
    assert _axiom_witness(kernels.axiom_scan(scaled(matrix))) == axiom_violation(matrix) == (
        "P4", 1, 3, 0)


# One unit of P4 failure where the coarse pass can barely see it. With
# S = 2^85 the spread has 101 bits, so the coarse table is v >> 85. The
# failure (0, 1, 2) has x = p(0,1) + p(2,2) - p(0,2) - p(1,2) = 1, and
# its low bits (S - 1 and 2 above, 0 and 0 below) make the coarse field
# read T = 33767 + 1000 - 32768 - 2000 = -1, the least the lemma in
# ``kernels._violating_rows`` allows. Every other field of rows 0 and 1
# reads T <= -1499, so row 0 is flagged by that one field and row 1 not
# at all.
S = 2**85
EDGE_AXIOMS = [[0, 33768 * S - 1, 32768 * S],
               [33768 * S - 1, 1500 * S, 2000 * S],
               [32768 * S, 2000 * S, 1000 * S + 2]]
# The same for a metric. A zero diagonal makes T >= 0 at any failure
# (R = r(i,j) - r(i,k) - r(j,k) < 2^s), so its edge is T = 0:
# x = 1 with T = 33000 - 20000 - 13000.
EDGE_METRIC = [[0, 33001 * S - 1, 20000 * S + S // 2],
               [33001 * S - 1, 0, 13000 * S + S // 2 - 2],
               [20000 * S + S // 2, 13000 * S + S // 2 - 2, 0]]


def _coarse_field(table, i, j, k):
    """x and T of the test at (i, j, k) on an integer table with least entry 0."""
    shift = max(map(max, table)).bit_length() - kernels.COARSE_BITS
    t = [[v >> shift for v in row] for row in table]
    return (table[i][j] + table[k][k] - table[i][k] - table[j][k],
            t[i][j] + t[k][k] - t[i][k] - t[j][k])


@pytest.mark.parametrize("table, edge_t, scan, witness, oracle", [
    (EDGE_AXIOMS, -1, kernels.axiom_scan, _axiom_witness, axiom_violation),
    (EDGE_METRIC, 0, kernels.metric_scan, _metric_witness, metric_violation),
], ids=["axioms", "metric"])
def test_one_unit_failure_at_the_coarse_edge_is_found(table, edge_t, scan, witness, oracle):
    assert _coarse_field(table, 0, 1, 2) == (1, edge_t)
    # Row 1 is not flagged: its fields at k = i and k = j, where T = 0, are raised out of reach.
    assert coarse_rows(table) == [0]
    matrix = [[F(v) for v in row] for row in table]
    assert witness(scan(table)) == oracle(matrix)
    assert oracle(matrix)[1:] == (0, 1, 2)


def _counting_pair_tests(monkeypatch):
    """Record each ``_pair_test`` a scan makes as (slack, rows it flagged)."""
    calls = []
    real = kernels._pair_test

    def counting(m, lo, span, slack):
        fails, flagged = real(m, lo, span, slack), []
        calls.append((slack, flagged))

        def test(i):
            if fails(i):
                flagged.append(i)
                return True
            return False

        return test

    monkeypatch.setattr(kernels, "_pair_test", counting)
    return calls


def test_a_wide_valid_table_is_cleared_by_the_coarse_pass(monkeypatch):
    table = bench_scan.build_space(64, wide=True).num
    assert (max(map(max, table)) - min(map(min, table))).bit_length() > kernels.COARSE_BITS
    calls = _counting_pair_tests(monkeypatch)
    assert kernels.axiom_scan(table) is None
    assert calls == [(kernels.COARSE_SLACK, [])]  # no row flagged, no exact rows packed


def test_a_narrow_table_gets_one_exact_pass(monkeypatch):
    table = bench_scan.build_space(64).num
    assert (max(map(max, table)) - min(map(min, table))).bit_length() <= kernels.COARSE_BITS
    calls = _counting_pair_tests(monkeypatch)
    assert kernels.axiom_scan(table) is None
    assert calls == [(0, [])]


def test_metric_scan_finds_the_pair_whose_second_row_is_not_named():
    matrix = [[F(v) for v in row] for row in LOWER_ONLY]
    assert _metric_witness(kernels.metric_scan(scaled(matrix))) == metric_violation(matrix) == (
        "triangle", 1, 3, 0)


def test_empty_table_has_no_violation():
    assert kernels.axiom_scan([]) is None
    assert kernels.metric_scan([]) is None
    assert list(kernels._violating_rows([])) == []


def test_wide_and_gap_tables_reach_the_edges():
    tops = {max(map(max, scaled(_widen([[0, 5], [5, 0]], top)))) for top in WIDE_TOPS}
    assert tops == set(WIDE_TOPS)
    gaps = _narrow([[0, 1], [1, 0]])
    assert gaps[0][1] - gaps[0][0] == F(1, 10**12)


def test_random_spaces_pass_the_axiom_and_p_m_metric_scans():
    for seed in range(25):
        space = random_pm_space(seed, seed % 7 + 1)
        assert kernels.axiom_scan(space.num) is None
        assert kernels.metric_scan(p_m_matrix(space)) is None


def test_huge_numerators_give_exact_verdicts():
    big = F(2**70)
    matrix = [[F(0), big], [big, F(0)]]
    hit = kernels.axiom_scan(scaled(matrix))
    assert hit is None
    broken = [[F(1), F(0)], [F(0), big]]
    hit = kernels.axiom_scan(scaled(broken))
    assert hit is not None and hit.code == 2


def test_first_violation_is_deterministic():
    # Asymmetric table with several violations: P3 wins only after P1/P2 scans.
    matrix = [[F(0), F(1)], [F(2), F(0)]]
    hit = kernels.axiom_scan(scaled(matrix))
    assert (hit.code, hit.i, hit.j) == (3, 0, 1)


def test_benchmark_env_line_reads_the_pure_backend():
    # perfbench/run.py's environment() reads both for its env line, and
    # compare.py pairs runs only when the backends match.
    assert kernels.active_backend() == "pure"
    assert kernels.compiled_available() is False
