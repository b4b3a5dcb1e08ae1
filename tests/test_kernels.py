"""The table scans against the brute-force oracle."""

import math
from fractions import Fraction

from hypothesis import event, given, settings
from hypothesis import strategies as st

from partialmetric import kernels, random_pm_space
from partialmetric.core import p_m_matrix

from oracles import axiom_violation, metric_violation, triangle_rows

F = Fraction

# Large numerators: the packed triangle scan's fields are as wide as the
# table's spread, so these tables test the field width at ~61 bits.
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
    """The packed test names exactly the rows with a triangle violation.

    A row named without one would only cost a walk, so the verdicts alone
    cannot show it; this checks the field arithmetic itself.
    """
    assert list(kernels._violating_rows(scaled(matrix))) == triangle_rows(matrix)


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
