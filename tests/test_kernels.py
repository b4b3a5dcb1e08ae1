"""Scan implementations: the pure backend against the brute-force oracle,
and the compiled extension, when built, against the pure backend."""

from array import array
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from partialmetric import _scan_py, kernels, random_pm_space
from partialmetric.core import p_m_matrix

from oracles import axiom_violation, metric_violation, triangle_rows

try:
    from partialmetric import _scan as _scan_c
except ImportError:
    _scan_c = None

F = Fraction

needs_compiled = pytest.mark.skipif(_scan_c is None, reason="compiled extension not built")

# Largest numerators on either side of the dispatcher's int64 guard.
GUARD_TOPS = (kernels._INT64_SAFE - 1, kernels._INT64_SAFE)


def pure_scan(name, matrix):
    return getattr(_scan_py, name)(kernels.flatten_numerators(matrix), len(matrix))


def compiled_scan(name, matrix):
    flat = kernels.flatten_numerators(matrix)
    return getattr(_scan_c, name)(array("q", flat), len(matrix))


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
    """Tables at either side of the int64 guard, and tables with gaps of 1/10^12."""
    return st.one_of(
        st.tuples(int_matrices(), st.sampled_from(GUARD_TOPS)).map(lambda t: _widen(*t)),
        st.sampled_from(GUARD_TOPS).map(lambda top: [[F(0), F(top)], [F(top), F(0)]]),
        st.sampled_from(GUARD_TOPS).map(
            lambda top: [[F(0), F(top), F(1)], [F(top), F(0), F(1)], [F(1), F(1), F(0)]]),
        int_matrices().map(_narrow),
    )


@st.composite
def triangle_tables(draw, metric=False, tops=GUARD_TOPS):
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


def any_matrices():
    return st.one_of(small_matrices(), edge_matrices(), triangle_tables(),
                     triangle_tables(metric=True))


@needs_compiled
@settings(max_examples=300, deadline=None)
@given(any_matrices())
def test_axiom_scan_backends_agree(matrix):
    assert compiled_scan("axiom_scan", matrix) == pure_scan("axiom_scan", matrix)


@needs_compiled
@settings(max_examples=300, deadline=None)
@given(any_matrices())
def test_metric_scan_backends_agree(matrix):
    assert compiled_scan("metric_scan", matrix) == pure_scan("metric_scan", matrix)


@settings(max_examples=200, deadline=None)
@given(any_matrices())
def test_axiom_scan_matches_oracle(matrix):
    hit = pure_scan("axiom_scan", matrix)
    assert kernels.axiom_scan(matrix) == hit
    assert _axiom_witness(hit) == axiom_violation(matrix)


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
    hit = pure_scan("metric_scan", matrix)
    assert kernels.metric_scan(matrix) == hit
    assert _metric_witness(hit) == metric_violation(matrix)


def assert_packed_rows_exact(matrix):
    """The packed test names exactly the rows with a triangle violation.

    A row named without one would only cost a walk, so the verdicts alone
    cannot show it; this checks the field arithmetic itself.
    """
    flat = kernels.flatten_numerators(matrix)
    assert list(_scan_py._violating_rows(flat, len(matrix))) == triangle_rows(matrix)


# Entries near 2^100 as well: wider than any int64, so only the pure scan takes them.
WIDE_TOPS = GUARD_TOPS + (2**100,)


@settings(max_examples=300, deadline=None)
@given(triangle_tables(tops=WIDE_TOPS))
def test_axiom_triangle_phase_matches_oracle(matrix):
    hit = pure_scan("axiom_scan", matrix)
    assert hit is None or hit[0] == 4, "the table must pass P1-P3"
    event("P4 violation" if hit else "no violation")
    assert kernels.axiom_scan(matrix) == hit
    assert _axiom_witness(hit) == axiom_violation(matrix)
    assert_packed_rows_exact(matrix)


@settings(max_examples=300, deadline=None)
@given(triangle_tables(metric=True, tops=WIDE_TOPS))
def test_metric_triangle_phase_matches_oracle(matrix):
    hit = pure_scan("metric_scan", matrix)
    assert hit is None or hit[0] == 4, "the table must pass identity, positivity, symmetry"
    event("triangle violation" if hit else "no violation")
    assert kernels.metric_scan(matrix) == hit
    assert _metric_witness(hit) == metric_violation(matrix)
    assert_packed_rows_exact(matrix)


def test_empty_table_has_no_violation():
    assert _scan_py.axiom_scan([], 0) is None
    assert _scan_py.metric_scan([], 0) is None
    assert list(_scan_py._violating_rows([], 0)) == []


def test_guard_and_gap_tables_reach_the_edges():
    tops = {max(kernels.flatten_numerators(_widen([[0, 5], [5, 0]], top))) for top in GUARD_TOPS}
    assert tops == {kernels._INT64_SAFE - 1, kernels._INT64_SAFE}
    gaps = _narrow([[0, 1], [1, 0]])
    assert gaps[0][1] - gaps[0][0] == F(1, 10**12)


def test_random_spaces_pass_both_backends():
    for seed in range(25):
        space = random_pm_space(seed, seed % 7 + 1)
        assert pure_scan("axiom_scan", space.matrix) is None
        if _scan_c is not None:
            assert compiled_scan("axiom_scan", space.matrix) is None
        assert pure_scan("metric_scan", p_m_matrix(space)) is None


def test_wide_numerators_fall_back_to_exact_ints():
    # Numerators past the int64 guard must still give exact verdicts.
    big = F(2**70)
    matrix = [[F(0), big], [big, F(0)]]
    hit = kernels.axiom_scan(matrix)
    assert hit is None
    broken = [[F(1), F(0)], [F(0), big]]
    hit = kernels.axiom_scan(broken)
    assert hit is not None and hit.code == 2


def test_first_violation_is_deterministic():
    # Asymmetric table with several violations: P3 wins only after P1/P2 scans.
    matrix = [[F(0), F(1)], [F(2), F(0)]]
    hit = kernels.axiom_scan(matrix)
    assert (hit.code, hit.i, hit.j) == (3, 0, 1)
