"""Scan implementations: the pure reference against the brute-force oracle,
and the compiled extension, when built, against the pure reference."""

from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partialmetric import _scan_py, kernels, random_pm_space
from partialmetric.core import p_m_matrix

from oracles import axiom_violation, metric_violation

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


def any_matrices():
    return st.one_of(small_matrices(), edge_matrices())


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
    expected = axiom_violation(matrix)
    if expected is None:
        assert hit is None
    else:
        name, i, j, k = expected
        assert hit is not None
        code, *ijk = hit
        assert (f"P{code}", *ijk) == (name, i, j, k)


@settings(max_examples=200, deadline=None)
@given(any_matrices())
def test_metric_scan_matches_oracle(matrix):
    hit = pure_scan("metric_scan", matrix)
    assert kernels.metric_scan(matrix) == hit
    assert (hit is None) == (metric_violation(matrix) is None)


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
