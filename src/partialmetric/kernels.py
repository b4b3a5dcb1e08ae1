"""The table scans.

A scan reads a table as its space stores it: rows of integer numerators
over one common denominator (plain Python ints, so arbitrary
precision), so every comparison is exact. Each scan returns the first
violation in canonical (axiom, i, j, k) order, or None. That order is
pinned by the brute-force oracles in ``tests/oracles.py``.

The triangle phase tests a whole pair of rows at once: each row is packed
into one int with a fixed-width field per column, so a few big-int
operations and one mask test check every j of a pair (i, k). Only a row
with a violation is then walked triple by triple, in canonical order,
for its first (j, k).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from operator import add, and_, mul, sub
from typing import NamedTuple, Optional, Sequence

# ``perfbench/`` is the only reader of the four names that follow; the
# benchmark change in ROADMAP item 1 retires them.
_INT64_SAFE = 1 << 61


def active_backend() -> str:
    return "pure"


def compiled_available() -> bool:
    return False


def flatten_numerators(matrix: Sequence[Sequence[Fraction]]) -> list[int]:
    """Flatten a rational table to numerators over its lcm denominator."""
    dens = {q.denominator for row in matrix for q in row}
    lcm = math.lcm(*dens)
    return [q.numerator * (lcm // q.denominator) for row in matrix for q in row]


class Violation(NamedTuple):
    code: int
    i: int
    j: int
    k: int


def axiom_scan(m: Sequence[Sequence[int]]) -> Optional[Violation]:
    """First violation of the partial-metric axioms in the integer table ``m``.

    Codes: 1 distinct points share self/cross/self values, 2 a
    self-distance exceeds a cross distance, 3 asymmetry, 4 the sharpened
    triangle inequality fails. k is -1 for the pair axioms.

    Each pair axiom first tests a whole row or column with one C-level
    call (``count``, ``min``, ``!=``) and walks pair by pair only a line
    that test flags, in order, so the witness is the canonical first one.
    """
    n = len(m)
    diag = [m[i][i] for i in range(n)]
    for i, row in enumerate(m):
        ii = diag[i]
        if row.count(ii) > 1 and diag.count(ii) > 1:
            for j in range(n):
                if i != j and ii == row[j] == diag[j]:
                    return Violation(1, i, j, -1)
    cols = list(zip(*m))
    for i, col in enumerate(cols):
        ii = diag[i]
        if min(col) < ii:
            for j in range(n):
                if ii > col[j]:  # col[i] is ii itself, so j != i here
                    return Violation(2, i, j, -1)
    return _asymmetry(m, cols) or _triangle_scan(m)


def metric_scan(m: Sequence[Sequence[int]]) -> Optional[Violation]:
    """First violation of the metric axioms in the integer table ``m``.

    Codes: 1 nonzero self-distance, 2 zero or negative distance between
    distinct points, 3 asymmetry, 4 triangle inequality failure.
    """
    n = len(m)
    for i in range(n):
        if m[i][i] != 0:
            return Violation(1, i, i, -1)
    for i, row in enumerate(m):
        if min(row) < 0 or row.count(0) > 1:  # row[i] is the one zero allowed
            for j in range(n):
                if i != j and row[j] <= 0:
                    return Violation(2, i, j, -1)
    # The diagonal is zero here, so the metric triangle is the sharpened one.
    return _asymmetry(m, list(zip(*m))) or _triangle_scan(m)


def _asymmetry(m, cols):
    """First (3, i, j, -1), i < j, with p(i,j) != p(j,i), or None.

    The first row i that differs from column i differs from it at some
    j > i: a difference at j < i alone would have flagged row j first.
    """
    n = len(m)
    for i, col in enumerate(cols):
        row = m[i]
        if tuple(row) != col:
            for j in range(i + 1, n):
                if row[j] != col[j]:
                    return Violation(3, i, j, -1)
    return None


def _triangle_scan(m):
    """First (4, i, j, k) with p(i,j) > p(i,k) + p(k,j) - p(k,k), or None.

    Only a row that ``_violating_rows`` names is walked triple by triple,
    so the witness is the canonical first one.
    """
    n = len(m)
    for i in _violating_rows(m):
        row = m[i]
        for j in range(n):
            ij = row[j]
            for k in range(n):
                if ij > row[k] + m[k][j] - m[k][k]:
                    return Violation(4, i, j, k)
    return None


def _violating_rows(m):
    """Yield, in order, each row i with some p(i,j) > p(i,k) + p(k,j) - p(k,k).

    The test is p(i,j) - p(k,j) > a with a = p(i,k) - p(k,k). Rows are
    packed shifted by the least entry lo into fields w bits wide, and for
    each pair (i, k) field j of

        packed[i] + (half + p(k,k)) * ONES - packed[k] - p(i,k) * ONES

    holds p(i,j) - p(k,j) - a + half, whose guard bit (w-1) is set exactly
    when that difference exceeds a. The caller guarantees 0 <= a <= span
    (span = largest entry - lo): the axiom scan has passed P2, so
    p(k,k) <= p(i,k); the metric scan has passed identity and positivity,
    so p(k,k) = 0 = lo and p(i,k) >= 0. Every field then lies in
    [half - 2*span, half + span], inside [0, 2^w), so no field borrows
    from or carries into the next and the sum is exact field by field.
    """
    n = len(m)
    if n == 0:
        return
    lo = min(map(min, m))
    span = max(map(max, m)) - lo
    w = (2 * span + 2).bit_length() + 1
    half = (1 << (w - 1)) - 1
    ones = int(("0" * (w - 1) + "1") * n, 2)
    guard = ones << (w - 1)
    packed = []
    for row in m:
        # Field j of a packed row r is p(r,j) - lo; column 0 sits in the lowest field.
        fields = 0
        for v in reversed(row):
            fields = fields << w | v - lo
        packed.append(fields)
    shifted = [(half + m[k][k]) * ones - packed[k] for k in range(n)]
    for i in range(n):
        sums = map(add, repeat(packed[i]), shifted)
        spread = map(mul, m[i], repeat(ones))  # p(i,k) in every field
        if any(map(and_, map(sub, sums, spread), repeat(guard))):
            yield i
