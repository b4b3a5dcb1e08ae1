"""The table scans.

A scan reads a table as its space stores it: rows of integer numerators
over one common denominator (plain Python ints, so arbitrary
precision), so every comparison is exact. Each scan returns the first
violation in canonical (axiom, i, j, k) order, or None. That order is
pinned by the brute-force oracles in ``tests/oracles.py``.

The triangle phase tests a whole pair of rows at once: each row is packed
into one int with a fixed-width field per column, so a few big-int
operations and one mask test check every k of an unordered pair i < j.
The phase runs only on a symmetric table, where (i, j, k) fails iff
(j, i, k) does, so the n(n-1)/2 pairs cover every triple. Only a row
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

    The table is symmetric here, so (i, j, k) fails iff (j, i, k) does,
    and j = i never fails (see ``_violating_rows``). A failure at j < i
    would make row j an earlier failing row, so the first failing row
    fails only at some j > i, and that row, the first that
    ``_violating_rows`` names, is walked over those j alone: the witness
    is the canonical first one.
    """
    n = len(m)
    for i in _violating_rows(m):
        row = m[i]
        for j in range(i + 1, n):
            ij = row[j]
            for k in range(n):
                if ij > row[k] + m[k][j] - m[k][k]:
                    return Violation(4, i, j, k)
    return None


def _violating_rows(m):
    """Yield, in order, each row i with some p(i,j) > p(i,k) + p(k,j) - p(k,k), j > i.

    The caller has passed symmetry, so the test at (i, j, k) is
    p(i,j) + p(k,k) - p(i,k) - p(j,k) > 0, the same for (j, i, k). Rows
    are packed shifted by the least entry lo into fields w bits wide,
    the diagonal too (field k of ``diag`` is p(k,k) - lo), and for each
    unordered pair i < j field k of

        half * ONES + diag - packed[i] - packed[j] + (p(i,j) - lo) * ONES

    holds half + p(i,j) + p(k,k) - p(i,k) - p(j,k), whose guard bit (w-1)
    is set exactly when the triangle fails at (i, j, k). The caller
    guarantees p(k,k) <= p(i,k) for all i, k: the axiom scan has passed
    P2; the metric scan has passed identity and positivity, so p(k,k) = 0
    = lo <= p(i,k). Every field then lies in [half - 2*span, half + span]
    (span = largest entry - lo), inside [0, 2^w), so no field borrows
    from or carries into the next and the sum is exact field by field.
    The same bound gives j = i no failure: p(i,i) <= p(i,k) and
    p(k,k) <= p(i,k). So n(n-1)/2 pair tests cover every triple, and a
    row that fails only at some j < i is not yielded; the first failing
    row always fails at some j > i, so it is the first one yielded.
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

    def pack(values):
        # Field k holds values[k] - lo; column 0 sits in the lowest field.
        fields = 0
        for v in reversed(values):
            fields = fields << w | v - lo
        return fields

    packed = list(map(pack, m))
    base = (half - lo) * ones + pack([m[k][k] for k in range(n)])
    for i in range(n - 1):
        sums = map(sub, repeat(base - packed[i]), packed[i + 1:])
        spread = map(mul, m[i][i + 1:], repeat(ones))  # p(i,j) in every field
        if any(map(and_, map(add, sums, spread), repeat(guard))):
            yield i
