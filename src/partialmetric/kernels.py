"""The table scans.

Verdicts are computed on integer numerators over the table's common
denominator (plain Python ints, so arbitrary precision), and every
comparison is exact. Each scan returns the first violation in canonical
(axiom, i, j, k) order, or None. That order is pinned by the brute-force
oracles in ``tests/oracles.py``.

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

# ``perfbench/`` is the only reader of these three names; the benchmark
# change in ROADMAP item 1 retires them.
_INT64_SAFE = 1 << 61


def active_backend() -> str:
    return "pure"


def compiled_available() -> bool:
    return False


class Violation(NamedTuple):
    code: int
    i: int
    j: int
    k: int


def flatten_numerators(matrix: Sequence[Sequence[Fraction]]) -> list[int]:
    """Flatten a rational table to numerators over its lcm denominator."""
    dens = {q.denominator for row in matrix for q in row}
    lcm = math.lcm(*dens)
    return [q.numerator * (lcm // q.denominator) for row in matrix for q in row]


def axiom_scan(matrix: Sequence[Sequence[Fraction]]) -> Optional[Violation]:
    """First partial-metric axiom violation in canonical order, or None."""
    return axiom_scan_flat(flatten_numerators(matrix), len(matrix))


def metric_scan(matrix: Sequence[Sequence[Fraction]]) -> Optional[Violation]:
    """First metric axiom violation in canonical order, or None."""
    return metric_scan_flat(flatten_numerators(matrix), len(matrix))


def axiom_scan_flat(num: Sequence[int], n: int) -> Optional[Violation]:
    """First violation of the partial-metric axioms in the flat n*n table ``num``.

    Codes: 1 distinct points share self/cross/self values, 2 a
    self-distance exceeds a cross distance, 3 asymmetry, 4 the sharpened
    triangle inequality fails. k is -1 for the pair axioms.
    """
    for i in range(n):
        ii = num[i * n + i]
        for j in range(n):
            if i != j and ii == num[i * n + j] == num[j * n + j]:
                return Violation(1, i, j, -1)
    for i in range(n):
        ii = num[i * n + i]
        for j in range(n):
            if i != j and ii > num[j * n + i]:
                return Violation(2, i, j, -1)
    for i in range(n):
        for j in range(i + 1, n):
            if num[i * n + j] != num[j * n + i]:
                return Violation(3, i, j, -1)
    return _triangle_scan(num, n)


def metric_scan_flat(num: Sequence[int], n: int) -> Optional[Violation]:
    """First violation of the metric axioms in the flat n*n table ``num``.

    Codes: 1 nonzero self-distance, 2 zero or negative distance between
    distinct points, 3 asymmetry, 4 triangle inequality failure.
    """
    for i in range(n):
        if num[i * n + i] != 0:
            return Violation(1, i, i, -1)
    for i in range(n):
        for j in range(n):
            if i != j and num[i * n + j] <= 0:
                return Violation(2, i, j, -1)
    for i in range(n):
        for j in range(i + 1, n):
            if num[i * n + j] != num[j * n + i]:
                return Violation(3, i, j, -1)
    # The diagonal is zero here, so the metric triangle is the sharpened one.
    return _triangle_scan(num, n)


def _triangle_scan(num, n):
    """First (4, i, j, k) with p(i,j) > p(i,k) + p(k,j) - p(k,k), or None.

    Only a row that ``_violating_rows`` names is walked triple by triple,
    so the witness is the canonical first one.
    """
    for i in _violating_rows(num, n):
        row = num[i * n:(i + 1) * n]
        for j in range(n):
            ij = row[j]
            for k in range(n):
                if ij > row[k] + num[k * n + j] - num[k * n + k]:
                    return Violation(4, i, j, k)
    return None


def _violating_rows(num, n):
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
    if n == 0:
        return
    lo = min(num)
    span = max(num) - lo
    w = (2 * span + 2).bit_length() + 1
    half = (1 << (w - 1)) - 1
    ones = int(("0" * (w - 1) + "1") * n, 2)
    guard = ones << (w - 1)
    packed = []
    for r in range(n):
        # Field j of packed[r] is p(r,j) - lo; column 0 sits in the lowest field.
        fields = 0
        for v in reversed(num[r * n:(r + 1) * n]):
            fields = fields << w | v - lo
        packed.append(fields)
    shifted = [(half + num[k * n + k]) * ones - packed[k] for k in range(n)]
    for i in range(n):
        sums = map(add, repeat(packed[i]), shifted)
        spread = map(mul, num[i * n:(i + 1) * n], repeat(ones))  # p(i,k) in every field
        if any(map(and_, map(sub, sums, spread), repeat(guard))):
            yield i
